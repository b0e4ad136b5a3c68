package core

import (
	"testing"

	"columndisturb/internal/dram"
	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

var (
	sinkParams faultmodel.Params
	sinkCounts SubarrayCounts
	sinkTTF    float64
)

// TestStatisticalTierAllocationFree guards the sweep's hottest calls
// against per-call state: a fault-model parameter set shares the
// process-wide coupling table, and prepared samplers draw without
// allocating. Every module calibration and every subarray sample of a
// registry sweep runs through these three calls.
func TestStatisticalTierAllocationFree(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	cfg := SubarrayConfig{
		Params: p, TempC: 85, DurationMs: 512,
		Rows: 256, Cols: 512,
		Classes: AggressorSubarrayClasses(p, setup(dram.Pat00, dram.PatFF)),
	}
	counts := NewCountsSampler(cfg)
	ttf := NewTTFSampler(cfg)
	r := rng.New(1)
	for _, tc := range []struct {
		name string
		f    func()
	}{
		{"faultmodel.Default", func() { sinkParams = faultmodel.Default() }},
		{"CountsSampler.Sample", func() { sinkCounts = counts.Sample(r) }},
		{"TTFSampler.Sample", func() { sinkTTF, _ = ttf.Sample(512, r) }},
	} {
		if n := testing.AllocsPerRun(20, tc.f); n != 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, n)
		}
	}
}
