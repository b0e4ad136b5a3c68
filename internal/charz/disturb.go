package charz

import (
	"fmt"
	"math"
	"sort"

	"columndisturb/internal/dram"
)

// DisturbMode selects the §3.2 access pattern of a disturbance experiment.
type DisturbMode int

// Experiment modes.
const (
	// ModeHammer runs the single-aggressor ACT–tAggOn–PRE–tRP pattern for
	// the full duration (hammering for tAggOn ≈ tRAS, pressing for larger
	// tAggOn; the paper treats them as one pattern parameterized by
	// tAggOn).
	ModeHammer DisturbMode = iota
	// ModeIdle keeps the bank precharged: the retention failure baseline.
	ModeIdle
)

// DisturbConfig describes one disturbance experiment on a bank.
type DisturbConfig struct {
	Bank          int
	AggRow        int // aggressor row (ignored for ModeIdle)
	Mode          DisturbMode
	AggPattern    dram.DataPattern
	VictimPattern dram.DataPattern
	DurationMs    float64
	TAggOnNs      float64
	TRPNs         float64
	// Subarrays to initialize and read; nil means the aggressor's
	// perturbed triple (or subarray 0 for ModeIdle).
	Subarrays []int
}

// RunDisturb initializes the victim rows, runs the access pattern for the
// configured duration with refresh disabled, reads every tested row and
// returns per-subarray row flip summaries (filtered through f, which may be
// nil for raw counts).
func RunDisturb(d *dram.Device, cfg DisturbConfig, f *Filter) (map[int][]RowFlips, error) {
	g := d.Geometry()
	subs := cfg.Subarrays
	if subs == nil {
		if cfg.Mode == ModeIdle {
			for s := 0; s < g.SubarraysPerBank; s++ {
				subs = append(subs, s)
			}
		} else {
			subs = g.PerturbedSubarrays(g.SubarrayOf(cfg.AggRow))
		}
	}
	// Initialize victims.
	for _, s := range subs {
		first := g.SubarrayBase(s)
		if err := WriteRows(d, cfg.Bank, first, first+g.RowsPerSubarray-1, cfg.VictimPattern); err != nil {
			return nil, err
		}
	}
	// Initialize the aggressor and run the pattern.
	switch cfg.Mode {
	case ModeHammer:
		if err := d.WriteRowPattern(cfg.Bank, cfg.AggRow, cfg.AggPattern); err != nil {
			return nil, err
		}
		cycle := cfg.TAggOnNs + cfg.TRPNs
		acts := int(cfg.DurationMs * 1e6 / cycle)
		if acts < 1 {
			return nil, fmt.Errorf("charz: duration %v ms too short for one cycle", cfg.DurationMs)
		}
		if err := d.Hammer(cfg.Bank, cfg.AggRow, acts, cfg.TAggOnNs, cfg.TRPNs); err != nil {
			return nil, err
		}
	case ModeIdle:
		if !(cfg.DurationMs >= 0) || math.IsInf(cfg.DurationMs, 1) {
			return nil, fmt.Errorf("charz: idle duration %v ms must be finite and non-negative", cfg.DurationMs)
		}
		d.AdvanceNs(cfg.DurationMs * 1e6)
	default:
		return nil, fmt.Errorf("charz: unknown mode %d", cfg.Mode)
	}
	// Read back and summarize.
	out := make(map[int][]RowFlips, len(subs))
	for _, s := range subs {
		first := g.SubarrayBase(s)
		recs, err := readRows(d, cfg.Bank, first, first+g.RowsPerSubarray-1)
		if err != nil {
			return nil, err
		}
		rows := DiffReads(recs, cfg.VictimPattern, f)
		sort.Slice(rows, func(i, j int) bool { return rows[i].Row < rows[j].Row })
		out[s] = rows
	}
	return out, nil
}

// WriteRows fills rows [first, last] of the bank with the pattern.
func WriteRows(d *dram.Device, bank, first, last int, p dram.DataPattern) error {
	for r := first; r <= last; r++ {
		if err := d.WriteRowPattern(bank, r, p); err != nil {
			return err
		}
	}
	return nil
}

// readRows reads rows [first, last] of the bank in ascending order.
func readRows(d *dram.Device, bank, first, last int) ([]ReadRecord, error) {
	recs := make([]ReadRecord, 0, max(last-first+1, 0))
	for r := first; r <= last; r++ {
		data, err := d.ReadRow(bank, r)
		if err != nil {
			return nil, err
		}
		recs = append(recs, ReadRecord{Row: r, Data: data})
	}
	return recs, nil
}
