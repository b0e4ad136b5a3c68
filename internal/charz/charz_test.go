package charz

import (
	"math"
	"testing"

	"columndisturb/internal/dram"
	"columndisturb/internal/faultmodel"
)

// newDevice builds a small module under test. cdMs/retMs pick the
// vulnerability; hcMedian sets the RowHammer threshold median (0 keeps the
// default, effectively disabling RowHammer at test scales).
func newDevice(t *testing.T, seed uint64, cdMs, retMs, hcMedian float64) *dram.Device {
	t.Helper()
	g := dram.SmallGeometry()
	p := faultmodel.Default()
	p.VRTProb = 0
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  cdMs,
		TimeToFirstRETms: retMs,
		PopulationCells:  g.TotalCells(),
	})
	if hcMedian > 0 {
		p.MuHC, p.SigmaHC = math.Log(hcMedian), 0.5
	}
	d, err := dram.NewDevice(g, &p, dram.DDR4Timing(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestSameSubarrayByRowClone(t *testing.T) {
	d := newDevice(t, 1, 5, 50, 0)
	g := d.Geometry()
	same, err := SameSubarrayByRowClone(d, 0, 3, 17)
	if err != nil {
		t.Fatal(err)
	}
	if !same {
		t.Fatal("rows 3 and 17 share subarray 0")
	}
	diff, err := SameSubarrayByRowClone(d, 0, 3, g.SubarrayBase(1)+3)
	if err != nil {
		t.Fatal(err)
	}
	if diff {
		t.Fatal("rows in different subarrays must not clone")
	}
}

func TestScanSubarrayBoundaries(t *testing.T) {
	d := newDevice(t, 2, 5, 50, 0)
	g := d.Geometry()
	bounds, err := ScanSubarrayBoundaries(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, g.RowsPerSubarray, 2 * g.RowsPerSubarray}
	if len(bounds) != len(want) {
		t.Fatalf("boundaries %v, want %v", bounds, want)
	}
	for i := range want {
		if bounds[i] != want[i] {
			t.Fatalf("boundaries %v, want %v", bounds, want)
		}
	}
}

func TestExhaustivePartitionMatchesScan(t *testing.T) {
	d := newDevice(t, 3, 5, 50, 0)
	g := d.Geometry()
	// Cover the first boundary: rows 0..39 span subarrays 0 and 1.
	groups, err := ExhaustivePartition(d, 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 {
		t.Fatalf("want 2 groups, got %d", len(groups))
	}
	for _, grp := range groups {
		sub := g.SubarrayOf(grp[0])
		for _, r := range grp {
			if g.SubarrayOf(r) != sub {
				t.Fatalf("group mixes subarrays: %v", grp)
			}
		}
	}
	if len(groups[0])+len(groups[1]) != 40 {
		t.Fatal("partition lost rows")
	}
}

// TestRetentionAllZeroVictimsNeverFail: true cells storing 0 hold no
// charge to leak, so the idle (retention) arm fig2 runs flips none of them
// in 800 ms, while the same rows storing 1s do fail on this 50 ms
// first-retention-failure module.
func TestRetentionAllZeroVictimsNeverFail(t *testing.T) {
	idle := func(victims dram.DataPattern) int {
		d := newDevice(t, 8, 5, 50, 0)
		out, err := RunDisturb(d, DisturbConfig{
			Bank: 0, Mode: ModeIdle, VictimPattern: victims,
			DurationMs: 800, Subarrays: []int{0},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return Aggregate(out[0]).Flips
	}
	if n := idle(dram.PatFF); n == 0 {
		t.Fatal("all-1 victims found no retention failure at 800 ms on a 50 ms module")
	}
	if n := idle(dram.Pat00); n != 0 {
		t.Fatalf("all-0 true cells cannot fail retention, found %d", n)
	}
}

func TestTimeToFirstBitflip(t *testing.T) {
	d := newDevice(t, 9, 5, 50, 0)
	g := d.Geometry()
	cfg := DefaultTTFConfig(d.Timing())
	cfg.Repeats = 2
	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2
	res, err := TimeToFirstBitflip(d, 0, agg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("vulnerable module reported not vulnerable")
	}
	// Calibration target is ~5 ms for the module's weakest cell; this
	// subarray's weakest cell is somewhat stronger, and the 1% bisection
	// lands near it. Accept a loose band.
	if res.TimeMs < 1 || res.TimeMs > 60 {
		t.Fatalf("TTF %.2f ms implausible for a 5 ms-calibrated module", res.TimeMs)
	}
	if res.HammerCount <= 0 || res.Probes == 0 {
		t.Fatalf("bad search bookkeeping: %+v", res)
	}
}

func TestTimeToFirstBitflipNotFound(t *testing.T) {
	d := newDevice(t, 10, 1e7, 1e7, 0) // essentially invulnerable
	g := d.Geometry()
	cfg := DefaultTTFConfig(d.Timing())
	cfg.Repeats = 1
	cfg.MaxTimeMs = 64
	res, err := TimeToFirstBitflip(d, 0, g.SubarrayBase(1)+5, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Found {
		t.Fatal("invulnerable module reported vulnerable")
	}
}

func TestRunDisturbCDvsRetention(t *testing.T) {
	g := dram.SmallGeometry()
	agg := g.SubarrayBase(1) + 16
	run := func(mode DisturbMode) map[int][]RowFlips {
		d := newDevice(t, 11, 5, 50, 0)
		f := &Filter{ExcludedRows: GuardRows(g, []int{agg}, 4)}
		out, err := RunDisturb(d, DisturbConfig{
			Bank: 0, AggRow: agg, Mode: mode,
			AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
			DurationMs: 100, TAggOnNs: 70200, TRPNs: 14,
			Subarrays: []int{0, 1, 2},
		}, f)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	cd := run(ModeHammer)
	ret := run(ModeIdle)
	var cdTot, retTot Totals
	for s := 0; s <= 2; s++ {
		cdAgg := Aggregate(cd[s])
		retAgg := Aggregate(ret[s])
		cdTot.Flips += cdAgg.Flips
		retTot.Flips += retAgg.Flips
	}
	if cdTot.Flips <= retTot.Flips {
		t.Fatalf("CD (%d flips) must exceed retention (%d) at 100 ms", cdTot.Flips, retTot.Flips)
	}
	// Obs 5: aggressor subarray sees more flips than each neighbour.
	aggFlips := Aggregate(cd[1]).Flips
	if aggFlips <= Aggregate(cd[0]).Flips || aggFlips <= Aggregate(cd[2]).Flips {
		t.Fatalf("aggressor subarray should dominate: %d vs %d/%d",
			aggFlips, Aggregate(cd[0]).Flips, Aggregate(cd[2]).Flips)
	}
}

func TestRunDisturbRejectsTooShortDuration(t *testing.T) {
	d := newDevice(t, 13, 5, 50, 0)
	_, err := RunDisturb(d, DisturbConfig{
		Bank: 0, AggRow: 5, Mode: ModeHammer,
		AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
		DurationMs: 1e-6, TAggOnNs: 70200, TRPNs: 14,
	}, nil)
	if err == nil {
		t.Fatal("sub-cycle duration must be rejected")
	}
}
