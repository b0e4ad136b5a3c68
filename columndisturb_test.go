package columndisturb

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestCatalogShape(t *testing.T) {
	cat := Catalog()
	if len(cat) != 32 {
		t.Fatalf("catalog has %d entries, want 32", len(cat))
	}
	chips := 0
	for _, c := range cat {
		if c.Type == "DDR4" {
			chips += c.Chips
		}
	}
	if chips != 216 {
		t.Fatalf("catalog lists %d DDR4 chips, want 216", chips)
	}
}

func TestOpenUnknownModule(t *testing.T) {
	if _, err := Open("XYZ"); err == nil {
		t.Fatal("unknown module accepted")
	}
}

func openSmallChip(t *testing.T) *Chip {
	t.Helper()
	chip, err := OpenScaled("S0", 1, 3, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	return chip
}

// An inverted row range is an error, not a makeslice panic in
// RowBitflips or a silent no-op in FillRows.
func TestRowBitflipsRejectsEmptyRange(t *testing.T) {
	chip := openSmallChip(t)
	if err := chip.FillRows(0, 10, 5, 0xFF); err == nil {
		t.Fatal("FillRows(0, 10, 5) returned nil, want an error")
	}
	if counts, err := chip.RowBitflips(0, 10, 5, 0xFF); err == nil {
		t.Fatalf("RowBitflips(0, 10, 5) returned %v, want an error", counts)
	}
	if err := chip.FillRows(0, 5, 5, 0xFF); err != nil {
		t.Fatalf("one-row FillRows: %v", err)
	}
	counts, err := chip.RowBitflips(0, 5, 5, 0xFF)
	if err != nil || len(counts) != 1 {
		t.Fatalf("one-row range: counts %v, err %v", counts, err)
	}
}

// A NaN or infinite temperature is an error and leaves the rig where it
// was: after 20 s idle the chip shows the decay flips of 85 °C, not none
// (NaN) or every charged cell (+Inf).
func TestChipSetTemperatureRejectsNonFinite(t *testing.T) {
	flips := func(temps ...float64) int {
		chip, err := OpenScaled("M8", 1, 3, 32, 128)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range temps {
			if err := chip.SetTemperature(c); err == nil {
				t.Errorf("SetTemperature accepted %v °C", c)
			}
		}
		last := chip.RowsPerBank() - 1
		if err := chip.FillRows(0, 0, last, 0xFF); err != nil {
			t.Fatal(err)
		}
		if err := chip.Idle(20_000); err != nil {
			t.Fatal(err)
		}
		counts, err := chip.RowBitflips(0, 0, last, 0xFF)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, c := range counts {
			n += c
		}
		return n
	}
	at85 := flips()
	if at85 == 0 {
		t.Fatal("no decay flip after 20 s idle at 85 °C: the comparison is vacuous")
	}
	if got := flips(math.NaN(), math.Inf(1), math.Inf(-1)); got != at85 {
		t.Fatalf("after rejected temperatures: %d flips, want the 85 °C count %d", got, at85)
	}
}

// The cell tier's fast-forward rejects negative counts and negative or
// non-finite timings instead of running the clock backwards.
func TestChipHammerRejectsBadTimings(t *testing.T) {
	chip := openSmallChip(t)
	for _, tm := range [][2]float64{{-1000, 14}, {36, -14}, {math.NaN(), 14}, {36, math.Inf(1)}} {
		if err := chip.Hammer(0, 3, 10, tm[0], tm[1]); err == nil {
			t.Errorf("Hammer accepted tAggOn=%v ns, tRP=%v ns", tm[0], tm[1])
		}
	}
	if err := chip.Hammer(0, 3, -5, 36, 14); err == nil {
		t.Error("Hammer accepted -5 activations")
	}
	if err := chip.Hammer(0, 3, 10, 36, 14); err != nil {
		t.Fatal(err)
	}
}

// Idle validates its own duration; the device clock is never asked to
// run backwards.
func TestChipIdleRejectsBadDuration(t *testing.T) {
	chip := openSmallChip(t)
	for _, ms := range []float64{-1, math.NaN(), math.Inf(1)} {
		err := chip.Idle(ms)
		if err == nil || !strings.HasPrefix(err.Error(), "columndisturb: idle duration") {
			t.Errorf("Idle(%v) = %v, want the facade's duration error", ms, err)
		}
	}
	if err := chip.Idle(0); err != nil {
		t.Fatal(err)
	}
}

func TestQuickstartFlow(t *testing.T) {
	// The quickstart example's exact flow: open a scaled module, press an
	// aggressor, observe ColumnDisturb bitflips across three subarrays.
	chip, err := OpenScaled("S0", 1, 3, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Info().ID != "S0" || chip.Banks() != 1 || chip.RowsPerSubarray() != 64 {
		t.Fatalf("chip metadata wrong: %+v", chip.Info())
	}
	last := chip.RowsPerBank() - 1
	if err := chip.FillRows(0, 0, last, 0xFF); err != nil {
		t.Fatal(err)
	}
	agg := chip.RowsPerSubarray() + 32 // middle subarray
	if err := chip.FillRows(0, agg, agg, 0x00); err != nil {
		t.Fatal(err)
	}
	if err := chip.Press(0, agg, 400); err != nil {
		t.Fatal(err)
	}
	counts, err := chip.RowBitflips(0, 0, last, 0xFF)
	if err != nil {
		t.Fatal(err)
	}
	perSub := make([]int, 3)
	for r, n := range counts {
		if r >= agg-1 && r <= agg+1 {
			continue
		}
		perSub[chip.SubarrayOf(r)] += n
	}
	for s, n := range perSub {
		if n == 0 {
			t.Fatalf("expected ColumnDisturb bitflips in subarray %d: %v", s, perSub)
		}
	}
}

func TestSubarrayBoundaries(t *testing.T) {
	chip, err := OpenScaled("H0", 1, 3, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	bounds, err := chip.SubarrayBoundaries(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 3 || bounds[0] != 0 || bounds[1] != 32 || bounds[2] != 64 {
		t.Fatalf("boundaries %v", bounds)
	}
}

func TestTimeToFirstBitflipFacade(t *testing.T) {
	chip, err := OpenScaled("M8", 1, 3, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	res, err := chip.TimeToFirstBitflip(0, chip.RowsPerSubarray()+32, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("M8 (the most vulnerable module) must show a bitflip within 512 ms")
	}
	if res.TimeMs <= 0 || res.TimeMs > 512 {
		t.Fatalf("TTF %v ms out of range", res.TimeMs)
	}
}

func TestListExperimentsAndRunOne(t *testing.T) {
	exps := ListExperiments()
	if len(exps) < 20 {
		t.Fatalf("only %d experiments listed", len(exps))
	}
	r, err := NewLocalRunner(LocalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	res, err := r.Run(context.Background(), Request{Experiments: []string{"sec61"}})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Reports[0]
	if rep.ID != "sec61" || len(rep.Rows) == 0 || !strings.Contains(rep.Text, "PRVR") {
		t.Fatalf("bad report: %+v", rep)
	}
	if _, err := r.Run(context.Background(), Request{Experiments: []string{"nope"}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestAnalyzeMitigations(t *testing.T) {
	m, err := AnalyzeMitigations()
	if err != nil {
		t.Fatal(err)
	}
	if m.BaselineThroughputLoss >= m.ShortPeriodThroughputLoss {
		t.Fatal("shorter refresh period must cost more throughput")
	}
	if m.PRVRThroughputLoss >= m.ShortPeriodThroughputLoss {
		t.Fatal("PRVR must beat the naive fix")
	}
	if m.PRVRThroughputReduction < 0.5 || m.PRVREnergyReduction < 0.5 {
		t.Fatalf("PRVR reductions too small: %+v", m)
	}
}
