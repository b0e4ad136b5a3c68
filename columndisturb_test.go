package columndisturb

import (
	"context"
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
