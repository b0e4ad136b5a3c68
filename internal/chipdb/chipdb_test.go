package chipdb

import (
	"testing"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

func TestTable1Population(t *testing.T) {
	if got := TotalDDR4Chips(); got != 216 {
		t.Fatalf("Table 1 lists 216 DDR4 chips, catalog has %d", got)
	}
	if got := len(DDR4Modules()); got != 28 {
		t.Fatalf("Table 1 lists 28 DDR4 modules, catalog has %d", got)
	}
	if got := len(HBM2Chips()); got != 4 {
		t.Fatalf("paper tests 4 HBM2 chips, catalog has %d", got)
	}
	if got := len(Modules()); got != 32 {
		t.Fatalf("catalog should have 32 entries, got %d", got)
	}
}

func TestModuleIDsUniqueAndResolvable(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range Modules() {
		if seen[m.ID] {
			t.Fatalf("duplicate module ID %s", m.ID)
		}
		seen[m.ID] = true
		got, ok := ByID(m.ID)
		if !ok || got.ID != m.ID {
			t.Fatalf("ByID(%s) failed", m.ID)
		}
	}
	if _, ok := ByID("NOPE"); ok {
		t.Fatal("unknown ID must not resolve")
	}
}

func TestManufacturerCounts(t *testing.T) {
	// Table 1: SK Hynix 80 chips, Micron 88, Samsung 48 (DDR4).
	counts := map[Manufacturer]int{}
	for _, m := range DDR4Modules() {
		counts[m.Mfr] += m.Chips
	}
	want := map[Manufacturer]int{SKHynix: 80, Micron: 88, Samsung: 48}
	for mfr, n := range want {
		if counts[mfr] != n {
			t.Errorf("%s: %d chips, want %d", mfr, counts[mfr], n)
		}
	}
}

func TestDieScalingTrends(t *testing.T) {
	// Obs 2: newer die revisions are more vulnerable. Check the published
	// scaling factors are encoded in the calibration anchors.
	ttf := func(id string) float64 {
		m, ok := ByID(id)
		if !ok {
			t.Fatalf("missing module %s", id)
		}
		return m.Profile.TimeToFirstCDms
	}
	ratios := []struct {
		older, newer string
		want         float64
	}{
		{"H0", "H3", 5.06}, // Hynix 8Gb A → D
		{"H7", "H8", 1.29}, // Hynix 16Gb A → C
		{"M4", "M8", 2.98}, // Micron 16Gb B → F
		{"S0", "S4", 2.50}, // Samsung 16Gb A → C
	}
	for _, r := range ratios {
		got := ttf(r.older) / ttf(r.newer)
		if got < r.want*0.95 || got > r.want*1.05 {
			t.Errorf("%s/%s TTF ratio %.2f, want ≈ %.2f", r.older, r.newer, got, r.want)
		}
	}
}

func TestHeadlineMinimumAnchors(t *testing.T) {
	// Fig 6 y-axis anchors: 74.0 ms (Hynix), 63.6 ms (Micron), 88.5 ms
	// (Samsung) are the per-vendor minima.
	minPer := map[Manufacturer]float64{}
	for _, m := range DDR4Modules() {
		if cur, ok := minPer[m.Mfr]; !ok || m.Profile.TimeToFirstCDms < cur {
			minPer[m.Mfr] = m.Profile.TimeToFirstCDms
		}
	}
	want := map[Manufacturer]float64{SKHynix: 74.0, Micron: 63.6, Samsung: 88.5}
	for mfr, v := range want {
		if minPer[mfr] != v {
			t.Errorf("%s min TTF anchor %v, want %v", mfr, minPer[mfr], v)
		}
	}
}

func TestCDFasterThanRetentionOnDDR4(t *testing.T) {
	// Every DDR4 module shows ColumnDisturb before its first retention
	// failure (Obs 1-3). The HBM2 entries only claim CD > RET bitflip
	// *counts* (Obs 15), not an earlier first bitflip, so they are exempt.
	for _, m := range DDR4Modules() {
		if m.Profile.TimeToFirstCDms >= m.Profile.TimeToFirstRETms {
			t.Errorf("%s: CD first flip must precede retention first failure", m.ID)
		}
	}
}

func TestBuildParamsCalibration(t *testing.T) {
	m, _ := ByID("M8")
	p := m.BuildParams()
	// The calibrated extreme cell must flip near the anchor (±10% module
	// jitter).
	zN := rng.ExpectedMaxNormalZ(m.Geometry().TotalCells())
	kappaMax := expApprox(p.MuKappa + p.SigmaKappa*zN)
	ttf := faultmodel.Ln2 / kappaMax
	if ttf < 63.6*0.89 || ttf > 63.6*1.11 {
		t.Fatalf("M8 calibrated TTF %v ms, want 63.6 ±10%%", ttf)
	}
}

func expApprox(x float64) float64 {
	// tiny local helper to avoid importing math twice in tests
	e := 1.0
	term := 1.0
	for i := 1; i < 30; i++ {
		term *= x / float64(i)
		e += term
	}
	return e
}

func TestGeometriesValid(t *testing.T) {
	for _, m := range Modules() {
		if err := m.Geometry().Validate(); err != nil {
			t.Errorf("%s: invalid geometry: %v", m.ID, err)
		}
		if m.Type == DDR4 && m.Geometry().Chips != m.Chips {
			t.Errorf("%s: geometry chips mismatch", m.ID)
		}
	}
}

func TestOpenModule(t *testing.T) {
	m, _ := ByID("S0")
	mod, err := m.Open()
	if err != nil {
		t.Fatal(err)
	}
	if mod.Geometry() != m.Geometry() {
		t.Fatal("opened module geometry mismatch")
	}
	// A device starts at its parameters' reference temperature (checked
	// in internal/dram), so the module opens at 85 °C.
	if ref := m.BuildParams().RefTempC; ref != 85 {
		t.Fatalf("modules should open at the 85 °C reference, got %v", ref)
	}
}

func TestSeedsDifferAcrossModules(t *testing.T) {
	seeds := map[uint64]string{}
	for _, m := range Modules() {
		if prev, ok := seeds[m.Seed()]; ok {
			t.Fatalf("modules %s and %s share a seed", prev, m.ID)
		}
		seeds[m.Seed()] = m.ID
	}
}

func TestRepresentatives(t *testing.T) {
	// §4.4 uses S0, H0, M6 as vendor representatives.
	if Representative(Samsung).ID != "S0" {
		t.Fatal("Samsung representative must be S0")
	}
	if Representative(SKHynix).ID != "H0" {
		t.Fatal("SK Hynix representative must be H0")
	}
	if Representative(Micron).ID != "M6" {
		t.Fatal("Micron representative must be M6")
	}
}

func TestDieGroups(t *testing.T) {
	groups := DieGroups()
	if len(groups) != 12 {
		t.Fatalf("Table 1 has 12 DDR4 die groups, got %d", len(groups))
	}
	total := 0
	for _, g := range groups {
		if len(g.Modules) == 0 {
			t.Fatalf("empty die group %s", g.Key)
		}
		total += len(g.Modules)
		for _, m := range g.Modules {
			if m.DieKey() != g.Key {
				t.Fatalf("module %s in wrong group %s", m.ID, g.Key)
			}
		}
	}
	if total != 28 {
		t.Fatalf("die groups cover %d modules, want 28", total)
	}
}

func TestHBM2Profile(t *testing.T) {
	for _, m := range HBM2Chips() {
		if m.Mfr != Samsung {
			t.Errorf("%s: tested HBM2 chips are Samsung", m.ID)
		}
		if m.Timing() != (ModuleSpec{Type: HBM2}).Timing() {
			t.Errorf("%s: HBM2 timing not applied", m.ID)
		}
	}
}

func TestManufacturerTempSlopeOrdering(t *testing.T) {
	// Obs 16: temperature sensitivity ordering Hynix > Micron > Samsung.
	h := Representative(SKHynix).Profile.TempSlopeKappa
	mi := Representative(Micron).Profile.TempSlopeKappa
	s := Representative(Samsung).Profile.TempSlopeKappa
	if !(h > mi && mi > s) {
		t.Fatalf("temperature slope ordering violated: %v %v %v", h, mi, s)
	}
}
