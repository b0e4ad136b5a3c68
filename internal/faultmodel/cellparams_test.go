package faultmodel

import (
	"math"
	"testing"
	"testing/quick"

	"columndisturb/internal/sim/rng"
)

// cellFault is the full parameter set of one cell, as refCell assembles it.
type cellFault struct {
	LambdaBase      float64
	Kappa           float64
	HammerThreshold float64
	Attractor       byte
	AntiCell        bool
}

// refCell is the straight-line per-cell formula, kept in the test so the
// lazy RowFaults accessors are pinned against independent arithmetic
// rather than against themselves.
func refCell(p *Params, seed uint64, bank, sub, row, col int) cellFault {
	b, s, r, c := uint64(bank), uint64(sub), uint64(row), uint64(col)
	wRow := math.Sqrt(p.KappaRowVarFrac)
	wCol := math.Sqrt(p.KappaColVarFrac)
	wCell := math.Sqrt(1 - p.KappaRowVarFrac - p.KappaColVarFrac)
	zK := wRow*keyedNorm(seed, streamKappaRow, b, s, r) +
		wCol*keyedNorm(seed, streamKappaCol, b, s, c) +
		wCell*keyedNorm(seed, streamKappaCell, b, s, r, c)
	wbRow := math.Sqrt(p.BaseRowVarFrac)
	wbCell := math.Sqrt(1 - p.BaseRowVarFrac)
	zB := wbRow*keyedNorm(seed, streamBaseRow, b, s, r) +
		wbCell*keyedNorm(seed, streamBaseCell, b, s, r, c)
	zH := keyedNorm(seed, streamHC, b, s, r, c)
	cf := cellFault{
		LambdaBase:      math.Exp(p.MuBase + p.SigmaBase*zB),
		Kappa:           math.Exp(p.MuKappa + p.SigmaKappa*zK),
		HammerThreshold: math.Exp(p.MuHC + p.SigmaHC*zH),
	}
	if keyedUniform(seed, streamAttractor, b, s, r, c) < 0.5 {
		cf.Attractor = 1
	}
	if p.AntiCellFraction > 0 &&
		keyedUniform(seed, streamAntiCell, b, s, r, c) < p.AntiCellFraction {
		cf.AntiCell = true
	}
	return cf
}

// refVRT is the straight-line per-cell VRT multiplier of a trial.
func refVRT(p *Params, seed uint64, bank, sub, row, col, trial int) float64 {
	if p.VRTProb <= 0 {
		return 1
	}
	u := keyedUniform(seed, streamVRT, uint64(bank), uint64(sub),
		uint64(row), uint64(col), uint64(trial))
	if u < p.VRTProb {
		return p.VRTFactor
	}
	return 1
}

// lazyCell assembles a cell's parameters through the RowFaults accessors.
func lazyCell(p *Params, seed uint64, bank, sub, row, col int) cellFault {
	norms := make([]float64, col+1)
	KappaColumnNorms(seed, bank, sub, norms)
	rf := p.Row(seed, bank, sub, row)
	var cf cellFault
	cf.LambdaBase, cf.Kappa = rf.Rates(col, norms[col])
	cf.HammerThreshold, cf.Attractor = rf.Hammer(col)
	cf.AntiCell = rf.Charged(col) == 0
	return cf
}

func TestCellDeterministic(t *testing.T) {
	p := Default()
	p.AntiCellFraction = 0.5
	if lazyCell(&p, 42, 1, 2, 3, 4) != lazyCell(&p, 42, 1, 2, 3, 4) {
		t.Fatal("a cell's parameters must be a pure function of its coordinates")
	}
	rf := p.Row(42, 1, 2, 3)
	if rf.VRT(4, 7) != rf.VRT(4, 7) {
		t.Fatal("VRT state must be a pure function of coordinates and trial")
	}
}

// TestRowFaultsMatchCell pins every lazy accessor to the straight per-cell
// formula bit for bit: the device's commit loop draws through them, and
// any drift would silently change every cell-explicit experiment.
func TestRowFaultsMatchCell(t *testing.T) {
	p := Default()
	p.AntiCellFraction = 0.05 // exercise the anti-cell branch too
	p.VRTProb = 0.3
	const cols = 512
	norms := make([]float64, cols)
	for _, at := range []struct {
		seed      uint64
		bank, sub int
	}{{42, 1, 2}, {7, 0, 0}, {1 << 40, 3, 7}} {
		hi := KappaColumnNorms(at.seed, at.bank, at.sub, norms)
		for row := 0; row < 6; row++ {
			rf := p.Row(at.seed, at.bank, at.sub, row)
			for col := 0; col < cols; col++ {
				want := refCell(&p, at.seed, at.bank, at.sub, row, col)
				if norms[col] > hi {
					t.Fatalf("column norm %v above the returned maximum %v", norms[col], hi)
				}
				lb, k := rf.Rates(col, norms[col])
				thr, att := rf.Hammer(col)
				anti := rf.Charged(col) == 0
				if lb != want.LambdaBase || k != want.Kappa || thr != want.HammerThreshold ||
					att != want.Attractor || anti != want.AntiCell {
					t.Fatalf("RowFaults diverges from the reference at %+v row %d col %d", at, row, col)
				}
				for trial := 0; trial < 3; trial++ {
					if rf.VRT(col, trial) != refVRT(&p, at.seed, at.bank, at.sub, row, col, trial) {
						t.Fatalf("VRT diverges from the reference at %+v row %d col %d trial %d", at, row, col, trial)
					}
				}
			}
		}
	}
}

func TestCellVariesWithCoordinates(t *testing.T) {
	p := Default()
	base := lazyCell(&p, 42, 1, 2, 3, 4)
	variants := []cellFault{
		lazyCell(&p, 43, 1, 2, 3, 4),
		lazyCell(&p, 42, 0, 2, 3, 4),
		lazyCell(&p, 42, 1, 0, 3, 4),
		lazyCell(&p, 42, 1, 2, 0, 4),
		lazyCell(&p, 42, 1, 2, 3, 0),
	}
	for i, v := range variants {
		if v.Kappa == base.Kappa && v.LambdaBase == base.LambdaBase {
			t.Errorf("variant %d identical to base cell", i)
		}
	}
}

func TestCellParametersPositive(t *testing.T) {
	p := Default()
	f := func(seed uint64, bank, sub, row, col uint16) bool {
		c := lazyCell(&p, seed, int(bank%8), int(sub%64), int(row%4096), int(col%8192))
		return c.LambdaBase > 0 && c.Kappa > 0 && c.HammerThreshold > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestSurvivalBound checks the survival skip at the threshold itself. For
// random rows it sets the scales so a cell's exact integral lies within
// ±1e-7 of ln2, split between the two terms near evenly, and requires
// that Survives never claims such a cell unless the integral is below
// ln2. It also requires the bound to claim cells whose terms sit 1e-5
// below half the threshold, so it cannot pass by claiming nothing.
func TestSurvivalBound(t *testing.T) {
	p := Default()
	r := rng.New(3)
	norms := make([]float64, 64)
	claimed := 0
	for i := 0; i < 4000; i++ {
		seed, bank, sub, row := r.Uint64(), r.Intn(4), r.Intn(8), r.Intn(1024)
		KappaColumnNorms(seed, bank, sub, norms)
		rf := p.Row(seed, bank, sub, row)
		col := r.Intn(len(norms))
		c := refCell(&p, seed, bank, sub, row, col)

		f := 0.5 + 2e-6*(r.Float64()-0.5)
		eps := 2e-7 * (r.Float64() - 0.5)
		baseScale := f * Ln2 * (1 + eps) / c.LambdaBase
		kapScale := (1 - f) * Ln2 * (1 + eps) / c.Kappa
		rf.SetBound(baseScale, kapScale, norms[col])
		if exact := c.LambdaBase*baseScale + c.Kappa*kapScale; rf.Survives(col) && exact >= Ln2 {
			t.Fatalf("Survives claims a cell whose integral is %v ≥ ln2 (seed %d bank %d sub %d row %d col %d)",
				exact, seed, bank, sub, row, col)
		}

		below := 0.5 * Ln2 * (1 - 1e-5)
		rf.SetBound(below/c.LambdaBase, below/c.Kappa, norms[col])
		if !rf.Survives(col) {
			t.Fatalf("Survives misses a cell with both terms at ½·ln2·(1−1e-5) (seed %d row %d col %d)", seed, row, col)
		}
		claimed++
	}
	if claimed == 0 {
		t.Fatal("no cell was claimed")
	}
}

// TestSurvivalBoundDisabled: a degenerate sigma or a scale that is not a
// positive number must switch the skip off, never claim a cell.
func TestSurvivalBoundDisabled(t *testing.T) {
	for _, mut := range []func(p *Params){
		func(p *Params) { p.SigmaBase = 0 },
		func(p *Params) { p.SigmaKappa = 0 },
		func(p *Params) { p.BaseRowVarFrac = 1 },
		func(p *Params) { p.KappaRowVarFrac, p.KappaColVarFrac = 0.5, 0.5 },
	} {
		p := Default()
		mut(&p)
		rf := p.Row(1, 0, 0, 0)
		rf.SetBound(1e-9, 1e-9, 0)
		if rf.Survives(0) {
			t.Fatalf("a degenerate parameter set must disable the skip: %+v", p)
		}
	}
	p := Default()
	rf := p.Row(1, 0, 0, 0)
	for _, s := range []float64{math.NaN(), math.Inf(1), -1} {
		rf.SetBound(s, 1e-9, 0)
		if rf.Survives(0) {
			t.Fatalf("base scale %v must disable the skip", s)
		}
		rf.SetBound(1e-9, s, 0)
		if rf.Survives(0) {
			t.Fatalf("coupling scale %v must disable the skip", s)
		}
	}
}

// TestSurvivalCut pins the cut's own guarantee on both tails and across
// the band where Phi rounds to 1: every uniform below a nonzero cut maps
// below t. Inside that band the cut may be 0, which only forgoes a skip.
func TestSurvivalCut(t *testing.T) {
	admits := func(tz float64) {
		c := survivalCut(tz)
		if c == 0 {
			return
		}
		u := math.Nextafter(min(c, 1), 0)
		if z := rng.InvPhi(u); !(z < tz) {
			t.Fatalf("t=%v: cut %v admits u=%v with InvPhi %v", tz, c, u, z)
		}
	}
	for tz := 5.0; tz < 9; tz += 1e-4 {
		admits(tz)
	}
	for _, tz := range []float64{-30, -8, -1, 0, 2.5, 5, 7, 7.9, 9, 40, math.Inf(1)} {
		if survivalCut(tz) == 0 {
			t.Fatalf("t=%v: no cut", tz)
		}
		admits(tz)
	}
	if survivalCut(math.NaN()) != 0 || survivalCut(math.Inf(-1)) != 0 {
		t.Fatal("NaN and -Inf must disable the cut")
	}
}

func TestCellLognormalMedians(t *testing.T) {
	p := Default()
	const n = 20000
	var logK, logB []float64
	for i := 0; i < n; i++ {
		c := refCell(&p, 7, 0, i%8, i/8%1024, i%512)
		logK = append(logK, math.Log(c.Kappa))
		logB = append(logB, math.Log(c.LambdaBase))
	}
	meanK := mean(logK)
	meanB := mean(logB)
	if math.Abs(meanK-p.MuKappa) > 0.05 {
		t.Fatalf("ln κ mean %v, want %v", meanK, p.MuKappa)
	}
	if math.Abs(meanB-p.MuBase) > 0.05 {
		t.Fatalf("ln λ_base mean %v, want %v", meanB, p.MuBase)
	}
	sdK := stddev(logK, meanK)
	if math.Abs(sdK-p.SigmaKappa) > 0.05 {
		t.Fatalf("ln κ stddev %v, want %v", sdK, p.SigmaKappa)
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64, m float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}

func TestRowCorrelationInKappa(t *testing.T) {
	// Cells sharing a physical row must have correlated κ (weak rows), and
	// the correlation should be near the configured row variance fraction.
	p := Default()
	const rows, cols = 400, 40
	var corrNum, varSum float64
	for r := 0; r < rows; r++ {
		var zs []float64
		for c := 0; c < cols; c++ {
			cell := refCell(&p, 11, 0, 0, r, c)
			zs = append(zs, (math.Log(cell.Kappa)-p.MuKappa)/p.SigmaKappa)
		}
		m := mean(zs)
		// Between-row variance accumulates the shared component.
		corrNum += m * m
		for _, z := range zs {
			varSum += z * z
		}
	}
	betweenRowVar := corrNum / rows
	totalVar := varSum / (rows * cols)
	// E[rowMean²] = rowFrac + (1-rowFrac-colFrac... cell part)/cols ≈ rowFrac + small
	if betweenRowVar < p.KappaRowVarFrac*0.6 || betweenRowVar > p.KappaRowVarFrac+0.15 {
		t.Fatalf("between-row variance %v inconsistent with row fraction %v",
			betweenRowVar, p.KappaRowVarFrac)
	}
	if math.Abs(totalVar-1) > 0.1 {
		t.Fatalf("total z variance %v, want ≈ 1", totalVar)
	}
}

func TestAttractorRoughlyBalanced(t *testing.T) {
	p := Default()
	ones := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if refCell(&p, 3, 0, 0, i/128, i%128).Attractor == 1 {
			ones++
		}
	}
	if ones < n*45/100 || ones > n*55/100 {
		t.Fatalf("attractor imbalance: %d/%d", ones, n)
	}
}

func TestAntiCellFraction(t *testing.T) {
	p := Default()
	if refCell(&p, 1, 0, 0, 0, 0).AntiCell {
		t.Fatal("default params must have no anti-cells")
	}
	p.AntiCellFraction = 0.3
	anti := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if refCell(&p, 5, 0, 0, i/128, i%128).AntiCell {
			anti++
		}
	}
	frac := float64(anti) / n
	if math.Abs(frac-0.3) > 0.03 {
		t.Fatalf("anti-cell fraction %v, want 0.3", frac)
	}
}

func TestVRTMultiplier(t *testing.T) {
	p := Default()
	weak := 0
	const trials = 20000
	for trial := 0; trial < trials; trial++ {
		m := refVRT(&p, 9, 0, 0, 5, 7, trial)
		switch m {
		case 1:
		case p.VRTFactor:
			weak++
		default:
			t.Fatalf("unexpected VRT multiplier %v", m)
		}
	}
	frac := float64(weak) / trials
	if math.Abs(frac-p.VRTProb) > 0.005 {
		t.Fatalf("VRT weak fraction %v, want %v", frac, p.VRTProb)
	}
	p.VRTProb = 0
	rf := p.Row(9, 0, 0, 5)
	if rf.VRT(7, 0) != 1 {
		t.Fatal("VRTProb=0 must disable VRT")
	}
}

func TestCalibrateHitsTargets(t *testing.T) {
	p := Default()
	target := CalibrationTarget{
		TimeToFirstCDms:  63.6,
		TimeToFirstRETms: 512,
		PopulationCells:  1 << 25,
	}
	p.Calibrate(target)
	// The expected extreme-κ cell must flip at exactly the CD target under
	// worst-case conditions (ρ = 1).
	zN := rng.ExpectedMaxNormalZ(target.PopulationCells)
	kappaMax := math.Exp(p.MuKappa + p.SigmaKappa*zN)
	if got := Ln2 / kappaMax; math.Abs(got-63.6) > 0.01 {
		t.Fatalf("calibrated CD first-flip %v ms, want 63.6", got)
	}
	// The retention-side first failure (competing κ@f(0.5) and base tails)
	// must land near the retention target.
	baseMax := math.Exp(p.MuBase + p.SigmaBase*zN)
	retRate := baseMax + p.RhoIdle()*kappaMax
	got := Ln2 / retRate
	if got < 350 || got > 650 {
		t.Fatalf("calibrated retention first failure %v ms, want ≈ 512", got)
	}
}

func TestCalibrateCDWeakModule(t *testing.T) {
	// A module whose CD is barely stronger than retention: the base floor
	// must keep λ_base meaningful.
	p := Default()
	p.Calibrate(CalibrationTarget{
		TimeToFirstCDms:  450,
		TimeToFirstRETms: 500,
		PopulationCells:  1 << 25,
	})
	zN := rng.ExpectedMaxNormalZ(1 << 25)
	baseMax := math.Exp(p.MuBase + p.SigmaBase*zN)
	if baseMax <= 0 || math.IsNaN(baseMax) {
		t.Fatal("calibration must keep a positive base mechanism")
	}
}
