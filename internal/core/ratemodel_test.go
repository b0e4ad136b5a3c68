package core

import (
	"math"
	"testing"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

func calibrated(cdMs, retMs float64, cells int) *faultmodel.Params {
	p := faultmodel.Default()
	p.VRTProb = 0
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  cdMs,
		TimeToFirstRETms: retMs,
		PopulationCells:  cells,
	})
	return &p
}

func TestSurvivalMonotoneDecreasing(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	m := NewRateModel(p, 85, 1)
	prev := 1.0
	for _, x := range []float64{1e-8, 1e-6, 1e-4, 1e-2, 1, 100} {
		s := m.Survival(x)
		if s > prev+1e-12 {
			t.Fatalf("survival not decreasing at %v: %v > %v", x, s, prev)
		}
		if s < 0 || s > 1 {
			t.Fatalf("survival out of range: %v", s)
		}
		prev = s
	}
	if m.Survival(0) != 1 || m.Survival(-1) != 1 {
		t.Fatal("survival at non-positive rate must be 1")
	}
}

func TestFlipProbIncreasingInTime(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	e := newSurvivalEval(NewRateModel(p, 85, 1), strictMode)
	// A cell flips within t ms iff its rate exceeds ln2/t; zero duration
	// is the threshold +Inf.
	if e.survival(math.Inf(1)) != 0 {
		t.Fatal("zero-duration flip probability must be 0")
	}
	prev := 0.0
	for _, tm := range []float64{1, 10, 100, 1000, 10000} {
		fp := e.survival(faultmodel.Ln2 / tm)
		if fp < prev {
			t.Fatalf("flip probability not increasing at %v ms", tm)
		}
		prev = fp
	}
}

func TestKDisabledMatchesPureLognormal(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	m := NewRateModel(p, 85, 0)
	if !m.KDisabled {
		t.Fatal("rho=0 should disable the coupling mechanism")
	}
	for _, x := range []float64{1e-6, 1e-4, 1e-2} {
		want := rng.PhiC((math.Log(x) - m.MuB) / m.SigmaB)
		if got := m.Survival(x); math.Abs(got-want) > 1e-12 {
			t.Fatalf("KDisabled survival mismatch at %v: %v vs %v", x, got, want)
		}
	}
}

func TestQuantileInvertsSurvival(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	m := NewRateModel(p, 85, 1)
	e := newSurvivalEval(m, strictMode)
	for _, s := range []float64{1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9} {
		x := e.quantileSurvival(s)
		back := m.Survival(x)
		if math.Abs(back-s) > 1e-6*math.Max(s, 1e-9)+1e-10 {
			t.Fatalf("Survival(Quantile(%g)) = %g", s, back)
		}
	}
}

func TestSampleMaxRateMatchesExpectedTTF(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	m := NewRateModel(p, 85, 1)
	e := newSurvivalEval(m, strictMode)
	r := rng.New(1)
	const n = 1 << 20
	const reps = 300
	var sum float64
	for i := 0; i < reps; i++ {
		sum += faultmodel.Ln2 / e.sampleMaxRate(n, r)
	}
	mc := sum / reps
	est := m.ExpectedTTFms(n)
	if mc < est*0.8 || mc > est*1.3 {
		t.Fatalf("MC TTF %v vs expected %v", mc, est)
	}
}

func TestCalibratedTTFHitsTarget(t *testing.T) {
	// The full pipeline: calibrate a module to a 64 ms first CD flip over
	// its population, then ask the statistical tier for the expected TTF
	// under worst-case conditions. The two must agree.
	const cells = 1 << 25
	p := calibrated(64, 512, cells)
	m := NewRateModel(p, 85, p.RhoHammer(70200, 14, 0))
	got := m.ExpectedTTFms(cells)
	if got < 64*0.85 || got > 64*1.2 {
		t.Fatalf("expected TTF %v ms, calibrated for 64", got)
	}
	// Retention-only TTF must land near the 512 ms anchor.
	ret := NewRateModel(p, 85, p.RhoIdle())
	gotRet := ret.ExpectedTTFms(cells)
	if gotRet < 512*0.6 || gotRet > 512*1.5 {
		t.Fatalf("expected retention TTF %v ms, calibrated for 512", gotRet)
	}
}

func TestRowEffectPreservesTotalProbability(t *testing.T) {
	// Law of total probability: averaging the row-conditional survival over
	// the row effect distribution must recover the unconditional survival.
	p := calibrated(64, 512, 1<<20)
	m := NewRateModel(p, 85, 1)
	x := faultmodel.Ln2 / 256 // rate threshold for a 256 ms experiment
	r := rng.New(7)
	const reps = 4000
	sum := 0.0
	for i := 0; i < reps; i++ {
		cm := m.WithRowEffect(p, r.Norm(), r.Norm())
		sum += cm.Survival(x)
	}
	avg := sum / reps
	want := m.Survival(x)
	if want <= 0 {
		t.Skip("threshold too deep for this configuration")
	}
	if avg < want*0.7 || avg > want*1.4 {
		t.Fatalf("row-effect average %v vs unconditional %v", avg, want)
	}
}

func TestTemperatureShiftsModel(t *testing.T) {
	p := calibrated(64, 512, 1<<20)
	hot := NewRateModel(p, 95, 1)
	ref := NewRateModel(p, 85, 1)
	cold := NewRateModel(p, 45, 1)
	x := faultmodel.Ln2 / 128
	if !(hot.Survival(x) > ref.Survival(x) && ref.Survival(x) > cold.Survival(x)) {
		t.Fatal("higher temperature must increase flip probability (Obs 16)")
	}
}
