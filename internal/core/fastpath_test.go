package core

import (
	"math"
	"testing"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// refSurvival is the pre-fastpath evaluation: the literal 8-node quadrature
// with per-node exponentials and no tail cutoffs. The fast path must agree
// with it to float64 working precision.
func refSurvival(m RateModel, x float64) float64 {
	refAt := func(muB float64) float64 {
		lx := math.Log(x)
		if m.KDisabled {
			return rng.PhiC((lx - muB) / m.SigmaB)
		}
		sum := 0.0
		for i := 0; i < 8; i++ {
			z := math.Sqrt2 * ghNodes[i]
			b := math.Exp(muB + m.SigmaB*z)
			var p float64
			if b >= x {
				p = 1
			} else {
				p = rng.PhiC((math.Log(x-b) - m.MuK) / m.SigmaK)
			}
			sum += ghWeights[i] * p
		}
		return clamp01(sum * invSqrtPi)
	}
	if x <= 0 {
		return 1
	}
	if m.VRTProb <= 0 || m.VRTFactor == 1 {
		return refAt(m.MuB)
	}
	weak := refAt(m.MuB + math.Log(m.VRTFactor))
	normal := refAt(m.MuB)
	return clamp01((1-m.VRTProb)*normal + m.VRTProb*weak)
}

// TestSurvivalEvalMatches sweeps realistic parameter ranges and checks the
// prepared evaluator agrees with the reference quadrature within 1e-12
// absolute — the factored exponentials and tail cutoffs may differ in the
// last ulps, never more.
func TestSurvivalEvalMatches(t *testing.T) {
	pv := faultmodel.Default()
	p := &pv
	for _, tempC := range []float64{45, 65, 85, 95} {
		for _, rho := range []float64{0, 1e-4, 1e-2, 0.3, 1} {
			m := NewRateModel(p, tempC, rho)
			for _, withRow := range []bool{false, true} {
				eval := m
				if withRow {
					eval = m.WithRowEffect(p, 1.7, -0.9)
				}
				e := newSurvivalEval(eval)
				for _, tMs := range []float64{1, 64, 512, 1024, 16000, 1e6} {
					x := faultmodel.Ln2 / tMs
					got := e.survival(x)
					want := refSurvival(eval, x)
					if diff := math.Abs(got - want); diff > 1e-12 {
						t.Errorf("T=%v rho=%v row=%v t=%vms: eval %.17g ref %.17g (diff %g)",
							tempC, rho, withRow, tMs, got, want, diff)
					}
				}
			}
		}
	}
}

// TestSurvivalRowMatchesWithRowEffect checks the per-row shift path of the
// prepared evaluator (used by CountsSampler) against building the shifted
// model explicitly — same class evaluator, many rows.
func TestSurvivalRowMatchesWithRowEffect(t *testing.T) {
	pv := faultmodel.Default()
	p := &pv
	base := NewRateModel(p, 65, 0.2)
	resid := base.WithRowEffect(p, 0, 0)
	e := newSurvivalEval(resid)
	dMuB := base.SigmaB * math.Sqrt(p.BaseRowVarFrac)
	dMuK := base.SigmaK * math.Sqrt(p.KappaRowVarFrac)
	r := rng.New(7)
	for i := 0; i < 200; i++ {
		zK, zB := r.Norm(), r.Norm()
		x := faultmodel.Ln2 / (1 + 2000*r.Float64())
		got := e.survivalRow(x, e.muB+dMuB*zB, e.muK+dMuK*zK)
		want := refSurvival(base.WithRowEffect(p, zK, zB), x)
		if diff := math.Abs(got - want); diff > 1e-12 {
			t.Fatalf("row %d: eval %.17g ref %.17g (diff %g)", i, got, want, diff)
		}
	}
}

// TestFastPhiCAccuracy pins the Abramowitz–Stegun approximation used on the
// binomial-probability path to its published absolute error bound across the
// loose-cutoff operating range.
func TestFastPhiCAccuracy(t *testing.T) {
	worst := 0.0
	for z := -6.0; z <= 6.0; z += 1.0 / 512 {
		if diff := math.Abs(fastPhiC(z) - rng.PhiC(z)); diff > worst {
			worst = diff
		}
	}
	if worst > 7.5e-8 {
		t.Fatalf("fastPhiC worst-case error %g exceeds 7.5e-8", worst)
	}
}

// TestTTFSamplerMatchesSampleTTF pins the reuse contract: construction
// draws nothing from the RNG, so one sampler reused across draws consumes
// the stream and returns values exactly as a fresh sampler per draw does.
func TestTTFSamplerMatchesSampleTTF(t *testing.T) {
	pv := faultmodel.Default()
	p := &pv
	cfg := SubarrayConfig{
		Params: p, TempC: 65, Rows: 512, Cols: 1024,
		Classes: []ColumnClass{{Frac: 0.5, Rho: 0.1}, {Frac: 0.25, Rho: p.RhoIdle()}},
	}
	s := NewTTFSampler(cfg)
	r1, r2 := rng.New(42), rng.New(42)
	for i := 0; i < 50; i++ {
		a, okA := s.Sample(512, r1)
		b, okB := NewTTFSampler(cfg).Sample(512, r2)
		if a != b || okA != okB {
			t.Fatalf("sample %d: reused sampler (%v,%v) != fresh sampler (%v,%v)", i, a, okA, b, okB)
		}
	}
}
