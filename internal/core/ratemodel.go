// Package core is the statistical evaluation tier of the ColumnDisturb
// model — the paper's primary contribution rendered as a population model.
//
// The cell-explicit tier (internal/dram, driven by internal/charz)
// evaluates every cell through the command-level methodology; it is
// faithful but costs one pass per cell per experiment. The paper, however, characterizes 46 080
// subarrays across 28 modules under dozens of conditions. This package
// evaluates the same fault law (internal/faultmodel) in closed form:
//
//   - a cell's flip rate is r = λ_base·a_ret(T) + κ·ρ·a_cd(T), with λ_base
//     and κ lognormal across the population and ρ the access pattern's
//     effective coupling duty;
//   - the time to the first bitflip in a population of n cells is
//     ln2 / max(r), sampled exactly from the order-statistic distribution;
//   - bitflip counts are binomial draws of the per-cell flip probability,
//     conditioned on shared per-row variance components so blast-radius
//     shapes and weak-row clustering match the cell-explicit tier.
//
// Cross-validation tests check the two tiers agree.
package core

import (
	"math"

	"columndisturb/internal/faultmodel"
)

// 8-point Gauss–Hermite quadrature nodes/weights for ∫φ(z)g(z)dz =
// (1/√π)Σ w_i g(√2 x_i).
var (
	ghNodes = [8]float64{
		-2.9306374202572440, -1.9816567566958429, -1.1571937124467802, -0.3811869902073221,
		0.3811869902073221, 1.1571937124467802, 1.9816567566958429, 2.9306374202572440,
	}
	ghWeights = [8]float64{
		1.9960407221136762e-4, 1.7077983007413475e-2, 2.0780232581489188e-1, 6.6114701255824129e-1,
		6.6114701255824129e-1, 2.0780232581489188e-1, 1.7077983007413475e-2, 1.9960407221136762e-4,
	}
)

// RateModel is the distribution of per-cell flip rates r = b + k under one
// experimental condition, with ln b ~ N(MuB, SigmaB²) and ln k ~ N(MuK,
// SigmaK²) independent. Rates are in 1/ms; a cell flips within t ms iff
// r ≥ ln2/t.
type RateModel struct {
	MuB, SigmaB float64
	MuK, SigmaK float64
	// KDisabled marks conditions with zero coupling duty (ρ = 0): the rate
	// is pure λ_base.
	KDisabled bool
	// Variable retention time: a VRTProb fraction of cells sits in a weak
	// state with λ_base multiplied by VRTFactor, thickening the retention
	// tail at short intervals exactly as in the cell-explicit tier.
	VRTProb   float64
	VRTFactor float64
}

// NewRateModel builds the rate distribution for a module's cells at the
// given temperature and effective coupling duty ρ.
func NewRateModel(p *faultmodel.Params, tempC, rho float64) RateModel {
	m := RateModel{
		MuB:       p.MuBase + math.Log(p.BaseTempFactor(tempC)),
		SigmaB:    p.SigmaBase,
		SigmaK:    p.SigmaKappa,
		VRTProb:   p.VRTProb,
		VRTFactor: p.VRTFactor,
	}
	if rho <= 0 {
		m.KDisabled = true
		return m
	}
	m.MuK = p.MuKappa + math.Log(rho*p.KappaTempFactor(tempC))
	return m
}

// WithRowEffect conditions the model on shared per-row z-scores: the
// row-correlated variance component of each mechanism moves into the mean,
// leaving the residual spread. zRowK and zRowB are the row's standard
// normal scores for the coupling and base mechanisms.
func (m RateModel) WithRowEffect(p *faultmodel.Params, zRowK, zRowB float64) RateModel {
	out := m
	wK := math.Sqrt(p.KappaRowVarFrac)
	wB := math.Sqrt(p.BaseRowVarFrac)
	if !m.KDisabled {
		out.MuK = m.MuK + m.SigmaK*wK*zRowK
		out.SigmaK = m.SigmaK * math.Sqrt(1-p.KappaRowVarFrac)
	}
	out.MuB = m.MuB + m.SigmaB*wB*zRowB
	out.SigmaB = m.SigmaB * math.Sqrt(1-p.BaseRowVarFrac)
	return out
}

// Survival returns P(r > x): the probability a cell's flip rate exceeds x.
// Evaluated as E_z[ PhiC((ln(x − b(z)) − MuK)/SigmaK) ] by Gauss–Hermite
// quadrature over the base-rate component, with the region x ≤ b(z)
// contributing certainty. The VRT-weak subpopulation is mixed in with its
// λ_base shifted by ln(VRTFactor). Callers evaluating the same model many
// times (bisections, per-row sweeps) should build a survivalEval once
// instead — it hoists the quadrature's exponentials out of the loop.
func (m RateModel) Survival(x float64) float64 {
	e := newSurvivalEval(m, strictMode)
	return e.survival(x)
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ExpectedTTFms returns a deterministic estimate of the time to first
// bitflip over n cells, using the median-rank extreme of the population.
func (m RateModel) ExpectedTTFms(n int) float64 {
	if n < 1 {
		panic("core: ExpectedTTFms with n < 1")
	}
	p := (float64(n) - 0.375) / (float64(n) + 0.25)
	e := newSurvivalEval(m, strictMode)
	return faultmodel.Ln2 / e.quantileSurvival(1-p)
}
