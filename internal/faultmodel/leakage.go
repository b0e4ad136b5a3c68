package faultmodel

import "math"

// couplingLUTSamples is the resolution of the sampled coupling curve. At
// alpha ≈ 4.3 the worst-case linear-interpolation error of a 2048-interval
// table is ≈ 6e-7, three orders of magnitude below any calibrated rate's
// meaningful precision (TestCouplingLUTAccuracy pins 1e-5).
const couplingLUTSamples = 2048

// couplingLUT holds f(Δ) = (e^{αΔ}−1)/(e^{α}−1) sampled uniformly over
// Δ ∈ [0, 1] for one alpha.
type couplingLUT [couplingLUTSamples + 1]float64

// defaultCoupling is the process-wide sampled curve at defaultAlpha. It is
// built once at package initialization and never written afterwards, so
// every Params and every shard goroutine shares it race-free.
var defaultCoupling = newCouplingLUT(defaultAlpha)

func newCouplingLUT(alpha float64) *couplingLUT {
	l := new(couplingLUT)
	den := math.Expm1(alpha)
	for i := range l {
		l[i] = math.Expm1(alpha*float64(i)/couplingLUTSamples) / den
	}
	return l
}

func (l *couplingLUT) eval(dv float64) float64 {
	x := dv * couplingLUTSamples
	i := int(x)
	if i >= couplingLUTSamples {
		return 1
	}
	f := x - float64(i)
	return l[i] + f*(l[i+1]-l[i])
}

// Coupling evaluates the normalized coupling nonlinearity
// f(Δ) = (e^{αΔ} − 1)/(e^{α} − 1), clamped to Δ ∈ [0, 1]. f(0) = 0,
// f(1) = 1, and the superlinearity means a bitline held at GND disturbs a
// charged cell roughly an order of magnitude faster than the precharged
// VDD/2 level that retention failures see.
//
// At Default's alpha the two Expm1 calls collapse to an interpolation in
// the process-wide sampled curve. Any other Alpha (the ablation sweep
// mutates it) uses the exact formula.
func (p *Params) Coupling(dv float64) float64 {
	if dv <= 0 {
		return 0
	}
	if dv >= 1 {
		return 1
	}
	if p.Alpha == defaultAlpha {
		return defaultCoupling.eval(dv)
	}
	return math.Expm1(p.Alpha*dv) / math.Expm1(p.Alpha)
}

// deltaV is the voltage difference driving coupling leakage for a charged
// cell (stored V ≈ VDD) against a column at vCol.
func deltaV(vCol float64) float64 {
	d := 1 - vCol
	if d < 0 {
		return 0
	}
	return d
}

// RhoIdle is the effective coupling duty of an idle (precharged) bank:
// the column sits at VDD/2 the whole time. This is the retention-failure
// operating point.
func (p *Params) RhoIdle() float64 {
	return p.Coupling(deltaV(p.VPrecharge))
}

// RhoHammer is the effective coupling duty of the single-aggressor access
// pattern ACT–(tAggOn)–PRE–(tRP)–ACT…, where the aggressor drives the
// column to vDriven (in VDD units: 0 for a logic-0 aggressor bit, 1 for
// logic-1) during tAggOn and the column precharges to VDD/2 during tRP.
// The first DeadTimeNs of each driven phase contribute nothing (bitline
// settling).
func (p *Params) RhoHammer(tAggOnNs, tRPNs, vDriven float64) float64 {
	cycle := tAggOnNs + tRPNs
	if cycle <= 0 {
		return p.RhoIdle()
	}
	driven := tAggOnNs - p.DeadTimeNs
	if driven < 0 {
		driven = 0
	}
	eff := driven*p.Coupling(deltaV(vDriven)) + tRPNs*p.RhoIdle()
	return eff / cycle
}

// RhoTwoAggressor is the effective coupling duty of the two-aggressor
// pattern ACT R1–PRE–ACT R2–PRE…, with the two aggressors driving the
// column to v1 and v2 respectively (complementary data patterns in the
// paper's experiment: v1 = 0, v2 = 1). The column transitions
// v1 → VDD/2 → v2 → VDD/2, so with complementary aggressors only half the
// driven time is spent at full ΔV — the model's explanation of Obs 21.
func (p *Params) RhoTwoAggressor(tAggOnNs, tRPNs, v1, v2 float64) float64 {
	cycle := 2 * (tAggOnNs + tRPNs)
	if cycle <= 0 {
		return p.RhoIdle()
	}
	driven := tAggOnNs - p.DeadTimeNs
	if driven < 0 {
		driven = 0
	}
	eff := driven*(p.Coupling(deltaV(v1))+p.Coupling(deltaV(v2))) +
		2*tRPNs*p.RhoIdle()
	return eff / cycle
}

// RhoDuty is the effective coupling duty of a column held at vLow for a
// fraction fracLow of the time and precharged (VDD/2) for the remainder —
// the generic waveform family behind the Fig 10 average-column-voltage
// sweep. The corresponding AVG(V_COL) is fracLow·vLow + (1−fracLow)·VDD/2.
func (p *Params) RhoDuty(fracLow, vLow float64) float64 {
	if fracLow < 0 {
		fracLow = 0
	}
	if fracLow > 1 {
		fracLow = 1
	}
	return fracLow*p.Coupling(deltaV(vLow)) + (1-fracLow)*p.RhoIdle()
}

// Flips reports whether the accumulated decay integral crosses the sense
// threshold (V < VDD/2).
func Flips(decayIntegral float64) bool {
	return decayIntegral >= Ln2
}

// TimeToFlipMs returns the time until a charged cell flips under a constant
// effective rate: λ_base + ρ·κ (with temperature factors applied). Returns
// +Inf for a non-leaking cell.
func (p *Params) TimeToFlipMs(lambdaBase, kappa, rho, tempC float64) float64 {
	rate := lambdaBase*p.BaseTempFactor(tempC) + kappa*rho*p.KappaTempFactor(tempC)
	if rate <= 0 {
		return math.Inf(1)
	}
	return Ln2 / rate
}

// PressEquivalentActs converts numActs activations with a given tAggOn into
// RowHammer-equivalent activations: keeping the row open beyond the
// reference tRAS multiplies the per-activation damage sublinearly
// ((tAggOn/tRAS)^γ), the standard RowPress equivalence.
func (p *Params) PressEquivalentActs(numActs int, tAggOnNs float64) float64 {
	if numActs <= 0 {
		return 0
	}
	factor := 1.0
	if tAggOnNs > p.PressRefNs {
		factor = math.Pow(tAggOnNs/p.PressRefNs, p.PressGamma)
	}
	return float64(numActs) * factor
}
