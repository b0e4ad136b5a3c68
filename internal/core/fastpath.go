package core

import (
	"math"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// Profile-guided fast path for the survival quadrature. RateModel.Survival
// dominates every statistical sweep (CountsSampler and the TTF bisections
// are >90% of a full registry run), and most of its cost is transcendental:
// a direct evaluation pays eight math.Exp calls for the base-rate nodes plus
// one log and one PhiC per node for the coupling tail. survivalEval hoists
// the evaluation-invariant parts out of the per-call loop:
//
//   - the quadrature's exp factors split as b_j = e^muB · e^(SigmaB·√2·x_j);
//     the second factor depends only on SigmaB and is precomputed once, so a
//     bisection (fixed model, varying x) pays zero exps per evaluation and a
//     per-row sweep (varying muB) pays one;
//   - the VRT-weak mixture scales the same nodes by VRTFactor instead of
//     re-exponentiating a shifted muB;
//   - PhiC tail cutoffs: the quadrature argument is strictly decreasing in
//     the node index, so once it falls below phiCOne the remaining nodes all
//     contribute their full weight (suffix sums, precomputed), and arguments
//     above phiCZero contribute nothing. PhiC(phiCOne) rounds to exactly 1.0
//     in float64 and PhiC(phiCZero) < 1e-17, so the cutoffs change results
//     by less than the quadrature's own truncation error;
//   - the upper-tail prefix skip: in exact arithmetic a node's argument is
//     at or above cutHi exactly when x − b_j ≥ exp(muK + cutHi·SigmaK), and
//     x − b_j decreases in j, so the upper-tail nodes form a leading run.
//     survivalOne first advances past the leading nodes with x − b_j ≥ T,
//     where T = exp(muK + cutHi·SigmaK)·(1+skipSlack), comparing instead of
//     taking a log. The slack (1e-9 in log space) keeps every skipped node's
//     computed argument at or above cutHi despite the few-ulp rounding of
//     exp and of the log (math.Log, or looseLog's 4 ulp in loose mode), so
//     the skip drops only nodes the loop would have discarded anyway, the
//     sum's terms and order are unchanged and the result is bit-identical;
//     nodes within the slack of the cutoff still take the log. A per-row
//     flip probability that is exactly 0 (most rows of a blast-radius
//     sweep) then costs one exp for T instead of eight logs, sixteen under
//     the VRT mixture, whose components share T;
//   - the tabulated loose kernel: loose mode evaluates fastPhiC by cubic
//     Hermite interpolation in a process-wide table of its values and
//     derivatives (loosePhiC), mirrored at 0 as fastPhiC mirrors, with no
//     exp. TestLoosePhiCTable pins it within 1e-12 of fastPhiC (3.4e-13
//     absolute and 6e-10 relative measured), inside the relative 1e-7 on
//     every flip probability that still leaves every report byte-identical;
//   - the table-driven loose log: loose mode takes each node's log with
//     looseLog, a 256-bucket table of reciprocals and logs plus a degree-5
//     log1p polynomial, with no division and no libm call. TestLooseLog
//     pins it within max(4 ulp, 1e-15 absolute) of math.Log (3 ulp and
//     3.3e-16 absolute measured over 2e7 random arguments); strict mode,
//     the kDisabled branch and setZeroBound keep math.Log;
//   - the zero-row skip: CountsSampler tests each class's zero-row bound
//     (setZeroBound) on the row's z-scores before calling survivalRow. A
//     row the bound covers has every node in the upper tail, so its flip
//     probability is exactly 0 and Binomial(n, 0) draws nothing; skipping
//     it costs three compares instead of two exps and the node loop, and
//     changes no draw. TestZeroRowBound and FuzzZeroRowBound check that
//     survivalRow returns exactly 0 wherever the bound skips.
//
// In strict mode results agree with the pre-fastpath evaluation to ~1e-15
// relative (the factored exponentials differ in the last ulp);
// TestSurvivalEvalMatches pins the agreement. Loose mode trades that for
// fastPhiC's 7.5e-8 absolute error. TestSurvivalRowSkipBitExact and
// FuzzSurvivalRowSkip pin the prefix skip to the loop without it, bit for
// bit.

const (
	invSqrtPi = 0.5641895835477563
	// phiCZero is the argument above which PhiC is treated as 0
	// (PhiC(8.6) ≈ 4e-18, below float64 resolution of the clamped sum).
	phiCZero = 8.6
	// phiCOne is the argument below which PhiC rounds to exactly 1.0 in
	// float64 (PhiC(-8.3) = 1 − 5e-17).
	phiCOne = -8.3
	// phiCZeroLoose/phiCOneLoose are the relaxed cutoffs for callers that
	// only need absolute accuracy — binomial flip probabilities, where
	// PhiC(5.7) ≈ 6e-9 is orders of magnitude below the sampling noise.
	// Quantile inversion (TTF) keeps the strict cutoffs: it inverts tail
	// probabilities down to ~1e-12, where relative accuracy matters.
	phiCZeroLoose = 5.7
	phiCOneLoose  = -5.7
	// skipSlack is the relative margin of the upper-tail skip threshold T:
	// ln(1+skipSlack) ≈ 1e-9 in log space, far above the few-ulp rounding of
	// exp, log (looseLog's 4 ulp included) and the argument's affine map
	// over the range skipThreshold admits.
	skipSlack = 1e-9
)

// evalMode selects a survivalEval's PhiC kernel and tail cutoffs.
type evalMode uint8

const (
	// strictMode keeps relative tail accuracy: rng.PhiC with the strict
	// cutoffs, as quantile inversion (TTF) needs.
	strictMode evalMode = iota
	// looseMode needs absolute accuracy only: the tabulated fastPhiC
	// (loosePhiC) and log (looseLog) with the loose cutoffs, for binomial
	// flip probabilities.
	looseMode
)

// survivalEval is a RateModel prepared for repeated Survival evaluation.
// The zero value is not usable; build with newSurvivalEval.
type survivalEval struct {
	kDisabled            bool
	muB, muK             float64
	sigmaB, sigmaK       float64
	invSigmaB, invSigmaK float64
	ebBase               float64    // exp(muB)
	eNode                [8]float64 // exp(SigmaB·√2·node_j), ascending
	suffixW              [8]float64 // Σ_{i≥j} ghWeights[i]
	vrtProb, vrtFactor   float64
	lnVRT                float64
	cutHi, cutLo         float64 // PhiC tail cutoffs of the mode
	loose                bool    // looseMode: loosePhiC, looseLog + loose cutoffs
	skipT                float64 // skipThreshold(muK)
}

// Abramowitz–Stegun 26.2.17: PhiC(z) ≈ φ(z)·(a1·t + … + a5·t⁵) with
// t = 1/(1 + asK·z), for z ≥ 0.
const (
	asK                          = 0.2316419
	asA1, asA2, asA3, asA4, asA5 = 0.319381530, -0.356563782, 1.781477937, -1.821255978, 1.330274429
	invSqrt2Pi                   = 0.3989422804014327
)

// fastPhiC approximates the complementary normal CDF with absolute error
// below 7.5e-8 (Abramowitz–Stegun 26.2.17): one exp and a degree-5
// polynomial, roughly a third of math.Erfc's cost. Only the loose
// (binomial-probability) evaluation mode uses it, through loosePhiC's
// table — quantile inversion needs relative tail accuracy and stays on
// rng.PhiC.
func fastPhiC(z float64) float64 {
	neg := z < 0
	if neg {
		z = -z
	}
	t := 1 / (1 + asK*z)
	poly := t * (asA1 + t*(asA2+t*(asA3+t*(asA4+t*asA5))))
	p := invSqrt2Pi * math.Exp(-0.5*z*z) * poly
	if neg {
		return 1 - p
	}
	return p
}

// The loose kernel's table: fastPhiC itself (not the exact PhiC, so the
// two kernels agree far below the binomial draws' resolution) sampled with
// its derivative at 1/phiCTableScale steps over [0, phiCTableMax], the
// upper half only. fastPhiC's polynomial fit steps by about 1e-9 at z = 0,
// where it mirrors, so a table that interpolated across 0 would carry that
// step as error; the mirrored table is within 1e-12 of fastPhiC
// everywhere (TestLoosePhiCTable).
const (
	phiCTableScale = 256
	phiCTableMax   = 5.75 // just past phiCZeroLoose
	phiCTableKnots = 1473 // phiCTableMax·phiCTableScale + 1
)

// phiCKnot is one knot of the loose kernel's table: fastPhiC's value and
// its derivative times the knot spacing.
type phiCKnot struct{ p, m float64 }

// loosePhiCTable is built once at package initialization and never written
// afterwards, so every sampler and shard goroutine shares it race-free.
var loosePhiCTable = newLoosePhiCTable()

func newLoosePhiCTable() *[phiCTableKnots]phiCKnot {
	tab := new([phiCTableKnots]phiCKnot)
	for i := range tab {
		z := float64(i) / phiCTableScale
		t := 1 / (1 + asK*z)
		poly := t * (asA1 + t*(asA2+t*(asA3+t*(asA4+t*asA5))))
		dpoly := asA1 + t*(2*asA2+t*(3*asA3+t*(4*asA4+t*5*asA5)))
		// d/dz of φ(z)·poly(t), with dt/dz = −asK·t².
		deriv := invSqrt2Pi * math.Exp(-0.5*z*z) * (-z*poly - asK*t*t*dpoly)
		tab[i] = phiCKnot{p: fastPhiC(z), m: deriv / phiCTableScale}
	}
	return tab
}

// loosePhiC is the loose mode's PhiC kernel: fastPhiC by cubic Hermite
// interpolation in loosePhiCTable, mirrored as 1 − p below 0 as fastPhiC
// mirrors. NaN, ±Inf and |z| ≥ phiCTableMax fall back to fastPhiC.
func loosePhiC(z float64) float64 {
	az := math.Abs(z)
	if !(az < phiCTableMax) {
		return fastPhiC(z)
	}
	u := az * phiCTableScale
	i := int(u)
	f := u - float64(i)
	k0, k1 := &loosePhiCTable[i], &loosePhiCTable[i+1]
	dp := k1.p - k0.p
	c2 := 3*dp - 2*k0.m - k1.m
	c3 := k0.m + k1.m - 2*dp
	p := k0.p + f*(k0.m+f*(c2+f*c3))
	if z < 0 {
		return 1 - p
	}
	return p
}

// The loose log kernel's table: one entry per bucket of the top
// logTableBits mantissa bits, holding 1/c for the bucket midpoint c and
// the log of that reciprocal's exact inverse, so the rounding of 1/c does
// not enter the result.
const (
	logTableBits = 8
	logTableSize = 1 << logTableBits

	fracBits = 52
	fracMask = 1<<fracBits - 1
	expBias  = 1023
)

// logBucket is one entry of looseLogTable.
type logBucket struct{ inv, ln float64 }

// looseLogTable is built once at package initialization and never written
// afterwards, as loosePhiCTable is.
var looseLogTable = newLooseLogTable()

func newLooseLogTable() *[logTableSize]logBucket {
	tab := new([logTableSize]logBucket)
	for i := range tab {
		inv := 1 / (1 + (float64(i)+0.5)/logTableSize)
		tab[i] = logBucket{inv: inv, ln: -math.Log(inv)}
	}
	return tab
}

// looseLog is the loose mode's log kernel. It splits y = 2^k·m with m in
// [1, 2), looks up the bucket of m's top eight bits, and returns
// k·ln2 + ln c + log1p(r) for r = m/c − 1, |r| < 2⁻⁹, with log1p as its
// degree-5 Taylor polynomial (truncation below 1e-17). TestLooseLog pins it
// within max(4 ulp, 1e-15) of math.Log. Zero, subnormal, negative, ±Inf
// and NaN arguments fall back to math.Log.
func looseLog(y float64) float64 {
	bits := math.Float64bits(y)
	// A positive normal y has a biased exponent in [1, 0x7fe] and a clear
	// sign bit. Subtracting 1<<fracBits maps exactly those to values below
	// the bound: zero and subnormals wrap around, and the sign bit, 0x7ff
	// exponents (±Inf, NaN) and negatives land at or above it.
	if bits-1<<fracBits >= 0x7fe<<fracBits {
		return math.Log(y)
	}
	k := float64(int(bits>>fracBits) - expBias)
	b := &looseLogTable[(bits>>(fracBits-logTableBits))&(logTableSize-1)]
	m := math.Float64frombits(bits&fracMask | expBias<<fracBits)
	r := m*b.inv - 1
	p := r * r * (-0.5 + r*(1.0/3+r*(-0.25+r*0.2)))
	return (k*math.Ln2 + b.ln) + (r + p)
}

func newSurvivalEval(m RateModel, mode evalMode) survivalEval {
	e := survivalEval{
		kDisabled: m.KDisabled,
		muB:       m.MuB, muK: m.MuK,
		sigmaB: m.SigmaB, sigmaK: m.SigmaK,
		vrtProb: m.VRTProb, vrtFactor: m.VRTFactor,
		cutHi: phiCZero, cutLo: phiCOne,
	}
	if mode == looseMode {
		e.cutHi, e.cutLo = phiCZeroLoose, phiCOneLoose
		e.loose = true
	}
	if m.SigmaB != 0 {
		e.invSigmaB = 1 / m.SigmaB
	}
	if m.SigmaK != 0 {
		e.invSigmaK = 1 / m.SigmaK
	}
	e.ebBase = math.Exp(m.MuB)
	for j := 0; j < 8; j++ {
		e.eNode[j] = math.Exp(m.SigmaB * math.Sqrt2 * ghNodes[j])
	}
	w := 0.0
	for j := 7; j >= 0; j-- {
		w += ghWeights[j]
		e.suffixW[j] = w
	}
	if e.vrtProb > 0 && e.vrtFactor != 1 {
		e.lnVRT = math.Log(e.vrtFactor)
	}
	e.skipT = e.skipThreshold(m.MuK)
	return e
}

// skipThreshold returns the upper-tail skip threshold T for location muK:
// every node with x − b_j ≥ T has a computed PhiC argument ≥ cutHi. It
// returns +Inf, which disables the skip, where the slack argument does not
// hold: a disabled coupling term, a non-positive SigmaK, |muK| too large for
// ulp(muK) to stay below the slack, or T outside exp's normal range.
func (e *survivalEval) skipThreshold(muK float64) float64 {
	y := muK + e.cutHi*e.sigmaK
	if e.kDisabled || !(e.sigmaK > 0) || !(math.Abs(muK) < 700) || !(math.Abs(y) < 700) {
		return math.Inf(1)
	}
	return math.Exp(y) * (1 + skipSlack)
}

// survival evaluates P(r > x) for the prepared model (no row shifts).
func (e *survivalEval) survival(x float64) float64 {
	return e.survivalRow(x, e.muB, e.muK)
}

// survivalRow evaluates P(r > x) with the model's location parameters
// shifted to (muB, muK) — the per-row conditioning of CountsSampler, where
// the residual sigmas (and therefore eNode) are row-invariant.
func (e *survivalEval) survivalRow(x, muB, muK float64) float64 {
	if x <= 0 {
		return 1
	}
	var eb float64
	if muB == e.muB {
		eb = e.ebBase
	} else {
		eb = math.Exp(muB)
	}
	var t float64
	if muK == e.muK {
		t = e.skipT
	} else {
		t = e.skipThreshold(muK)
	}
	if e.vrtProb <= 0 || e.vrtFactor == 1 {
		return e.survivalOne(x, eb, muB, muK, t)
	}
	normal := e.survivalOne(x, eb, muB, muK, t)
	weak := e.survivalOne(x, eb*e.vrtFactor, muB+e.lnVRT, muK, t)
	return clamp01((1-e.vrtProb)*normal + e.vrtProb*weak)
}

// survivalOne evaluates one mixture component: eb = exp(muB) is passed so
// the VRT branch can scale rather than re-exponentiate, and t is
// skipThreshold(muK), which both components share.
func (e *survivalEval) survivalOne(x, eb, muB, muK, t float64) float64 {
	if e.kDisabled {
		return rng.PhiC((math.Log(x) - muB) * e.invSigmaB)
	}
	// x − b_j decreases in j, so the nodes certainly in the upper tail
	// form a leading run; skipping it leaves the sum's terms and order as
	// the loop below would produce them.
	j := 0
	for j < 8 && x-eb*e.eNode[j] >= t {
		j++
	}
	sum := 0.0
	for ; j < 8; j++ {
		b := eb * e.eNode[j]
		if b >= x {
			// Nodes are ascending in b: every remaining node is certain.
			sum += e.suffixW[j]
			break
		}
		var lnD float64
		if e.loose {
			lnD = looseLog(x - b)
		} else {
			lnD = math.Log(x - b)
		}
		a := (lnD - muK) * e.invSigmaK
		if a >= e.cutHi {
			continue // upper tail: below the caller's accuracy floor
		}
		if a <= e.cutLo {
			// The argument decreases with the node index: every remaining
			// node is in the lower tail where PhiC rounds to 1.
			sum += e.suffixW[j]
			break
		}
		if e.loose {
			sum += ghWeights[j] * loosePhiC(a)
		} else {
			sum += ghWeights[j] * rng.PhiC(a)
		}
	}
	return clamp01(sum * invSqrtPi)
}

// sampleMaxRate draws the maximum flip rate over a population of n cells:
// it solves survival(x) = s for the order-statistic tail probability
// s = 1 − u^(1/n).
func (e *survivalEval) sampleMaxRate(n int, r *rng.Rand) float64 {
	if n < 1 {
		panic("core: sampleMaxRate with n < 1")
	}
	u := r.OpenFloat64()
	s := -math.Expm1(math.Log(u) / float64(n))
	if s <= 0 {
		s = math.SmallestNonzeroFloat64
	}
	return e.quantileSurvival(s)
}

// quantileSurvival inverts survival: returns x with Survival(x) = s. The
// prepared nodes make each bisection step exp-free.
func (e *survivalEval) quantileSurvival(s float64) float64 {
	// Bracket in ln-space around both mechanisms' supports.
	lo := e.muB - 12*e.sigmaB
	hi := e.muB + 12*e.sigmaB
	if !e.kDisabled {
		if l := e.muK - 12*e.sigmaK; l < lo {
			lo = l
		}
		if h := e.muK + 12*e.sigmaK; h > hi {
			hi = h
		}
	}
	// Survival is decreasing in x. Expand the bracket defensively.
	for e.survival(math.Exp(lo)) < s && lo > -200 {
		lo -= 4
	}
	for e.survival(math.Exp(hi)) > s && hi < 200 {
		hi += 4
	}
	// Stop once the ln-space bracket is below 1e-9 (x resolved to ~1e-9
	// relative, far inside every consumer's precision); the fixed 60-pass
	// loop this replaces spent half its iterations past float64 utility.
	for i := 0; i < 60 && hi-lo > 1e-9; i++ {
		mid := 0.5 * (lo + hi)
		if e.survival(math.Exp(mid)) > s {
			lo = mid
		} else {
			hi = mid
		}
	}
	return math.Exp(0.5 * (lo + hi))
}

// classEval is one column class of a subarray experiment prepared for the
// per-row sweep: the residual-variance survival evaluator, the per-unit
// row-effect shifts of the location parameters, and the zero-row bound.
type classEval struct {
	eval       survivalEval
	dMuB, dMuK float64
	cells      int
	// The zero-row bound (setZeroBound): zeroRow holds where zB ≤ zeroZR,
	// zK ≤ zeroGL and zK ≤ zeroC0 + zeroSlope·zB. Disabled, zeroZR is NaN,
	// which no zB is at or below.
	zeroZR, zeroGL    float64
	zeroC0, zeroSlope float64
}

const (
	// zeroRowMargin is the zero-row bound's margin in log space, as the
	// cell tier's survival bound keeps: far above the few-ulp rounding of
	// the row's location shifts, exp, log and the chord itself.
	zeroRowMargin = 1e-6
	// zeroChordU is the binding node's share of x, b_max/x, at the chord's
	// right end: x − b_max stays at least x/3 there, so the subtraction
	// cannot cancel the margin away.
	zeroChordU = 2.0 / 3
	// zeroChordWidth is the chord's span in zB; with zeroChordU it keeps
	// about 95% of a small sweep's provably-zero rows.
	zeroChordWidth = 5
)

// setZeroBound prepares the class's zero-row bound at threshold x. With a
// coupling term, survivalRow is exactly 0 when every node of every mixture
// component has a PhiC argument ≥ cutHi, and the binding node is the
// largest base rate b_max (node 7, scaled by VRTFactor in the weak
// component). In (zB, zK) that holds for zK ≤ g(zB) with
//
//	g(zB) = (ln(x − b_max(zB)) − muK − cutHi·σK − δ)/dMuK,
//
// b_max(zB) = b_max(0)·e^{dMuB·zB}. g is concave and decreasing, so the
// chord from zL to zR lies below it on [zL, zR], and g(zL) bounds it below
// zL. The bound is off where a term it rests on is not positive and finite.
func (ce *classEval) setZeroBound(x float64) {
	e := &ce.eval
	ce.zeroZR = math.NaN()
	if e.kDisabled || !(e.sigmaK > 0) || !(ce.dMuK > 0) || !(ce.dMuB > 0) {
		return
	}
	eMax := e.eNode[0]
	for _, v := range e.eNode {
		eMax = math.Max(eMax, v)
	}
	lnBMax := e.muB + math.Log(eMax)
	if e.vrtProb > 0 && e.vrtFactor > 1 {
		lnBMax += e.lnVRT
	}
	lnX := math.Log(x)
	if !(math.Abs(lnX) < 700) || !(math.Abs(lnBMax) < 700) || !(math.Abs(e.muK) < 700) {
		return
	}
	g := func(zB float64) float64 {
		u := math.Exp(ce.dMuB*zB + lnBMax - lnX) // b_max(zB)/x
		return (lnX + math.Log1p(-u) - e.muK - e.cutHi*e.sigmaK - zeroRowMargin) / ce.dMuK
	}
	zR := (lnX - lnBMax + math.Log(zeroChordU)) / ce.dMuB
	zL := zR - zeroChordWidth
	gL, gR := g(zL), g(zR)
	if math.IsNaN(gL-gR) || math.IsInf(gL-gR, 0) {
		return
	}
	slope := (gR - gL) / zeroChordWidth
	ce.zeroZR, ce.zeroGL = zR, gL
	ce.zeroSlope, ce.zeroC0 = slope, gL-slope*zL
}

// zeroRow reports whether the bound proves the class's flip probability
// exactly 0 for the row z-scores (zB, zK); see setZeroBound.
func (ce *classEval) zeroRow(zB, zK float64) bool {
	return zB <= ce.zeroZR && zK <= ce.zeroGL && zK <= ce.zeroC0+ce.zeroSlope*zB
}

// prepareClasses builds the per-class evaluators for CountsSampler's row
// loop at threshold x. Classes that round to zero cells are dropped
// (matching the pre-fastpath skip, which never drew from the RNG for them).
func prepareClasses(cfg SubarrayConfig, x float64) []classEval {
	evals := make([]classEval, 0, len(cfg.Classes))
	for _, cl := range cfg.Classes {
		cells := int(math.Round(cl.Frac * float64(cfg.Cols)))
		if cells <= 0 {
			continue
		}
		base := NewRateModel(cfg.Params, cfg.TempC, cl.Rho)
		resid := base.WithRowEffect(cfg.Params, 0, 0)
		ce := classEval{
			// Flip probabilities feed binomial draws: absolute accuracy only.
			eval:  newSurvivalEval(resid, looseMode),
			dMuB:  base.SigmaB * math.Sqrt(cfg.Params.BaseRowVarFrac),
			cells: cells,
		}
		if !base.KDisabled {
			ce.dMuK = base.SigmaK * math.Sqrt(cfg.Params.KappaRowVarFrac)
		}
		ce.setZeroBound(x)
		evals = append(evals, ce)
	}
	return evals
}

// TTFSampler prepares one subarray configuration for repeated
// time-to-first-bitflip draws: the per-class rate models and quadrature
// nodes are built once, so each sample pays only the order-statistic draw
// and an exp-free bisection.
type TTFSampler struct {
	classes []struct {
		eval  survivalEval
		cells int
	}
}

// NewTTFSampler builds the sampler for a subarray configuration.
// (DurationMs is ignored — TTF search supplies its own time axis.)
func NewTTFSampler(cfg SubarrayConfig) *TTFSampler {
	t := &TTFSampler{}
	for _, cl := range cfg.Classes {
		cells := int(math.Round(cl.Frac * float64(cfg.Rows) * float64(cfg.Cols)))
		if cells < 1 {
			continue
		}
		t.classes = append(t.classes, struct {
			eval  survivalEval
			cells int
		}{newSurvivalEval(NewRateModel(cfg.Params, cfg.TempC, cl.Rho), strictMode), cells})
	}
	return t
}

// Sample draws the subarray's time to first bitflip in ms: the minimum
// over classes of ln2/max-rate within the class population. Returns
// found=false when the sampled time exceeds ceilingMs.
func (t *TTFSampler) Sample(ceilingMs float64, r *rng.Rand) (ms float64, found bool) {
	best := math.Inf(1)
	for i := range t.classes {
		c := &t.classes[i]
		if v := faultmodel.Ln2 / c.eval.sampleMaxRate(c.cells, r); v < best {
			best = v
		}
	}
	if ceilingMs > 0 && best > ceilingMs {
		return best, false
	}
	return best, !math.IsInf(best, 1)
}
