package core

import (
	"fmt"
	"math"
	"testing"

	"columndisturb/internal/chipdb"
	"columndisturb/internal/dram"
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
				e := newSurvivalEval(eval, strictMode)
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
	e := newSurvivalEval(resid, strictMode)
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

// TestLoosePhiCTable pins the loose kernel's table to the function it
// tabulates: within 1e-12 of fastPhiC over the loose cutoffs' range, on a
// grid whose step does not divide the knot spacing, plus points within a
// few ulps of 0, of every 64th knot and of both cutoffs. Arguments the
// table does not cover must return fastPhiC's value, NaN included.
func TestLoosePhiCTable(t *testing.T) {
	zs := []float64{math.Copysign(0, -1)}
	for z := phiCOneLoose; z <= phiCZeroLoose; z += 1.0 / 997 {
		zs = append(zs, z)
	}
	near := []float64{0, phiCOneLoose, phiCZeroLoose}
	for k := 0; k*64 < phiCTableKnots; k++ {
		z := float64(k*64) / 256
		near = append(near, z, -z)
	}
	for _, c := range near {
		for k := -4; k <= 4; k++ {
			zs = append(zs, stepULPs(c, k))
		}
	}
	worst, worstZ := 0.0, 0.0
	for _, z := range zs {
		if d := math.Abs(loosePhiC(z) - fastPhiC(z)); !(d <= worst) {
			worst, worstZ = d, z
		}
	}
	if !(worst <= 1e-12) {
		t.Fatalf("table error %g at z = %v exceeds 1e-12", worst, worstZ)
	}
	t.Logf("%d points, worst |table − fastPhiC| = %.3g at z = %v", len(zs), worst, worstZ)

	edge := 5.75
	for _, z := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), edge, -edge,
		stepULPs(edge, 1), stepULPs(-edge, -1), 6, -6, 40, -40, 1e300, -1e300, math.MaxFloat64} {
		got, want := loosePhiC(z), fastPhiC(z)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("loosePhiC(%v) = %v, fastPhiC %v", z, got, want)
		}
	}
}

// checkLooseLog compares looseLog(y) with math.Log(y). A positive normal y
// must come within max(4 ulp of math.Log(y), 1e-15): the absolute floor
// covers y near 1, where ln y and its ulp vanish. Every other argument must
// give math.Log's exact bits. It returns the error in ulps of math.Log(y)
// and in absolute terms (both 0 for the exact arguments).
func checkLooseLog(t testing.TB, y float64) (ulps, abs float64) {
	t.Helper()
	got, want := looseLog(y), math.Log(y)
	if !(y >= 0x1p-1022 && y <= math.MaxFloat64) {
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("looseLog(%v) = %v (%#x), math.Log %v (%#x)",
				y, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		return 0, 0
	}
	aw := math.Abs(want)
	ulp := math.Nextafter(aw, math.Inf(1)) - aw
	abs = math.Abs(got - want)
	if !(abs <= math.Max(4*ulp, 1e-15)) {
		t.Errorf("looseLog(%v) = %v, math.Log %v: off by %.3g (%.3g ulp)", y, got, want, abs, abs/ulp)
	}
	return abs / ulp, abs
}

// TestLooseLog pins the loose log kernel against math.Log alone: random
// positive bit patterns over the whole normal range, both edges of every
// 1/256-wide mantissa bucket (± 4 ulps) at exponents across the range,
// every power of two, y within 1e-6 of 1, and the largest and smallest
// normals. Zero, subnormals, negatives, ±Inf and NaN must return
// math.Log's exact bits.
func TestLooseLog(t *testing.T) {
	var ys []float64
	r := rng.New(26)
	for len(ys) < 1<<20 {
		y := math.Float64frombits(r.Uint64() &^ (1 << 63))
		if y >= 0x1p-1022 && y <= math.MaxFloat64 {
			ys = append(ys, y)
		}
	}
	for _, e := range []int{-1022, -700, -64, -2, -1, 0, 1, 2, 64, 700, 1023} {
		for i := 0; i <= 256; i++ {
			edge := math.Ldexp(1+float64(i)/256, e)
			for k := -4; k <= 4; k++ {
				ys = append(ys, stepULPs(edge, k))
			}
		}
	}
	for e := -1022; e <= 1023; e++ {
		ys = append(ys, math.Ldexp(1, e))
	}
	for d := -1e-6; d <= 1e-6; d += 1.0 / (1 << 30) {
		ys = append(ys, 1+d)
	}
	for k := -64; k <= 64; k++ {
		ys = append(ys, stepULPs(1, k))
	}
	for _, y := range []float64{0x1p-1022, math.MaxFloat64} {
		for k := -4; k <= 4; k++ {
			ys = append(ys, stepULPs(y, k))
		}
	}
	worstULP, worstAbs := 0.0, 0.0
	var worstULPY, worstAbsY float64
	for _, y := range ys {
		ulps, abs := checkLooseLog(t, y)
		if t.Failed() {
			t.FailNow()
		}
		if math.Abs(math.Log(y)) > 1 {
			if ulps > worstULP {
				worstULP, worstULPY = ulps, y
			}
		} else if abs > worstAbs {
			worstAbs, worstAbsY = abs, y
		}
	}
	t.Logf("%d points: worst %.2f ulp where |ln y| > 1 (y = %v), worst %.3g absolute where |ln y| ≤ 1 (y = %v)",
		len(ys), worstULP, worstULPY, worstAbs, worstAbsY)

	for _, y := range []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		stepULPs(0x1p-1022, -1), 1e-310, -1e-310, -1, -0x1p-1022, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(), math.Float64frombits(0x7ff8000000000001)} {
		checkLooseLog(t, y)
	}
}

// FuzzLooseLog checks the loose log kernel's bound, or its fallback's
// exact bits, at fuzzed arguments.
func FuzzLooseLog(f *testing.F) {
	for _, y := range []float64{1, 0.5, 2, 1 + 1.0/512, 3, 1e-300, 1e300, 0, -1, 1e-310, math.Inf(1)} {
		f.Add(y)
	}
	f.Fuzz(func(t *testing.T, y float64) {
		checkLooseLog(t, y)
	})
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

// refSurvivalRowNoSkip is survivalRow together with survivalOne as they
// stood before the upper-tail prefix skip, copied verbatim apart from the
// receiver and the kernels: every node takes its log before the cutoff
// test. It calls the same log and PhiC kernels as survivalOne in each mode
// (looseLog and loosePhiC in loose mode), so the comparison checks the skip,
// not the kernels, which TestLooseLog and TestLoosePhiCTable pin. The skip
// must reproduce it bit for bit.
func refSurvivalRowNoSkip(e *survivalEval, x, muB, muK float64) float64 {
	if x <= 0 {
		return 1
	}
	var eb float64
	if muB == e.muB {
		eb = e.ebBase
	} else {
		eb = math.Exp(muB)
	}
	if e.vrtProb <= 0 || e.vrtFactor == 1 {
		return refSurvivalOneNoSkip(e, x, eb, muB, muK)
	}
	normal := refSurvivalOneNoSkip(e, x, eb, muB, muK)
	weak := refSurvivalOneNoSkip(e, x, eb*e.vrtFactor, muB+e.lnVRT, muK)
	return clamp01((1-e.vrtProb)*normal + e.vrtProb*weak)
}

func refSurvivalOneNoSkip(e *survivalEval, x, eb, muB, muK float64) float64 {
	if e.kDisabled {
		return rng.PhiC((math.Log(x) - muB) * e.invSigmaB)
	}
	sum := 0.0
	for j := 0; j < 8; j++ {
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

// rowEval is one column class prepared as CountsSampler prepares it, in
// one evaluation mode, with the per-unit row shifts of its location
// parameters.
type rowEval struct {
	name       string
	eval       survivalEval
	dMuB, dMuK float64
}

// skipTestEvals builds the classes the blast-radius sweeps sample — the
// worst-case aggressor-subarray classes and the all-1 retention class —
// for each module at each characterization temperature, in both
// evaluation modes, with the VRT mixture on and off.
func skipTestEvals(t testing.TB, specs []chipdb.ModuleSpec) []rowEval {
	worstCase := PatternSetup{
		AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
		TAggOnNs: 70_200, TRPNs: 14,
	}
	var out []rowEval
	for _, spec := range specs {
		p := spec.BuildParams()
		if !(p.VRTProb > 0 && p.VRTFactor != 1) {
			t.Fatalf("%s: catalog params carry no VRT mixture; the VRT-on case would not run", spec.ID)
		}
		classes := append(AggressorSubarrayClasses(p, worstCase), RetentionClasses(p, dram.PatFF)...)
		for _, tempC := range []float64{45, 65, 85, 95} {
			for ci, cl := range classes {
				base := NewRateModel(p, tempC, cl.Rho)
				for _, vrt := range []bool{true, false} {
					if !vrt {
						base.VRTProb = 0
					}
					resid := base.WithRowEffect(p, 0, 0)
					for _, mode := range []evalMode{strictMode, looseMode} {
						out = append(out, rowEval{
							name: fmt.Sprintf("%s/%v°C/class%d/vrt=%v/%s", spec.ID, tempC, ci, vrt, [...]string{"strict", "loose"}[mode]),
							eval: newSurvivalEval(resid, mode),
							dMuB: base.SigmaB * math.Sqrt(p.BaseRowVarFrac),
							dMuK: base.SigmaK * math.Sqrt(p.KappaRowVarFrac),
						})
					}
				}
			}
		}
	}
	return out
}

// checkSkipBitExact reports whether survivalRow and the no-skip reference
// return the same float64 bits at (x, muB, muK).
func checkSkipBitExact(t testing.TB, re *rowEval, x, muB, muK float64) bool {
	t.Helper()
	got := re.eval.survivalRow(x, muB, muK)
	want := refSurvivalRowNoSkip(&re.eval, x, muB, muK)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Errorf("%s: survivalRow(x=%v, muB=%v, muK=%v) = %v (%#x), no-skip reference %v (%#x)",
			re.name, x, muB, muK, got, math.Float64bits(got), want, math.Float64bits(want))
		return false
	}
	return true
}

// TestSurvivalRowSkipBitExact checks that the upper-tail prefix skip
// changes no bit of any flip probability: random rows and thresholds over
// every DDR4 module's blast-radius classes, then thresholds constructed so
// that x − b_j lands within a few ulps of the skip threshold T and of the
// unslackened cutoff exp(muK + cutHi·σK) at every node.
func TestSurvivalRowSkipBitExact(t *testing.T) {
	evals := skipTestEvals(t, chipdb.DDR4Modules())
	r := rng.New(19)
	const perEval = 128
	if n := perEval * len(evals); n < 100_000 {
		t.Fatalf("only %d random points, want ≥ 1e5", n)
	}
	random, skipped, zero := 0, 0, 0
	for i := range evals {
		re := &evals[i]
		e := &re.eval
		for k := 0; k < perEval; k++ {
			zB, zK := 1.5*r.Norm(), 1.5*r.Norm()
			// Refresh-window thresholds from 1 ms to 1e5 ms, log-uniform.
			x := faultmodel.Ln2 / math.Exp(r.Float64()*math.Log(1e5))
			muB, muK := e.muB+re.dMuB*zB, e.muK+re.dMuK*zK
			if !checkSkipBitExact(t, re, x, muB, muK) {
				t.FailNow()
			}
			random++
			if x-math.Exp(muB)*e.eNode[0] >= e.skipThreshold(muK) {
				skipped++
			}
			if e.survivalRow(x, muB, muK) == 0 {
				zero++
			}
		}
	}
	// The random points must reach both the skip and the full loop, and
	// the p == 0 rows the skip exists for.
	if skipped == 0 || skipped == random || zero == 0 {
		t.Fatalf("random points: %d total, %d with a skipped node, %d with p == 0", random, skipped, zero)
	}

	near := 0
	for i := range evals {
		re := &evals[i]
		e := &re.eval
		if e.kDisabled || i%7 != 0 {
			continue
		}
		zB, zK := r.Norm(), r.Norm()
		muB, muK := e.muB+re.dMuB*zB, e.muK+re.dMuK*zK
		eb := math.Exp(muB)
		cut := math.Exp(muK + e.cutHi*e.sigmaK)
		for _, target := range []float64{cut * (1 + skipSlack), cut} {
			for j := 0; j < 8; j++ {
				b := eb * e.eNode[j]
				x0 := b + target
				for k := -8; k <= 8; k++ {
					x := stepULPs(x0, k)
					if !checkSkipBitExact(t, re, x, muB, muK) {
						t.FailNow()
					}
					if d := x - b; math.Abs(float64(ulpDistance(d, target))) <= 8 {
						near++
					}
				}
			}
		}
	}
	if near < 1000 {
		t.Fatalf("only %d constructed points within 8 ulps of a threshold", near)
	}
	t.Logf("%d random points (%d with a skipped node, %d with p == 0), %d within 8 ulps of a threshold",
		random, skipped, zero, near)
}

// stepULPs moves x by k representable float64 values.
func stepULPs(x float64, k int) float64 {
	for ; k > 0; k-- {
		x = math.Nextafter(x, math.Inf(1))
	}
	for ; k < 0; k++ {
		x = math.Nextafter(x, math.Inf(-1))
	}
	return x
}

// ulpDistance counts the representable float64 values from b to a, for
// positive finite a and b.
func ulpDistance(a, b float64) int64 {
	return int64(math.Float64bits(a)) - int64(math.Float64bits(b))
}

// FuzzSurvivalRowSkip checks the prefix skip's bit-exactness over fuzzed
// thresholds and row location shifts: muB and muK are the fuzzed offsets
// added to a class's prepared location, so an offset of 0 takes the
// precomputed exp(muB) and skip threshold. Each input runs against every
// manufacturer's representative module.
func FuzzSurvivalRowSkip(f *testing.F) {
	evals := skipTestEvals(f, representativeSpecs())
	f.Fuzz(func(t *testing.T, x, dMuB, dMuK float64) {
		for i := range evals {
			re := &evals[i]
			checkSkipBitExact(t, re, x, re.eval.muB+dMuB, re.eval.muK+dMuK)
		}
	})
}

var sinkPhiC float64

// BenchmarkLoosePhiC measures the loose PhiC kernel, the survival
// quadrature's innermost call, on arguments spread over the loose cutoffs'
// range: "table" is the interpolated kernel survivalOne calls, "fastPhiC"
// the approximation it tabulates.
func BenchmarkLoosePhiC(b *testing.B) {
	// 389 is odd, so i·389 mod 1024 visits every argument once, scattered
	// over the table rather than walking it knot by knot.
	var zs [1024]float64
	for i := range zs {
		zs[i] = phiCOneLoose + (phiCZeroLoose-phiCOneLoose)*float64(i*389%1024)/1024
	}
	for _, bc := range []struct {
		name string
		f    func(float64) float64
	}{{"table", loosePhiC}, {"fastPhiC", fastPhiC}} {
		b.Run(bc.name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc += bc.f(zs[i&1023])
			}
			sinkPhiC = acc
		})
	}
}

var sinkLog float64

// BenchmarkLooseLog measures the loose log kernel, which takes one log per
// live quadrature node, on arguments spread log-uniformly over 2^±20:
// "table" is the kernel survivalOne calls in loose mode, "math.Log" the
// libm call it replaces there.
func BenchmarkLooseLog(b *testing.B) {
	var ys [1024]float64
	for i := range ys {
		ys[i] = math.Exp2(-20 + 40*float64(i*389%1024)/1024)
	}
	for _, bc := range []struct {
		name string
		f    func(float64) float64
	}{{"table", looseLog}, {"math.Log", math.Log}} {
		b.Run(bc.name, func(b *testing.B) {
			acc := 0.0
			for i := 0; i < b.N; i++ {
				acc += bc.f(ys[i&1023])
			}
			sinkLog = acc
		})
	}
}

// zeroBoundClasses prepares, as CountsSampler does, the blast-radius
// classes (worst-case aggressor subarray and all-1 retention) of each
// module at every characterization temperature and a range of refresh
// windows, each with its threshold.
func zeroBoundClasses(specs []chipdb.ModuleSpec) (classes []classEval, xs []float64) {
	worstCase := PatternSetup{
		AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
		TAggOnNs: 70_200, TRPNs: 14,
	}
	for _, spec := range specs {
		p := spec.BuildParams()
		g := spec.Geometry()
		for _, cls := range [][]ColumnClass{AggressorSubarrayClasses(p, worstCase), RetentionClasses(p, dram.PatFF)} {
			for _, tempC := range []float64{45, 65, 85, 95} {
				for _, ms := range []float64{64, 512, 1024, 4096, 16000} {
					x := faultmodel.Ln2 / ms
					cfg := SubarrayConfig{Params: p, TempC: tempC, DurationMs: ms,
						Rows: g.RowsPerSubarray, Cols: g.Cols, Classes: cls}
					for _, ce := range prepareClasses(cfg, x) {
						classes = append(classes, ce)
						xs = append(xs, x)
					}
				}
			}
		}
	}
	return classes, xs
}

// representativeSpecs returns every manufacturer's representative module.
func representativeSpecs() []chipdb.ModuleSpec {
	var reps []chipdb.ModuleSpec
	for _, mfr := range chipdb.Manufacturers() {
		reps = append(reps, chipdb.Representative(mfr))
	}
	return reps
}

// checkZeroRow evaluates the class at row z-scores (zB, zK) as
// CountsSampler does and fails the test if the zero-row bound claims a
// skip where the flip probability is not exactly 0. It returns whether
// the bound skipped and the probability.
func checkZeroRow(t testing.TB, ce *classEval, x, zB, zK float64) (skip bool, p float64) {
	t.Helper()
	skip = ce.zeroRow(zB, zK)
	p = ce.eval.survivalRow(x, ce.eval.muB+ce.dMuB*zB, ce.eval.muK+ce.dMuK*zK)
	if skip && p != 0 {
		t.Errorf("zeroRow(zB=%v, zK=%v) at x=%v claims a zero row, survivalRow = %v", zB, zK, x, p)
	}
	return skip, p
}

// TestZeroRowBound checks that the zero-row bound skips only rows whose
// flip probability is exactly 0: random rows over every manufacturer's
// representative module, then rows constructed on both sides of the
// bound's edge, a few ulps to 1e-4 away from it at zB on and around the
// chord's span.
func TestZeroRowBound(t *testing.T) {
	classes, xs := zeroBoundClasses(representativeSpecs())
	r := rng.New(25)
	random, randomSkipped := 0, 0
	for i := range classes {
		for k := 0; k < 256; k++ {
			skip, _ := checkZeroRow(t, &classes[i], xs[i], 1.5*r.Norm(), 1.5*r.Norm())
			random++
			if skip {
				randomSkipped++
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	edge, skipped, unskipped, live := 0, 0, 0, 0
	for i := range classes {
		ce := &classes[i]
		if math.IsNaN(ce.zeroZR) {
			continue
		}
		zL := ce.zeroZR - zeroChordWidth
		var zBs []float64
		for k := -8; k <= 24; k++ {
			zBs = append(zBs, zL+float64(k)*zeroChordWidth/16)
		}
		for k := -4; k <= 4; k++ {
			zBs = append(zBs, stepULPs(zL, k), stepULPs(ce.zeroZR, k))
		}
		for _, zB := range zBs {
			// The bound's edge at zB, recomputed from its definition.
			zK0 := ce.zeroGL
			if c := ce.zeroC0 + ce.zeroSlope*zB; c < zK0 {
				zK0 = c
			}
			var zKs []float64
			for k := -4; k <= 4; k++ {
				zKs = append(zKs, stepULPs(zK0, k))
			}
			for _, d := range []float64{1e-9, 1e-6, 1e-4} {
				zKs = append(zKs, zK0-d, zK0+d)
			}
			for _, zK := range zKs {
				skip, p := checkZeroRow(t, ce, xs[i], zB, zK)
				edge++
				switch {
				case skip:
					skipped++
				case p > 0:
					unskipped++
					live++
				default:
					unskipped++
				}
			}
		}
	}
	// Both sides of the edge must be reached, and past the margin the
	// edge must meet rows that really flip.
	if randomSkipped == 0 || randomSkipped == random || skipped < 1000 || unskipped < 1000 || live < 100 {
		t.Fatalf("random: %d rows, %d skipped; edge: %d rows, %d skipped, %d not (%d with p > 0)",
			random, randomSkipped, edge, skipped, unskipped, live)
	}
	t.Logf("%d classes; random: %d rows, %d skipped; edge: %d rows, %d skipped, %d not (%d with p > 0)",
		len(classes), random, randomSkipped, edge, skipped, unskipped, live)
}

// FuzzZeroRowBound checks the zero-row bound over fuzzed row z-scores for
// every manufacturer's representative module: wherever it claims a skip,
// survivalRow must return exactly 0.
func FuzzZeroRowBound(f *testing.F) {
	classes, xs := zeroBoundClasses(representativeSpecs())
	for _, seed := range [][2]float64{{0, 0}, {-3, 2}, {2, -5}, {-8, -8}, {1.5, -1}, {math.Inf(-1), 0}} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, zB, zK float64) {
		for i := range classes {
			checkZeroRow(t, &classes[i], xs[i], zB, zK)
		}
	})
}
