package faultmodel

import (
	"math"

	"columndisturb/internal/sim/rng"
)

// keyed stream identifiers, kept distinct so that every per-cell quantity
// draws from an independent deterministic stream.
const (
	streamKappaCell = iota + 1
	streamKappaRow
	streamKappaCol
	streamBaseCell
	streamBaseRow
	streamHC
	streamAttractor
	streamAntiCell
	streamVRT
)

// keyUniform maps a keyed hash to a uniform in the open interval (0, 1).
func keyUniform(k uint64) float64 {
	return (float64(k>>11) + 0.5) / (1 << 53)
}

func keyedUniform(parts ...uint64) float64 {
	return keyUniform(rng.Key(parts...))
}

func keyedNorm(parts ...uint64) float64 {
	return rng.InvPhi(keyedUniform(parts...))
}

// RowFaults evaluates the cells of one physical row lazily. Every per-cell
// quantity is a pure function of (seed, bank, subarray, row, column), drawn
// from its own keyed stream; row and column variance components are shared
// across the cells of a physical row / bitline, producing the spatial
// clustering (weak rows, weak columns) behind the paper's blast-radius
// shapes and multi-bit ECC chunks. Row hashes each stream's (seed, stream,
// bank, sub, row) key prefix once, so a cell's draw costs one SplitMix64,
// and each accessor draws only the streams its quantity depends on:
// skipping one draw never shifts another.
type RowFaults struct {
	p          *Params
	wCol       float64 // √KappaColVarFrac
	wCell      float64 // √(1 − row − col fracs)
	wbCell     float64 // √(1 − BaseRowVarFrac)
	rowK, rowB float64 // row components, already weighted

	// Key prefixes (seed, stream, bank, sub, row) of the per-cell streams.
	kKappaCell, kBaseCell, kHC, kAttractor, kAntiCell, kVRT uint64

	// cutB and cutK are the survival cuts SetBound derives; zero disables
	// the skip.
	cutB, cutK float64
}

// Row prepares the cells of (bank, sub, row) for the module identified by
// seed.
func (p *Params) Row(seed uint64, bank, sub, row int) RowFaults {
	b, s, r := uint64(bank), uint64(sub), uint64(row)
	wRow := math.Sqrt(p.KappaRowVarFrac)
	wbRow := math.Sqrt(p.BaseRowVarFrac)
	return RowFaults{
		p:          p,
		wCol:       math.Sqrt(p.KappaColVarFrac),
		wCell:      math.Sqrt(1 - p.KappaRowVarFrac - p.KappaColVarFrac),
		wbCell:     math.Sqrt(1 - p.BaseRowVarFrac),
		rowK:       wRow * keyedNorm(seed, streamKappaRow, b, s, r),
		rowB:       wbRow * keyedNorm(seed, streamBaseRow, b, s, r),
		kKappaCell: rng.Key(seed, streamKappaCell, b, s, r),
		kBaseCell:  rng.Key(seed, streamBaseCell, b, s, r),
		kHC:        rng.Key(seed, streamHC, b, s, r),
		kAttractor: rng.Key(seed, streamAttractor, b, s, r),
		kAntiCell:  rng.Key(seed, streamAntiCell, b, s, r),
		kVRT:       rng.Key(seed, streamVRT, b, s, r),
	}
}

// KappaColumnNorms writes the κ column component (a standard normal) of
// every column of (bank, sub) into dst and returns the largest. The
// component depends on no row, so a caller sweeping the rows of one
// subarray computes it once and hands each column's value to Rates.
func KappaColumnNorms(seed uint64, bank, sub int, dst []float64) float64 {
	h := rng.Key(seed, streamKappaCol, uint64(bank), uint64(sub))
	hi := math.Inf(-1)
	for c := range dst {
		n := rng.InvPhi(keyUniform(rng.KeyFrom(h, uint64(c))))
		dst[c] = n
		hi = max(hi, n)
	}
	return hi
}

// Charged returns the logical value whose stored state is charged for the
// cell in column col: 1 for true cells, 0 for anti-cells (inverted charge
// polarity). Only the charged state can decay, so retention and
// ColumnDisturb flips of anti-cells are 0→1.
func (rf *RowFaults) Charged(col int) byte {
	if rf.p.AntiCellFraction > 0 &&
		keyUniform(rng.KeyFrom(rf.kAntiCell, uint64(col))) < rf.p.AntiCellFraction {
		return 0
	}
	return 1
}

// Rates returns the cell's intrinsic retention leak rate λ_base [1/ms] and
// its bitline coupling rate κ [1/ms] at ΔV = 1, both at the reference
// temperature. colNorm is the column's κ component from KappaColumnNorms.
func (rf *RowFaults) Rates(col int, colNorm float64) (lambdaBase, kappa float64) {
	p, c := rf.p, uint64(col)
	// κ: row + column + cell components.
	zK := rf.rowK +
		rf.wCol*colNorm +
		rf.wCell*rng.InvPhi(keyUniform(rng.KeyFrom(rf.kKappaCell, c)))
	// λ_base: row + cell components.
	zB := rf.rowB + rf.wbCell*rng.InvPhi(keyUniform(rng.KeyFrom(rf.kBaseCell, c)))
	return math.Exp(p.MuBase + p.SigmaBase*zB), math.Exp(p.MuKappa + p.SigmaKappa*zK)
}

// Hammer returns the cell's RowHammer-equivalent activation-count
// threshold, at which it flips when it is a ±1 neighbour of the
// aggressor, and the value it flips to (both directions occur in real
// chips; §4.3).
func (rf *RowFaults) Hammer(col int) (threshold float64, attractor byte) {
	p, c := rf.p, uint64(col)
	zH := rng.InvPhi(keyUniform(rng.KeyFrom(rf.kHC, c)))
	if keyUniform(rng.KeyFrom(rf.kAttractor, c)) < 0.5 {
		attractor = 1
	}
	return math.Exp(p.MuHC + p.SigmaHC*zH), attractor
}

// VRT returns the λ_base multiplier of the cell in the given trial: 1
// normally, VRTFactor when the cell's variable-retention-time state is
// active for that trial. Distinct trials re-roll the state, which is why
// the paper's retention methodology repeats each test 50 times and keeps
// the minimum observed retention time.
func (rf *RowFaults) VRT(col, trial int) float64 {
	if rf.p.VRTProb <= 0 {
		return 1
	}
	if keyUniform(rng.KeyFrom(rf.kVRT, uint64(col), uint64(trial))) < rf.p.VRTProb {
		return rf.p.VRTFactor
	}
	return 1
}

// survivalMargin is the margin m of the survival bound: the bound caps each
// of a cell's two decay terms at ½·ln2·(1−m), and its cuts sit m below the
// cell norm that reaches that cap.
const survivalMargin = 1e-6

// SetBound prepares Survives for one commit of the row. A charged cell's
// decay integral is λ_base·vrt·baseFac·t + κ·kapFac·exposure; the caller
// passes upper bounds on everything but the cell's own rates:
//
//   - baseScale ≥ vrt·baseFac·t, for every cell of the row;
//   - kapScale ≥ kapFac·exposure, for every cell of the row;
//   - colNormMax ≥ every column's κ component (KappaColumnNorms).
//
// It disables the skip when a sigma or a divided weight is not positive,
// or when a scale is NaN, negative or infinite.
func (rf *RowFaults) SetBound(baseScale, kapScale, colNormMax float64) {
	p := rf.p
	rf.cutB, rf.cutK = 0, 0
	if !(p.SigmaBase > 0 && p.SigmaKappa > 0 && rf.wbCell > 0 && rf.wCell > 0) {
		return
	}
	half := 0.5 * Ln2 * (1 - survivalMargin)
	zB := (math.Log(half/baseScale) - p.MuBase) / p.SigmaBase
	zK := (math.Log(half/kapScale) - p.MuKappa) / p.SigmaKappa
	rf.cutB = survivalCut((zB - rf.rowB) / rf.wbCell)
	rf.cutK = survivalCut((zK - rf.rowK - rf.wCol*colNormMax) / rf.wCell)
}

// Survives reports whether the cell in column col provably keeps its
// charge through the commit SetBound prepared. Its base-cell and κ-cell
// uniforms lie below the cuts, so each decay term is below ½·ln2·(1−m)
// and their sum below ln2. The bound is exact, not approximate: Acklam's
// InvPhi error (≤ 1.2e-9 relative) is far below the margin m, the float
// rounding of the integral is O(1e-15) relative against the (1−m) cap, and
// two terms under half the threshold cannot sum to it. A false result
// decides nothing: the caller evaluates the cell exactly.
func (rf *RowFaults) Survives(col int) bool {
	c := uint64(col)
	return keyUniform(rng.KeyFrom(rf.kKappaCell, c)) < rf.cutK &&
		keyUniform(rng.KeyFrom(rf.kBaseCell, c)) < rf.cutB
}

// survivalCut returns a uniform cut below which every keyed uniform u has
// InvPhi(u) < t, or 0, which disables the skip. The cut is Phi(t−m),
// checked with InvPhi itself so the guarantee does not rest on Phi's
// rounding (near 1 an ulp of Phi is worth more than m of z): a cut c
// passes when InvPhi(c) < t − m/2, checked on the largest float below 1
// when c is 1. Any u < c then has InvPhi(u) ≤ InvPhi(c) plus twice
// InvPhi's error, which is below m/2 over the whole of (0, 1).
func survivalCut(t float64) float64 {
	const belowOne = 1 - 1.0/(1<<53)
	c := rng.Phi(t - survivalMargin)
	if !(c > 0) || !(rng.InvPhi(min(c, belowOne)) < t-survivalMargin/2) {
		return 0
	}
	return c
}
