package dram

import (
	"fmt"

	"columndisturb/internal/faultmodel"
)

// epoch records one span of bank history during which an aggressor row
// drove the bank's bitlines. Gaps between epochs are idle (all bitlines
// precharged at VDD/2). Epochs never overlap: a bank serializes commands.
//
// rho[b] is the effective coupling duty for a column whose shared
// aggressor bit is b. The duty already folds in the access-pattern shape
// (tAggOn duty, precharge gaps, settling dead time), so a cell's exposure
// contribution is simply overlap × rho.
type epoch struct {
	fromNs, toNs float64
	aggSub       int
	data         []uint64 // snapshot of the aggressor row's content
	rho          [2]float64
}

// Bank models one DRAM bank: row storage, open-row state, per-row restore
// times, accumulated neighbour aggression (RowHammer/RowPress), and the
// bitline exposure history used to evaluate ColumnDisturb at read time.
//
// Like its owning Device, a Bank is NOT goroutine-safe: commands mutate
// the open-row state and epoch history in place. Confine each Device (and
// therefore its Banks) to a single goroutine; see the Device doc comment.
type Bank struct {
	geom   Geometry
	index  int
	params *faultmodel.Params
	seed   uint64

	rows         [][]uint64 // stored data, [row][word]
	restoredNs   []float64  // last time each row's charge was restored
	aggression   []float64  // RowHammer-equivalent activations since restore
	epochs       []epoch
	ovScratch    []epochOverlap // reused by commitFaults, one entry per live epoch
	colNorms     []float64      // κ column components of subarray colSub
	colNormMax   float64        // the largest of colNorms
	colSub       int            // subarray colNorms holds, -1 before the first commit
	openRow      int            // -1 when precharged
	openedAtNs   float64
	lastOpenRow  int     // row open before the last PRE, -1 before the first
	rowCloneNs   float64 // the RowClone violation window
	cloneUntilNs float64 // an ACT before this time interrupts the last PRE
}

func newBank(geom Geometry, index int, params *faultmodel.Params, seed uint64, rowCloneNs float64) *Bank {
	rows := make([][]uint64, geom.RowsPerBank())
	backing := make([]uint64, geom.RowsPerBank()*geom.WordsPerRow())
	for i := range rows {
		rows[i], backing = backing[:geom.WordsPerRow()], backing[geom.WordsPerRow():]
	}
	return &Bank{
		geom:        geom,
		index:       index,
		params:      params,
		seed:        seed,
		rows:        rows,
		restoredNs:  make([]float64, geom.RowsPerBank()),
		aggression:  make([]float64, geom.RowsPerBank()),
		epochs:      nil,
		colSub:      -1,
		openRow:     -1,
		lastOpenRow: -1,
		rowCloneNs:  rowCloneNs,
	}
}

func (b *Bank) checkRow(row int) error {
	if row < 0 || row >= b.geom.RowsPerBank() {
		return fmt.Errorf("dram: row %d out of range [0,%d)", row, b.geom.RowsPerBank())
	}
	return nil
}

// activate opens a row at time nowNs. The sense amplifiers latch the row's
// cells, so every fault pending since its last restore is committed first,
// as a read's ACT commits them, and the activation then restores the
// latched values and clears the neighbour aggression against the row. If
// the preceding precharge was interrupted (ACT issued within the RowClone
// violation window of the PRE) and the previously open row is in the same
// subarray, the sense amplifiers still hold the previous row's content and
// this activation overwrites the new row with it — the RowClone in-DRAM
// copy the paper's methodology uses to reverse engineer subarray
// boundaries (§3.2).
func (b *Bank) activate(nowNs float64, row int, tempC float64, trial int) error {
	if err := b.checkRow(row); err != nil {
		return err
	}
	if b.openRow >= 0 {
		return fmt.Errorf("dram: bank %d: ACT row %d while row %d open", b.index, row, b.openRow)
	}
	b.commitFaults(nowNs, row, tempC, trial)
	b.rowClone(nowNs, row)
	b.openRow = row
	b.openedAtNs = nowNs
	return nil
}

// rowClone applies the RowClone semantics of an ACT of row at nowNs: if it
// interrupts the precharge of a different row of the same subarray, the
// sense amplifiers overwrite row with that row's content. The deadline is
// fixed at the PRE, so an ACT issued exactly one window later stays
// outside it however the clock rounds.
func (b *Bank) rowClone(nowNs float64, row int) {
	if b.lastOpenRow >= 0 && nowNs < b.cloneUntilNs &&
		b.geom.SameSubarray(b.lastOpenRow, row) && row != b.lastOpenRow {
		copy(b.rows[row], b.rows[b.lastOpenRow])
	}
}

// precharge closes the open row at time nowNs, recording the bitline
// exposure epoch of the open interval. The sense amplifiers held the row
// at full charge until now, so its restore time is the PRE's.
func (b *Bank) precharge(nowNs float64) error {
	if b.openRow < 0 {
		return fmt.Errorf("dram: bank %d: PRE while no row open", b.index)
	}
	if open := nowNs - b.openedAtNs; open > 0 {
		b.appendEpoch(b.openEpoch(b.openRow, b.openedAtNs, nowNs))
		// One activation held open for `open` ns: RowPress-equivalent
		// damage on the immediate neighbours.
		b.addNeighborAggression(b.openRow, b.params.PressEquivalentActs(1, open))
	}
	b.restoredNs[b.openRow] = nowNs
	b.cloneUntilNs = nowNs + b.rowCloneNs
	b.lastOpenRow = b.openRow
	b.openRow = -1
	return nil
}

// openEpoch is the exposure epoch of row held open from fromNs to toNs.
func (b *Bank) openEpoch(row int, fromNs, toNs float64) epoch {
	open := toNs - fromNs
	return epoch{
		fromNs: fromNs,
		toNs:   toNs,
		aggSub: b.geom.SubarrayOf(row),
		data:   append([]uint64(nil), b.rows[row]...),
		rho: [2]float64{
			b.params.RhoHammer(open, 0, 0),
			b.params.RhoHammer(open, 0, 1),
		},
	}
}

// appendEpoch keeps the epoch list ordered and merges nothing; callers only
// append monotonically increasing intervals.
func (b *Bank) appendEpoch(e epoch) {
	if n := len(b.epochs); n > 0 && e.fromNs < b.epochs[n-1].toNs {
		// Clamp defensively: epochs must not overlap.
		e.fromNs = b.epochs[n-1].toNs
		if e.fromNs >= e.toNs {
			return
		}
	}
	b.epochs = append(b.epochs, e)
}

func (b *Bank) addNeighborAggression(aggRow int, equivActs float64) {
	for _, r := range []int{aggRow - 1, aggRow + 1} {
		if r >= 0 && r < b.geom.RowsPerBank() && b.geom.SameSubarray(aggRow, r) {
			b.aggression[r] += equivActs
		}
	}
}

// hammer fast-forwards numActs cycles of the single-aggressor pattern
// ACT(row)–tAggOn–PRE–tRP–… starting at nowNs. The bank must be precharged.
// The first ACT commits the row's pending faults, as activate does; later
// ones re-open it a tAggOn+tRP after its last restore. Only the first ACT
// can RowClone: every later one re-opens row itself. It returns the end
// time.
func (b *Bank) hammer(nowNs float64, row, numActs int, tAggOnNs, tRPNs, tempC float64, trial int) (float64, error) {
	if err := b.checkRow(row); err != nil {
		return nowNs, err
	}
	if b.openRow >= 0 {
		return nowNs, fmt.Errorf("dram: bank %d: hammer while row %d open", b.index, b.openRow)
	}
	if numActs <= 0 {
		return nowNs, nil
	}
	b.commitFaults(nowNs, row, tempC, trial)
	b.rowClone(nowNs, row)
	end := nowNs + float64(numActs)*(tAggOnNs+tRPNs)
	b.appendEpoch(epoch{
		fromNs: nowNs,
		toNs:   end,
		aggSub: b.geom.SubarrayOf(row),
		data:   append([]uint64(nil), b.rows[row]...),
		rho: [2]float64{
			b.params.RhoHammer(tAggOnNs, tRPNs, 0),
			b.params.RhoHammer(tAggOnNs, tRPNs, 1),
		},
	})
	b.restoredNs[row] = end // each activation restores the aggressor
	b.aggression[row] = 0
	b.addNeighborAggression(row, b.params.PressEquivalentActs(numActs, tAggOnNs))
	b.cloneUntilNs = end + (b.rowCloneNs - tRPNs) // the last PRE was a full tRP before end
	b.lastOpenRow = row
	return end, nil
}

// writeRow overwrites a row's content and restores its charge (the
// device-level collapse of ACT+WR+PRE used by test initialization).
func (b *Bank) writeRow(nowNs float64, row int, words []uint64) error {
	if err := b.checkRow(row); err != nil {
		return err
	}
	copy(b.rows[row], words)
	b.restoredNs[row] = nowNs
	b.aggression[row] = 0
	return nil
}

// readRow evaluates all pending faults of the row, commits them, restores
// the row (a read is ACT+RD+PRE: the activation rewrites the latched,
// possibly corrupted, values) and returns a copy of the data.
func (b *Bank) readRow(nowNs float64, row int, tempC float64, trial int) ([]uint64, error) {
	if err := b.checkRow(row); err != nil {
		return nil, err
	}
	b.commitFaults(nowNs, row, tempC, trial)
	out := append([]uint64(nil), b.rows[row]...)
	return out, nil
}

// commitFaults applies every disturbance accumulated since the row's last
// restore and marks the row restored at nowNs. Aggression counts even
// when no time has passed: it accrues per activation, not per unit of
// time. Each cell pays only for what its outcome depends on: an uncharged
// cell draws no decay parameters, a charged cell that RowFaults.Survives
// proves cannot flip skips its rates, exposure and VRT draws, and hammer
// draws run only for rows under aggression. Every other cell takes the
// exact per-cell arithmetic, and
// draws are keyed by coordinates, so the committed bits are identical to
// evaluating every cell in full.
func (b *Bank) commitFaults(nowNs float64, row int, tempC float64, trial int) {
	elapsedNs := nowNs - b.restoredNs[row]
	if elapsedNs > 0 || b.aggression[row] > 0 {
		sub := b.geom.SubarrayOf(row)
		words := b.rows[row]
		elapsedMs := elapsedNs * 1e-6
		rhoIdle := b.params.RhoIdle()
		baseFac := b.params.BaseTempFactor(tempC)
		kapFac := b.params.KappaTempFactor(tempC)
		agg := b.aggression[row]
		overlaps := b.overlapEpochs(b.restoredNs[row], nowNs)
		colNorms, colNormMax := b.kappaColumns(sub)

		// Survival bound inputs: the largest VRT multiplier and coupling
		// duty any cell of the row can see over the committed interval.
		vrtMax := 1.0
		if b.params.VRTProb > 0 && b.params.VRTFactor > 1 {
			vrtMax = b.params.VRTFactor
		}
		rhoMax := rhoIdle
		for _, o := range overlaps {
			for _, r := range o.e.rho {
				rhoMax = max(rhoMax, r)
			}
		}
		rf := b.params.Row(b.seed, b.index, sub, row)
		rf.SetBound(vrtMax*baseFac*elapsedMs, kapFac*rhoMax*elapsedMs, colNormMax)

		for col := 0; col < b.geom.Cols; col++ {
			stored := WordBit(words, col)
			// Charge decay: retention + ColumnDisturb.
			if stored == rf.Charged(col) && !rf.Survives(col) {
				lambdaBase, kappa := rf.Rates(col, colNorms[col])
				exposureMs := b.exposureMs(overlaps, sub, col, elapsedNs, rhoIdle)
				vrt := rf.VRT(col, trial)
				integral := lambdaBase*vrt*baseFac*elapsedMs + kappa*kapFac*exposureMs
				if faultmodel.Flips(integral) {
					SetWordBit(words, col, 1-stored)
					stored = 1 - stored
				}
			}
			// RowHammer/RowPress on immediate neighbours of an aggressor.
			if agg > 0 {
				threshold, attractor := rf.Hammer(col)
				if stored != attractor && agg >= threshold {
					SetWordBit(words, col, attractor)
				}
			}
		}
	}
	b.restoredNs[row] = nowNs
	b.aggression[row] = 0
}

// kappaColumns returns the κ column components of subarray sub and their
// maximum, refilling the bank's buffer when the last commit was in another
// subarray.
func (b *Bank) kappaColumns(sub int) ([]float64, float64) {
	if sub != b.colSub {
		if b.colNorms == nil {
			b.colNorms = make([]float64, b.geom.Cols)
		}
		b.colNormMax = faultmodel.KappaColumnNorms(b.seed, b.index, sub, b.colNorms)
		b.colSub = sub
	}
	return b.colNorms, b.colNormMax
}

// epochOverlap is one epoch's clamped overlap with the interval currently
// being committed. The clamping depends only on the interval, never the
// cell, so commitFaults computes it once per row.
type epochOverlap struct {
	e    *epoch
	ovNs float64
}

// overlapEpochs collects the epochs intersecting [fromNs, toNs) with their
// clamped durations into the bank's reusable scratch slice.
func (b *Bank) overlapEpochs(fromNs, toNs float64) []epochOverlap {
	out := b.ovScratch[:0]
	for i := range b.epochs {
		e := &b.epochs[i]
		if e.toNs <= fromNs || e.fromNs >= toNs {
			continue
		}
		lo, hi := e.fromNs, e.toNs
		if lo < fromNs {
			lo = fromNs
		}
		if hi > toNs {
			hi = toNs
		}
		if ov := hi - lo; ov > 0 {
			out = append(out, epochOverlap{e: e, ovNs: ov})
		}
	}
	b.ovScratch = out
	return out
}

// exposureMs integrates the effective coupling duty seen by the cell at
// (sub, col) over the committed interval of length totalNs: overlapping
// epochs contribute their rho for the shared-column drive value, everything
// else contributes the idle (precharged) duty.
func (b *Bank) exposureMs(overlaps []epochOverlap, sub, col int, totalNs, rhoIdle float64) float64 {
	exposure := 0.0
	covered := 0.0
	for _, o := range overlaps {
		e := o.e
		aggCol, shared := b.geom.SharedAggressorColumn(e.aggSub, sub, col)
		rho := rhoIdle
		if shared {
			// A cell in the aggressor row itself is restored by each
			// activation; its exposure is irrelevant because restoredNs
			// already advanced past the epoch. No special case needed.
			rho = e.rho[WordBit(e.data, aggCol)]
		}
		exposure += o.ovNs * rho
		covered += o.ovNs
	}
	exposure += (totalNs - covered) * rhoIdle
	return exposure * 1e-6
}
