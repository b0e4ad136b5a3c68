// Package charz implements the paper's characterization methodology (§3.2)
// against a simulated DRAM device, the way the paper's test programs drive
// a real module: it issues device commands and reads rows back, and never
// looks at the fault parameters or cell state behind them. It covers
// reverse engineering of subarray boundaries via RowClone, bisection
// search for the time to the first ColumnDisturb bitflip, and the filtered
// bitflip metrics (guard-banding the aggressor's RowHammer/RowPress
// neighbourhood).
package charz

import (
	"math/bits"

	"columndisturb/internal/bitset"
	"columndisturb/internal/dram"
)

// Filter selects which observed bitflips count towards ColumnDisturb
// metrics: it excludes the aggressor row and its nearest neighbours
// (RowHammer/RowPress territory) with a guard band.
type Filter struct {
	// ExcludedRows are bank-level rows whose flips are ignored entirely.
	ExcludedRows *bitset.Set
}

// RowExcluded reports whether the row is filtered out.
func (f *Filter) RowExcluded(row int) bool {
	return f != nil && f.ExcludedRows.Contains(row)
}

// GuardRows returns the paper's guard band: the aggressor row plus the
// `guard` nearest rows on each side that lie in the same subarray
// (industry read-disturbance mitigations refresh up to eight neighbours, so
// the paper excludes eight nearest victims; guard=4 reproduces that).
func GuardRows(g dram.Geometry, aggRows []int, guard int) *bitset.Set {
	out := bitset.New(g.RowsPerBank())
	for _, agg := range aggRows {
		for r := agg - guard; r <= agg+guard; r++ {
			if r >= 0 && r < g.RowsPerBank() && g.SameSubarray(agg, r) {
				out.Add(r)
			}
		}
	}
	return out
}

// RowFlips summarizes the bitflips of one row against its expected pattern.
type RowFlips struct {
	Row        int
	Flips      int // total counted flips (after filtering)
	OneToZero  int
	ZeroToOne  int
	ChunkFlips []int // flips per 64-bit (8-byte) chunk index, for ECC analysis
}

// ReadRecord is the content of one row as read back from the device.
type ReadRecord struct {
	Row  int
	Data []uint64
}

// DiffReads compares read records against the expected victim pattern and
// returns per-row flip summaries, applying the filter. Data patterns are
// byte-periodic, so every correct data word equals dram.PatternWord(want);
// XORing against it finds the flipped columns of 64 cells at once, and
// direction bookkeeping runs only on the (rare) set bits.
func DiffReads(recs []ReadRecord, want dram.DataPattern, f *Filter) []RowFlips {
	expWord := dram.PatternWord(want)
	var out []RowFlips
	for _, rec := range recs {
		if f.RowExcluded(rec.Row) {
			continue
		}
		rf := RowFlips{Row: rec.Row, ChunkFlips: make([]int, len(rec.Data))}
		for w, word := range rec.Data {
			diff := word ^ expWord
			for diff != 0 {
				b := bits.TrailingZeros64(diff)
				diff &= diff - 1
				rf.Flips++
				rf.ChunkFlips[w]++
				if expWord>>uint(b)&1 == 1 {
					rf.OneToZero++
				} else {
					rf.ZeroToOne++
				}
			}
		}
		out = append(out, rf)
	}
	return out
}

// Totals aggregates row summaries.
type Totals struct {
	Flips      int
	OneToZero  int
	ZeroToOne  int
	RowsWith   int // blast radius: rows with at least one counted flip
	RowsTested int
}

// Aggregate computes totals over row summaries.
func Aggregate(rows []RowFlips) Totals {
	var t Totals
	for _, r := range rows {
		t.RowsTested++
		t.Flips += r.Flips
		t.OneToZero += r.OneToZero
		t.ZeroToOne += r.ZeroToOne
		if r.Flips > 0 {
			t.RowsWith++
		}
	}
	return t
}

// FractionOfCells returns the fraction of tested cells that flipped, the
// paper's subarray-size-independent vulnerability metric (§4.4).
func (t Totals) FractionOfCells(cols int) float64 {
	if t.RowsTested == 0 {
		return 0
	}
	return float64(t.Flips) / (float64(t.RowsTested) * float64(cols))
}

// ChunkHistogram builds the Fig 21 distribution: how many 8-byte chunks
// contain exactly k bitflips, for k = 1..maxK (larger counts clamp to
// maxK).
func ChunkHistogram(rows []RowFlips, maxK int) []int {
	hist := make([]int, maxK+1) // index k = chunks with k flips; index 0 unused
	for _, r := range rows {
		for _, n := range r.ChunkFlips {
			if n < 1 {
				continue
			}
			if n > maxK {
				n = maxK
			}
			hist[n]++
		}
	}
	return hist
}
