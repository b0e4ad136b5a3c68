package charz

import (
	"fmt"

	"columndisturb/internal/dram"
)

// TTFConfig parameterizes the time-to-first-bitflip search (§3.2).
type TTFConfig struct {
	TAggOnNs, TRPNs float64
	AggPattern      dram.DataPattern
	VictimPattern   dram.DataPattern
	// MaxTimeMs is the search ceiling: with no bitflip within it the
	// subarray is reported not vulnerable (the paper uses 512 ms with
	// refresh disabled).
	MaxTimeMs float64
	// Tolerance terminates the bisection when the bracket shrinks below
	// this fraction of the current estimate (the paper uses 1%).
	Tolerance float64
	// Repeats re-runs the search with fresh VRT trials and keeps the
	// minimum (the paper repeats five times).
	Repeats int
	// GuardRows excludes the aggressor ±GuardRows same-subarray neighbours
	// from counting (RowHammer/RowPress filtering; the paper uses 4 per
	// side, i.e. the eight nearest victims).
	GuardRows int
}

// DefaultTTFConfig returns the paper's search parameters with the
// worst-case access pattern (all-0 aggressor, all-1 victims, pressing).
func DefaultTTFConfig(t dram.Timing) TTFConfig {
	return TTFConfig{
		TAggOnNs:      70200,
		TRPNs:         t.TRPns,
		AggPattern:    dram.Pat00,
		VictimPattern: dram.PatFF,
		MaxTimeMs:     512,
		Tolerance:     0.01,
		Repeats:       5,
		GuardRows:     4,
	}
}

// TTFResult is the outcome of a time-to-first-bitflip search.
type TTFResult struct {
	Found       bool
	TimeMs      float64 // minimum time to the first bitflip across repeats
	HammerCount int     // the corresponding activation count
	Probes      int     // total experiment iterations run
}

// TimeToFirstBitflip finds the minimum hammer count (converted to time)
// inducing the first ColumnDisturb bitflip in the aggressor row's subarray,
// using the bisection method of prior work: bracket [1, maxActs], shrink
// until within tolerance, repeat and keep the minimum.
func TimeToFirstBitflip(d *dram.Device, bank, aggRow int, cfg TTFConfig) (TTFResult, error) {
	g := d.Geometry()
	cycleNs := cfg.TAggOnNs + cfg.TRPNs
	if cycleNs <= 0 {
		return TTFResult{}, fmt.Errorf("charz: non-positive hammer cycle")
	}
	maxActs := int(cfg.MaxTimeMs * 1e6 / cycleNs)
	if maxActs < 1 {
		maxActs = 1
	}
	sub := g.SubarrayOf(aggRow)
	first := g.SubarrayBase(sub)
	last := first + g.RowsPerSubarray - 1

	filter := &Filter{ExcludedRows: GuardRows(g, []int{aggRow}, cfg.GuardRows)}

	res := TTFResult{}
	probe := func(acts int) (bool, error) {
		res.Probes++
		if err := WriteRows(d, bank, first, last, cfg.VictimPattern); err != nil {
			return false, err
		}
		if err := d.WriteRowPattern(bank, aggRow, cfg.AggPattern); err != nil {
			return false, err
		}
		if err := d.Hammer(bank, aggRow, acts, cfg.TAggOnNs, cfg.TRPNs); err != nil {
			return false, err
		}
		recs, err := readRows(d, bank, first, last)
		if err != nil {
			return false, err
		}
		rows := DiffReads(recs, cfg.VictimPattern, filter)
		return Aggregate(rows).Flips > 0, nil
	}

	repeats := cfg.Repeats
	if repeats < 1 {
		repeats = 1
	}
	bestActs := -1
	for rep := 0; rep < repeats; rep++ {
		d.SetTrial(rep)
		any, err := probe(maxActs)
		if err != nil {
			return TTFResult{}, err
		}
		if !any {
			continue // not vulnerable within the ceiling in this trial
		}
		lo, hi := 1, maxActs
		for hi-lo > 1 && float64(hi-lo) > cfg.Tolerance*float64(hi) {
			mid := lo + (hi-lo)/2
			flips, err := probe(mid)
			if err != nil {
				return TTFResult{}, err
			}
			if flips {
				hi = mid
			} else {
				lo = mid
			}
		}
		if bestActs < 0 || hi < bestActs {
			bestActs = hi
		}
	}
	d.SetTrial(0)
	if bestActs < 0 {
		return res, nil
	}
	res.Found = true
	res.HammerCount = bestActs
	res.TimeMs = float64(bestActs) * cycleNs * 1e-6
	return res, nil
}
