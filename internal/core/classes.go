package core

import (
	"sort"

	"columndisturb/internal/dram"
	"columndisturb/internal/faultmodel"
)

// ColumnClass describes a fraction of a subarray's cells that share the
// same at-risk condition: charged victims whose bitline runs at coupling
// duty Rho. Fractions across a class list need not sum to 1 — the
// remainder of the cells is not at risk (uncharged victims).
type ColumnClass struct {
	Frac float64
	Rho  float64
}

// PatternSetup describes a single- or two-aggressor access-pattern
// configuration for class construction.
type PatternSetup struct {
	AggPattern    dram.DataPattern
	Agg2Pattern   dram.DataPattern // two-aggressor only
	VictimPattern dram.DataPattern
	TAggOnNs      float64
	TRPNs         float64
	TwoAggressor  bool
}

// AggressorSubarrayClasses builds the at-risk classes for victims in the
// aggressor's own subarray: every column is driven each cycle, with the
// drive voltage given by the aggressor pattern bit on that column. Victims
// are at risk only where the victim pattern stores 1 (charged true cells).
func AggressorSubarrayClasses(p *faultmodel.Params, s PatternSetup) []ColumnClass {
	return classesOver(p, s, func(c int) (int, bool) { return c, true })
}

// UpperNeighborClasses builds the classes for the subarray above the
// aggressor's: odd victim columns share the aggressor's even bitlines; even
// victim columns stay precharged (retention-level disturbance).
func UpperNeighborClasses(p *faultmodel.Params, s PatternSetup) []ColumnClass {
	return classesOver(p, s, func(c int) (int, bool) {
		if c%2 == 1 {
			return c - 1, true
		}
		return 0, false
	})
}

// LowerNeighborClasses builds the classes for the subarray below the
// aggressor's: even victim columns share the aggressor's odd bitlines.
func LowerNeighborClasses(p *faultmodel.Params, s PatternSetup) []ColumnClass {
	return classesOver(p, s, func(c int) (int, bool) {
		if c%2 == 0 {
			return c + 1, true
		}
		return 0, false
	})
}

// RetentionClasses builds the baseline condition: every charged victim sits
// on a precharged bitline.
func RetentionClasses(p *faultmodel.Params, victim dram.DataPattern) []ColumnClass {
	charged := 1 - victim.ZeroBitFraction()
	if charged == 0 {
		return nil
	}
	return []ColumnClass{{Frac: charged, Rho: p.RhoIdle()}}
}

// DutyClasses builds the Fig 10 voltage-sweep condition: all victims
// charged (all-1 victim pattern), columns held at vLow for fracLow of the
// time and precharged otherwise.
func DutyClasses(p *faultmodel.Params, fracLow, vLow float64) []ColumnClass {
	return []ColumnClass{{Frac: 1, Rho: p.RhoDuty(fracLow, vLow)}}
}

// classesOver walks one 8-column pattern period, maps each victim column to
// its shared aggressor column (or none), and accumulates class fractions by
// coupling duty. Patterns are byte-periodic and the parity mapping shifts
// by one, so an 8-column walk covers all cases exactly.
func classesOver(p *faultmodel.Params, s PatternSetup, share func(c int) (int, bool)) []ColumnClass {
	type key struct{ b1, b2 byte }
	counts := map[key]int{}
	idle := 0
	for c := 0; c < 8; c++ {
		if s.VictimPattern.Bit(c) != 1 {
			continue // uncharged victim: not at risk
		}
		aggCol, shared := share(c)
		if !shared {
			idle++
			continue
		}
		k := key{b1: s.AggPattern.Bit(aggCol)}
		if s.TwoAggressor {
			k.b2 = s.Agg2Pattern.Bit(aggCol)
		}
		counts[k]++
	}
	// Emit classes in a deterministic order: class order decides RNG
	// consumption order downstream (CountsSampler draws one binomial per
	// class per row), so map iteration order must never leak into it.
	keys := make([]key, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].b1 != keys[j].b1 {
			return keys[i].b1 < keys[j].b1
		}
		return keys[i].b2 < keys[j].b2
	})
	var out []ColumnClass
	for _, k := range keys {
		var rho float64
		if s.TwoAggressor {
			rho = p.RhoTwoAggressor(s.TAggOnNs, s.TRPNs, float64(k.b1), float64(k.b2))
		} else {
			rho = p.RhoHammer(s.TAggOnNs, s.TRPNs, float64(k.b1))
		}
		out = append(out, ColumnClass{Frac: float64(counts[k]) / 8, Rho: rho})
	}
	if idle > 0 {
		out = append(out, ColumnClass{Frac: float64(idle) / 8, Rho: p.RhoIdle()})
	}
	return out
}

// AtRiskFraction returns the total fraction of cells covered by classes.
func AtRiskFraction(classes []ColumnClass) float64 {
	f := 0.0
	for _, c := range classes {
		f += c.Frac
	}
	return f
}
