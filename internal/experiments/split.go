package experiments

import (
	"fmt"
	"math"
)

// Adaptive shard splitting.
//
// A plan whose cost is concentrated in a few heavy shards parallelizes
// poorly: the run's critical path is its single heaviest shard no matter
// how many workers are available. The dominant plan builders therefore
// describe their work as an ordered list of *atoms* — the smallest units
// that still have an independent keyed RNG stream (one module sweep, one
// simulation run, one sample chunk) — and pack contiguous atoms into
// sub-shards whose summed cost stays within a budget derived from
// Config.MaxShardShare.
//
// The decomposition is a pure function of Config, so every machine in a
// distributed run enumerates the same sub-shards, and splitting never
// changes results: each atom's RNG stream is keyed by its atom coordinates
// (not by which sub-shard ran it), sub-shards carry raw per-atom values,
// and the merge folds atoms in canonical order. MaxShardShare = 1 packs
// every atom of a logical shard into one range through the same code path,
// which is what makes the split-vs-unsplit byte-identity property testable
// rather than aspirational (TestSplitUnsplitBitIdentical).
//
// Atom costs are splitter weights only: each estimates an atom's
// single-core runtime in milliseconds under the default (Small) profile,
// from the cost* constants below (calibrated against the package
// benchmarks). packAtoms reads them to size sub-shards; nothing else
// does, and they never affect results.

const (
	// defaultMaxShardShare is the split budget when Config.MaxShardShare
	// is unset: no sub-shard should estimate above ~10% of its plan.
	defaultMaxShardShare = 0.10

	// costCountDrawMs is one core.CountsSampler draw over a subarray
	// (BenchmarkStatisticalSubarray-scale work).
	costCountDrawMs = 0.7
	// costTTFSampleMs is one order-statistic TTF draw
	// (BenchmarkTTFSample-scale work).
	costTTFSampleMs = 0.04
	// costMemsimMsPerMInstr is simulated memsim work per million core
	// instructions (warmup included).
	costMemsimMsPerMInstr = 1.5
)

// splitBudget returns the per-shard cost budget for a plan whose atom costs sum
// to total: MaxShardShare × total, or +Inf when splitting is disabled.
func (c Config) splitBudget(total float64) float64 {
	share := c.MaxShardShare
	if share <= 0 {
		share = defaultMaxShardShare
	}
	if share >= 1 {
		return math.Inf(1)
	}
	return share * total
}

// costMemsimRunMs estimates one memsim measurement run over the given
// core count at the config's instruction scale.
func costMemsimRunMs(c Config, cores int) float64 {
	instr := float64(c.MeasureInstr) + float64(c.MeasureInstr/5) // + warmup
	return float64(cores) * instr * costMemsimMsPerMInstr / 1e6
}

// atomRange is a contiguous run [Start, End) of a logical shard's atoms,
// assigned to one sub-shard.
type atomRange struct{ Start, End int }

// covers reports whether the range spans all n atoms — the unsplit case,
// which keeps the legacy label (no range coordinate).
func (a atomRange) covers(n int) bool { return a.Start == 0 && a.End == n }

// kv renders the range as a label coordinate value, e.g. "0-12".
func (a atomRange) kv() string { return fmt.Sprintf("%d-%d", a.Start, a.End-1) }

// packAtoms greedily packs contiguous atoms into ranges whose summed cost
// stays within budget. Deterministic: first-fit in atom order. An atom
// whose own cost exceeds the budget gets a range of its own — atoms are
// the splitting floor.
func packAtoms(costs []float64, budget float64) []atomRange {
	var out []atomRange
	for i := 0; i < len(costs); {
		j := i + 1
		sum := costs[i]
		for j < len(costs) && sum+costs[j] <= budget {
			sum += costs[j]
			j++
		}
		out = append(out, atomRange{i, j})
		i = j
	}
	return out
}

// sumCosts totals a cost slice.
func sumCosts(costs []float64) float64 {
	t := 0.0
	for _, c := range costs {
		t += c
	}
	return t
}

// uniformCosts returns n atoms of equal cost.
func uniformCosts(n int, cost float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = cost
	}
	return out
}
