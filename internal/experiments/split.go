package experiments

import (
	"context"
	"fmt"
	"math"
)

// Adaptive shard splitting.
//
// A plan whose cost is concentrated in a few heavy shards parallelizes
// poorly: the run's critical path is its single heaviest shard no matter
// how many workers are available. The dominant plan builders therefore
// describe each logical shard as a splitCell — an ordered list of *atoms*,
// the smallest units that still have an independent keyed RNG stream (one
// module sweep, one simulation run, one sample chunk) — and splitShards
// packs contiguous atoms into sub-shards whose summed cost stays within a
// budget derived from Config.MaxShardShare.
//
// The decomposition is a pure function of Config, so every machine in a
// distributed run enumerates the same sub-shards, and splitting never
// changes results: each atom's RNG stream is keyed by its atom coordinates
// (not by which sub-shard ran it), a sub-shard's part is just its atoms'
// values ([]T), and the gather reads them back in plan order — the order
// the engine, the dispatcher and the service deliver parts in.
// MaxShardShare = 1 packs every atom of a cell into one range through the
// same code path, which is what makes the split-vs-unsplit byte-identity
// property testable rather than aspirational (TestSplitUnsplitBitIdentical).
//
// Atom costs are splitter weights only: each estimates an atom's
// single-core runtime in integer nanoseconds under the default (Small)
// profile, from the cost* constants below (calibrated against the package
// benchmarks). Integers keep a plan's total exact in any summation order,
// so the budget, and with it every shard label, cannot depend on how a
// plan happens to add its costs up. splitShards reads them to size
// sub-shards; nothing else does, and they never affect results.

const (
	// defaultMaxShardShare is the split budget when Config.MaxShardShare
	// is unset: no sub-shard should estimate above ~10% of its plan.
	defaultMaxShardShare = 0.10

	// costCountDrawNs is one core.CountsSampler draw over a subarray
	// (BenchmarkStatisticalSubarray-scale work).
	costCountDrawNs = 700_000
	// costTTFSampleNs is one order-statistic TTF draw
	// (BenchmarkTTFSample-scale work).
	costTTFSampleNs = 40_000
)

// costMemsimRunNs estimates one memsim measurement run over the given
// core count at the config's instruction scale: 3 ns per 2 core
// instructions, warmup included.
func costMemsimRunNs(c Config, cores int) int64 {
	instr := c.MeasureInstr + c.MeasureInstr/5
	return int64(cores) * instr * 3 / 2
}

// atomRange is a contiguous run [Start, End) of a cell's atoms, assigned
// to one sub-shard.
type atomRange struct{ Start, End int }

// kv renders the range as a label coordinate value, e.g. "0-12".
func (a atomRange) kv() string { return fmt.Sprintf("%d-%d", a.Start, a.End-1) }

// packAtoms greedily packs contiguous atoms into ranges whose summed cost
// stays within budget. Deterministic: first-fit in atom order. An atom
// whose own cost exceeds the budget gets a range of its own — atoms are
// the splitting floor.
func packAtoms(costs []int64, budget int64) []atomRange {
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

// uniformCosts returns n atoms of equal cost.
func uniformCosts(n int, cost int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = cost
	}
	return out
}

// splitCell is one logical shard of a split plan.
type splitCell[T any] struct {
	// kv holds the label coordinates; an unsplit cell's label is exactly
	// these.
	kv []string
	// rangeKey names the coordinate a sub-shard appends for its atom
	// range, e.g. "cells" in "fig11/mfr=Micron/iv=64ms/cells=0-11".
	rangeKey string
	// costs holds one estimated cost per atom in nanoseconds; its length
	// is the cell's atom count.
	costs []int64
	// atom computes atom i. It must draw only from RNG streams keyed by
	// the atom's own coordinates.
	atom func(i int) (T, error)
}

// splitShards packs every cell's atoms into sub-shards under the budget
// MaxShardShare × (the plan's summed atom costs) and returns them in cell
// order, with the gather a merge reads them back through: gather takes the
// parts in plan order and returns each cell's atom values in atom order,
// after checking every part's type and length.
func splitShards[T any](cfg Config, id string, cells []splitCell[T]) ([]Shard, func(parts []any) ([][]T, error)) {
	var total int64
	for _, c := range cells {
		for _, cost := range c.costs {
			total += cost
		}
	}
	share := cfg.MaxShardShare
	if share <= 0 {
		share = defaultMaxShardShare
	}
	budget := int64(math.MaxInt64)
	if share < 1 {
		budget = int64(share * float64(total))
	}

	type slot struct{ cell, atoms int }
	var shards []Shard
	var slots []slot
	for ci, c := range cells {
		ranges := packAtoms(c.costs, budget)
		for _, ar := range ranges {
			ar := ar
			kv := c.kv
			if len(ranges) > 1 {
				kv = append(kv[:len(kv):len(kv)], c.rangeKey, ar.kv())
			}
			atom := c.atom
			shards = append(shards, Shard{
				Label: shardLabel(id, kv...),
				Run: func(context.Context) (any, error) {
					vals := make([]T, 0, ar.End-ar.Start)
					for i := ar.Start; i < ar.End; i++ {
						v, err := atom(i)
						if err != nil {
							return nil, err
						}
						vals = append(vals, v)
					}
					return vals, nil
				},
			})
			slots = append(slots, slot{ci, ar.End - ar.Start})
		}
	}

	gather := func(parts []any) ([][]T, error) {
		if len(parts) != len(slots) {
			return nil, fmt.Errorf("%s: %d parts, want %d", id, len(parts), len(slots))
		}
		out := make([][]T, len(cells))
		for ci, c := range cells {
			out[ci] = make([]T, 0, len(c.costs))
		}
		for i, raw := range parts {
			vals, ok := raw.([]T)
			if !ok {
				return nil, fmt.Errorf("%s: part %d has type %T, want %T", id, i, raw, vals)
			}
			if len(vals) != slots[i].atoms {
				return nil, fmt.Errorf("%s: part %d has %d atoms, want %d", id, i, len(vals), slots[i].atoms)
			}
			out[slots[i].cell] = append(out[slots[i].cell], vals...)
		}
		return out, nil
	}
	return shards, gather
}
