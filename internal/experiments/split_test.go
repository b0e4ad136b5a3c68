package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

// TestPackAtoms pins the packing algorithm: contiguous, deterministic,
// budget-respecting, with oversized atoms isolated.
func TestPackAtoms(t *testing.T) {
	cases := []struct {
		costs  []int64
		budget int64
		want   []atomRange
	}{
		{[]int64{1, 1, 1, 1}, 10, []atomRange{{0, 4}}},
		{[]int64{1, 1, 1, 1}, 2, []atomRange{{0, 2}, {2, 4}}},
		{[]int64{1, 1, 1}, 1, []atomRange{{0, 1}, {1, 2}, {2, 3}}},
		// An atom over budget still gets a range of its own.
		{[]int64{5, 1, 1}, 2, []atomRange{{0, 1}, {1, 3}}},
		{[]int64{1, 5, 1}, 2, []atomRange{{0, 1}, {1, 2}, {2, 3}}},
		{[]int64{1, 1, 1, 1}, math.MaxInt64, []atomRange{{0, 4}}},
		// A range that sums exactly to the budget fits: 70 × 640 µs.
		{uniformCosts(70, 640_000), 44_800_000, []atomRange{{0, 70}}},
		// The full-profile Micron ttf cell: 12 modules of twelve 16-sample
		// chunks and one 8-sample chunk.
		{micronTTFCosts(), 44_800_000, []atomRange{{0, 72}, {72, 145}, {145, 156}}},
	}
	for i, c := range cases {
		got := packAtoms(c.costs, c.budget)
		if len(got) != len(c.want) {
			t.Fatalf("case %d: got %v want %v", i, got, c.want)
		}
		for j := range got {
			if got[j] != c.want[j] {
				t.Fatalf("case %d: got %v want %v", i, got, c.want)
			}
		}
	}
}

// micronTTFCosts returns the atom costs of one full-profile Micron ttf
// cell.
func micronTTFCosts() []int64 {
	var costs []int64
	for m := 0; m < 12; m++ {
		costs = append(costs, uniformCosts(12, 640_000)...)
		costs = append(costs, 320_000)
	}
	return costs
}

// TestSplitUnsplitBitIdentical is the splitting tentpole's invariant: how
// a plan's atoms are packed into shards must never show in its output.
// Each split-capable experiment runs unsplit (MaxShardShare=1), aggressively
// split serially, and aggressively split on 4 workers — all three renders
// must be byte-identical to the default profile's serial report (the shared
// smallSerial run, which small.sha256 pins), and the aggressive plan must
// actually have more shards than the unsplit one (so the test can't pass
// vacuously).
func TestSplitUnsplitBitIdentical(t *testing.T) {
	unsplit := Small()
	unsplit.MaxShardShare = 1
	split := Small()
	split.MaxShardShare = 0.004
	for _, id := range []string{"fig11", "fig13", "fig15", "fig23", "ttf"} {
		id := id
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("experiment %s missing", id)
			}
			up, err := e.Plan(unsplit)
			if err != nil {
				t.Fatal(err)
			}
			sp, err := e.Plan(split)
			if err != nil {
				t.Fatal(err)
			}
			if len(sp.Shards) <= len(up.Shards) {
				t.Fatalf("aggressive split produced %d shards, unsplit %d — splitting inert",
					len(sp.Shards), len(up.Shards))
			}
			ref := smallSerial(t, e).String()
			for _, run := range []struct {
				name    string
				cfg     Config
				workers int
			}{{"unsplit", unsplit, 1}, {"split", split, 1}, {"split -j4", split, 4}} {
				r, err := e.RunWith(context.Background(), run.cfg, run.workers)
				if err != nil {
					t.Fatal(err)
				}
				if got := r.String(); got != ref {
					t.Fatalf("%s output differs from the default profile's:\n--- default ---\n%s\n--- %s ---\n%s",
						run.name, ref, run.name, got)
				}
			}
		})
	}
}

// TestSplitShardLabelsExtendScheme verifies sub-shard labels stay inside
// the canonical id/key=value scheme with a range coordinate, and that the
// unsplit plan keeps the legacy labels (no range coordinate at all).
func TestSplitShardLabelsExtendScheme(t *testing.T) {
	split := Small()
	split.MaxShardShare = 0.004
	unsplit := Small()
	unsplit.MaxShardShare = 1
	rangeKeys := map[string]bool{"cells": true, "modules": true, "chunks": true, "runs": true, "draws": true}
	for _, id := range []string{"fig11", "fig13", "fig15", "fig23", "ttf"} {
		e, _ := ByID(id)
		sp, err := e.Plan(split)
		if err != nil {
			t.Fatal(err)
		}
		ranged := 0
		for _, s := range sp.Shards {
			coords := strings.Split(s.Label, "/")
			last := coords[len(coords)-1]
			key, val, _ := strings.Cut(last, "=")
			if rangeKeys[key] {
				ranged++
				if !strings.Contains(val, "-") {
					t.Errorf("%s: range coordinate %q is not lo-hi", s.Label, last)
				}
			}
		}
		if ranged == 0 {
			t.Errorf("%s: aggressive split produced no range-labelled shards", id)
		}
		up, err := e.Plan(unsplit)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range up.Shards {
			coords := strings.Split(s.Label, "/")
			key, _, _ := strings.Cut(coords[len(coords)-1], "=")
			if rangeKeys[key] {
				t.Errorf("%s: unsplit plan leaked a range coordinate: %s", id, s.Label)
			}
		}
	}
}

// TestDefaultProfileSplits checks the default split budget from the plan
// labels alone. At Small(), fig13, fig23 and ttf split, and the "lo-hi"
// ranges of every logical shard start at atom 0 and tile it without gaps
// or overlaps, in plan order. fig11's 15 and fig15's 60 grid cells each
// already fit the budget, so they keep unsplit labels.
func TestDefaultProfileSplits(t *testing.T) {
	for id, wantSplit := range map[string]bool{"fig11": false, "fig13": true, "fig15": false, "fig23": true, "ttf": true} {
		e, _ := ByID(id)
		plan, err := e.Plan(Small())
		if err != nil {
			t.Fatal(err)
		}
		next := map[string]int{} // logical shard label → next expected lo
		for _, s := range plan.Shards {
			i := strings.LastIndex(s.Label, "/")
			base, last := s.Label[:i], s.Label[i+1:]
			_, val, _ := strings.Cut(last, "=")
			loS, hiS, ok := strings.Cut(val, "-")
			lo, errLo := strconv.Atoi(loS)
			hi, errHi := strconv.Atoi(hiS)
			if !ok || errLo != nil || errHi != nil {
				continue // an unsplit shard: no range coordinate
			}
			if lo != next[base] || hi < lo {
				t.Errorf("%s: range %d-%d, want it to start at %d", s.Label, lo, hi, next[base])
			}
			next[base] = hi + 1
		}
		if split := len(next) > 0; split != wantSplit {
			t.Errorf("%s: range-labelled shards at the small profile: %v, want %v", id, split, wantSplit)
		}
	}
}
