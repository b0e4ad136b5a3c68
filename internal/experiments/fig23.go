package experiments

import (
	"fmt"

	"columndisturb/internal/chipdb"
	"columndisturb/internal/core"
	"columndisturb/internal/dram"
	"columndisturb/internal/memsim"
	"columndisturb/internal/sim/stats"
)

func init() {
	register(Experiment{
		ID:    "fig23",
		Paper: "Fig 23, Takeaway 12",
		Title: "RAIDR speedup vs weak-row proportion (Bloom filter vs bitmap tracker)",
		Plan:  planFig23,
	})
}

// fig23Fractions is the swept weak-row proportion grid.
var fig23Fractions = []float64{1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 2e-3, 3e-3, 4e-3,
	5e-3, 1e-2, 2e-2, 5e-2, 0.1, 0.2, 0.3, 0.5}

// fig23Arm is one (tracker, weak fraction) curve point.
type fig23Arm struct {
	Tracker memsim.Tracker
	W       float64
}

// fig23Arms enumerates the curve points in presentation order. The paper
// sweeps the bloom variant only to 0.4% (it has saturated by then).
func fig23Arms() []fig23Arm {
	var arms []fig23Arm
	for _, tracker := range []memsim.Tracker{memsim.TrackerBloom, memsim.TrackerBitmap} {
		for _, w := range fig23Fractions {
			if tracker == memsim.TrackerBloom && w > 4e-3 {
				continue
			}
			arms = append(arms, fig23Arm{tracker, w})
		}
	}
	return arms
}

// planFig23 shards Fig 23 by workload mix, splitting each mix into
// simulation-run atoms: each atom is one memsim measurement (a solo
// baseline set, a refresh baseline, or one curve arm), so the per-mix wall
// time no longer gates the whole plan. The merge reduces raw IPCs to
// weighted speedups and averages across mixes in canonical order. The M8
// weak-fraction markers split by subarray draw on stream 23.
func planFig23(cfg Config) (*Plan, error) {
	sys := memsim.DefaultSystem()
	sys.MeasureInstr = cfg.MeasureInstr
	sys.WarmupInstr = cfg.MeasureInstr / 5
	if cfg.MLP > 0 {
		sys.MLP = cfg.MLP
	}
	// Reject a broken timing set at plan time, before any shard is
	// scheduled (locally or on a remote worker).
	if _, err := sys.Timing(); err != nil {
		return nil, fmt.Errorf("fig23: %v", err)
	}
	mixes := memsim.Mixes(cfg.Mixes)
	seed := memsim.RunSeed(cfg.Seed, 23)
	arms := fig23Arms()

	// runAtom executes one simulation atom of a mix, returning per-core
	// IPCs: atom 0 is the solo baselines (the weighted-speedup
	// denominators), atom 1 the no-refresh run, atom 2 the 64 ms periodic
	// baseline, atom 3+k curve arm k. Every weighted-speedup reduction
	// happens in the merge (memsim.WeightedSpeedupFrom), so the numbers are
	// independent of which sub-shard — or worker — ran which atom.
	runAtom := func(mix []memsim.CoreWorkload, atom int) ([]float64, error) {
		switch {
		case atom == 0:
			solos := make([]float64, len(mix))
			for j, w := range mix {
				ipc, err := memsim.SoloIPC(sys, w, seed)
				if err != nil {
					return nil, err
				}
				solos[j] = ipc
			}
			return solos, nil
		case atom == 1:
			return memsim.MixIPCs(sys, mix, memsim.NoRefresh(), seed)
		case atom == 2:
			p64, err := memsim.PeriodicRefresh(sys, 64)
			if err != nil {
				return nil, err
			}
			return memsim.MixIPCs(sys, mix, p64, seed)
		default:
			arm := arms[atom-3]
			rc := memsim.DefaultRAIDR(arm.Tracker)
			rc.WeakFraction = arm.W
			eng, _, err := memsim.NewRAIDR(sys, rc)
			if err != nil {
				return nil, err
			}
			return memsim.MixIPCs(sys, mix, eng, seed)
		}
	}

	// A mix cell's atom 0 runs its single-core solos, every other atom one
	// multi-core measurement.
	var cells []splitCell[[]float64]
	for i, mix := range mixes {
		mix := mix
		costs := make([]int64, 3+len(arms))
		costs[0] = int64(len(mix)) * costMemsimRunNs(cfg, 1)
		for a := 1; a < len(costs); a++ {
			costs[a] = costMemsimRunNs(cfg, len(mix))
		}
		cells = append(cells, splitCell[[]float64]{
			kv:       []string{"mix", fmt.Sprintf("%d", i)},
			rangeKey: "runs",
			costs:    costs,
			atom:     func(a int) ([]float64, error) { return runAtom(mix, a) },
		})
	}
	// The marker cell shares the mixes' atom type: each draw is a
	// one-value list.
	cells = append(cells, splitCell[[]float64]{
		kv:       []string{"markers", "M8"},
		rangeKey: "draws",
		costs:    uniformCosts(2*cfg.SubarraysPerModule, costCountDrawNs),
		atom: func(d int) ([]float64, error) {
			return []float64{m8WeakFraction(cfg, d)}, nil
		},
	})
	shards, gather := splitShards(cfg, "fig23", cells)

	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig23",
			Title:   "RAIDR weighted speedup normalized to No Refresh (and benefit over 64 ms periodic refresh)",
			Headers: []string{"tracker", "weak fraction", "WS/WS(noref)", "benefit", "eff. weak frac"},
		}
		gathered, err := gather(parts)
		if err != nil {
			return nil, err
		}
		// Reduce each mix's runs to weighted speedups.
		type mixWS struct {
			wsNone, wsP64 float64
			ws            []float64
		}
		var perMix []mixWS
		for _, runs := range gathered[:len(mixes)] {
			solos := runs[0]
			w := mixWS{
				wsNone: memsim.WeightedSpeedupFrom(runs[1], solos),
				wsP64:  memsim.WeightedSpeedupFrom(runs[2], solos),
				ws:     make([]float64, len(arms)),
			}
			for ai := range arms {
				w.ws[ai] = memsim.WeightedSpeedupFrom(runs[3+ai], solos)
			}
			perMix = append(perMix, w)
		}
		n := float64(len(perMix))
		avg := func(sel func(mixWS) float64) float64 {
			sum := 0.0
			for _, w := range perMix {
				sum += sel(w)
			}
			return sum / n
		}
		wsNone := avg(func(w mixWS) float64 { return w.wsNone })
		wsP64 := avg(func(w mixWS) float64 { return w.wsP64 })

		// The first SubarraysPerModule marker draws are the retention
		// sweep, the rest the ColumnDisturb sweep.
		draws := gathered[len(mixes)]
		markerVals := make([]float64, len(draws))
		for d, v := range draws {
			markerVals[d] = v[0]
		}
		retFrac := stats.Mean(markerVals[:cfg.SubarraysPerModule])
		cdFrac := stats.Mean(markerVals[cfg.SubarraysPerModule:])

		type point struct{ norm, benefit float64 }
		curves := map[memsim.Tracker]map[float64]point{
			memsim.TrackerBloom:  {},
			memsim.TrackerBitmap: {},
		}
		names := map[memsim.Tracker]string{memsim.TrackerBloom: "bloom-8Kb-6h", memsim.TrackerBitmap: "bitmap"}
		for ai, arm := range arms {
			ai := ai
			ws := avg(func(w mixWS) float64 { return w.ws[ai] })
			pt := point{
				norm:    ws / wsNone,
				benefit: memsim.BenefitFraction(ws, wsP64, wsNone),
			}
			curves[arm.Tracker][arm.W] = pt
			// The effective weak fraction is mix-independent tracker
			// geometry: derive it here rather than shipping N identical
			// copies in the mix parts.
			rc := memsim.DefaultRAIDR(arm.Tracker)
			rc.WeakFraction = arm.W
			_, info, err := memsim.NewRAIDR(sys, rc)
			if err != nil {
				return nil, err
			}
			res.AddRow(names[arm.Tracker], fmt.Sprintf("%.2g", arm.W), fmtF(pt.norm), fmtF(pt.benefit),
				fmt.Sprintf("%.4f", float64(info.EffectiveWeakRows)/float64(sys.TotalRows())))
		}

		res.AddNote("example Micron module M8: retention-weak fraction %.5f, ColumnDisturb-weak fraction %.4f (1024 ms, 65 °C)",
			retFrac, cdFrac)

		nearest := func(tr memsim.Tracker, w float64) point {
			bestD := -1.0
			var best point
			for f, p := range curves[tr] {
				d := f - w
				if d < 0 {
					d = -d
				}
				if bestD < 0 || d < bestD {
					bestD, best = d, p
				}
			}
			return best
		}
		bloomRet := nearest(memsim.TrackerBloom, retFrac)
		bloomCD := nearest(memsim.TrackerBloom, cdFrac)
		bmRet := nearest(memsim.TrackerBitmap, retFrac)
		bmCD := nearest(memsim.TrackerBitmap, cdFrac)
		res.AddNote("bloom RAIDR benefit: %.0f%% → %.0f%% of the no-refresh headroom as M8's weak rows grow to ColumnDisturb levels (paper: 31 pp speedup reduction; saturated filter ⇒ ≈99 pp benefit loss)",
			bloomRet.benefit*100, bloomCD.benefit*100)
		res.AddNote("bitmap RAIDR benefit: %.0f%% → %.0f%% over the same growth (paper: 53 pp speedup reduction)",
			bmRet.benefit*100, bmCD.benefit*100)
		res.AddNote("Takeaway 12: ColumnDisturb can completely negate low-area (Bloom) retention-aware refresh and greatly reduce high-area (bitmap) variants")
		return res, nil
	}

	return &Plan{Shards: shards, Merge: merge}, nil
}

// m8WeakFraction measures one subarray draw of the example Micron module's
// (M8) weak-row proportion at the RAIDR strong-row retention time (1024 ms,
// 65 °C). Draws below SubarraysPerModule sample the retention sweep, the
// rest the worst-case ColumnDisturb sweep; each draw runs on its own keyed
// stream (23, draw), so any sub-shard grouping samples identically.
func m8WeakFraction(cfg Config, draw int) float64 {
	m, _ := chipdb.ByID("M8")
	p := m.BuildParams()
	g := m.Geometry()
	r := cfg.shardRand(23, uint64(draw))
	classes := core.RetentionClasses(p, dram.PatFF)
	if draw >= cfg.SubarraysPerModule {
		classes = core.AggressorSubarrayClasses(p, worstCaseSetup())
	}
	s := sampleSubarrayCounts(m, classes, 65, 1024, 1, r)
	return float64(s[0].RowsWith) / float64(g.RowsPerSubarray)
}
