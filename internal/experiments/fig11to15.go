package experiments

import (
	"context"
	"fmt"
	"sort"

	"columndisturb/internal/chipdb"
	"columndisturb/internal/core"
	"columndisturb/internal/dram"
	"columndisturb/internal/sim/stats"
)

func init() {
	register(Experiment{
		ID:    "fig11",
		Paper: "Fig 11, Obs 13-14",
		Title: "Blast radius vs refresh interval at 65 °C",
		Plan:  planFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Paper: "Fig 12, Obs 15",
		Title: "ColumnDisturb on HBM2 chips",
		Plan:  planFig12,
	})
	register(Experiment{
		ID:    "fig13",
		Paper: "Fig 13, Obs 16",
		Title: "Time to first ColumnDisturb bitflip vs temperature",
		Plan:  planFig13,
	})
	register(Experiment{
		ID:    "fig14",
		Paper: "Fig 14, Obs 17",
		Title: "Fraction of cells with bitflips vs temperature (512 ms)",
		Plan:  planFig14,
	})
	register(Experiment{
		ID:    "fig15",
		Paper: "Fig 15, Obs 18-19",
		Title: "Blast radius grid: temperature × refresh interval",
		Plan:  planFig15,
	})
	registerShardType(blastValsPart{})
	registerShardType(fig12Part{})
	registerShardType(fig13Part{})
	registerShardType(fig14Part{})
}

// shortIntervalsMs are the refresh-window-scale intervals of Figs 11/15.
func shortIntervalsMs() []float64 { return []float64{64, 128, 256, 512, 1024} }

// blastValsPart is one sub-shard of a Fig 11/15 grid cell: raw blast-radius
// value lists for a contiguous atom range. Atom t of a cell is
// (module t/2, sweep t%2), sweep 0 = ColumnDisturb, 1 = retention; each
// atom samples SubarraysPerModule subarrays of one module under one class
// set, on its own keyed RNG stream. The merge reassembles cells from atoms
// in canonical order, so any grouping of atoms into sub-shards renders the
// same Result.
type blastValsPart struct {
	Mfr        chipdb.Manufacturer
	TempC      float64
	IntervalMs float64
	Start      int         // first atom index covered by this part
	Vals       [][]float64 // per-atom values, atoms Start..Start+len(Vals)-1
}

// blastAtom samples one (module, sweep) atom of a blast-radius grid cell.
func blastAtom(cfg Config, m chipdb.ModuleSpec, sweep int, tempC, iv float64,
	stream uint64, shard ...uint64) []float64 {
	r := cfg.shardRand(stream, shard...)
	p := m.BuildParams()
	var classes []core.ColumnClass
	if sweep == 0 {
		classes = core.AggressorSubarrayClasses(p, worstCaseSetup())
	} else {
		classes = core.RetentionClasses(p, dram.PatFF)
	}
	return blastStats(sampleSubarrayCounts(m, classes, tempC, iv, cfg.SubarraysPerModule, r))
}

// blastCellShards builds the sub-shards of one (manufacturer [,temp],
// interval) grid cell, packing (module, sweep) atoms into ranges within
// budget. coords are the cell's shard coordinates; each atom extends them
// with its atom index, so its RNG stream is independent of the packing.
func blastCellShards(cfg Config, id string, budget float64, mfr chipdb.Manufacturer,
	tempC, iv float64, stream uint64, baseKV []string, coords []uint64) []Shard {
	mods := chipdb.ByManufacturer(mfr)
	nAtoms := 2 * len(mods)
	costs := uniformCosts(nAtoms, float64(cfg.SubarraysPerModule)*costCountDrawMs)
	var shards []Shard
	for _, ar := range packAtoms(costs, budget) {
		ar := ar
		kv := append([]string(nil), baseKV...)
		if !ar.covers(nAtoms) {
			kv = append(kv, "cells", ar.kv())
		}
		shards = append(shards, Shard{
			Label: shardLabel(id, kv...),
			Run: func(context.Context) (any, error) {
				part := blastValsPart{Mfr: mfr, TempC: tempC, IntervalMs: iv, Start: ar.Start}
				for t := ar.Start; t < ar.End; t++ {
					shard := append(append([]uint64(nil), coords...), uint64(t))
					part.Vals = append(part.Vals,
						blastAtom(cfg, mods[t/2], t%2, tempC, iv, stream, shard...))
				}
				return part, nil
			},
		})
	}
	return shards
}

// blastKey identifies one grid cell across its sub-shards.
type blastKey struct {
	Mfr        chipdb.Manufacturer
	TempC      float64
	IntervalMs float64
}

// blastCell is a reassembled grid cell.
type blastCell struct{ CD, Ret stats.Summary }

// foldBlastParts groups blastValsPart sub-shards by grid cell, orders each
// cell's atoms canonically, and summarizes the ColumnDisturb (even-atom)
// and retention (odd-atom) value streams — the same module-order
// concatenation an unsplit cell produces.
func foldBlastParts(parts []any) (map[blastKey]blastCell, error) {
	grouped := map[blastKey][]blastValsPart{}
	for _, raw := range parts {
		part, ok := raw.(blastValsPart)
		if !ok {
			return nil, fmt.Errorf("blast merge: part has type %T, want blastValsPart", raw)
		}
		k := blastKey{part.Mfr, part.TempC, part.IntervalMs}
		grouped[k] = append(grouped[k], part)
	}
	out := map[blastKey]blastCell{}
	for k, cellParts := range grouped {
		sort.Slice(cellParts, func(i, j int) bool { return cellParts[i].Start < cellParts[j].Start })
		var cd, ret []float64
		for _, p := range cellParts {
			for off, vals := range p.Vals {
				if (p.Start+off)%2 == 0 {
					cd = append(cd, vals...)
				} else {
					ret = append(ret, vals...)
				}
			}
		}
		out[k] = blastCell{CD: stats.Summarize(cd), Ret: stats.Summarize(ret)}
	}
	return out, nil
}

// planFig11 shards Fig 11 by (manufacturer × interval) at 65 °C, splitting
// cells by (module, sweep) atoms when a cell would dominate the plan.
func planFig11(cfg Config) (*Plan, error) {
	mfrs := chipdb.Manufacturers()
	ivs := shortIntervalsMs()
	total := 0.0
	for _, mfr := range mfrs {
		total += float64(len(ivs)) * 2 * float64(len(chipdb.ByManufacturer(mfr))) *
			float64(cfg.SubarraysPerModule) * costCountDrawMs
	}
	budget := cfg.splitBudget(total)
	var shards []Shard
	for mi, mfr := range mfrs {
		for ii, iv := range ivs {
			shards = append(shards, blastCellShards(cfg, "fig11", budget, mfr, 65, iv, 11,
				[]string{"mfr", string(mfr), "iv", fmt.Sprintf("%.0fms", iv)},
				[]uint64{uint64(mi), uint64(ii)})...)
		}
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig11",
			Title:   "Rows with at least one bitflip per subarray at 65 °C (CD vs retention)",
			Headers: []string{"mfr", "interval(ms)", "CD mean", "CD max", "RET mean", "RET max"},
		}
		cells, err := foldBlastParts(parts)
		if err != nil {
			return nil, fmt.Errorf("fig11: %w", err)
		}
		type agg struct{ cdMean, cdMax, retMean, retMax float64 }
		at512 := map[chipdb.Manufacturer]agg{}
		at1024 := map[chipdb.Manufacturer]agg{}
		maxRatio := 0.0
		for _, mfr := range mfrs {
			for _, iv := range ivs {
				cell := cells[blastKey{mfr, 65, iv}]
				res.AddRow(string(mfr), fmt.Sprintf("%.0f", iv),
					fmtF(cell.CD.Mean), fmtF(cell.CD.Max), fmtF(cell.Ret.Mean), fmtF(cell.Ret.Max))
				a := agg{cell.CD.Mean, cell.CD.Max, cell.Ret.Mean, cell.Ret.Max}
				if iv == 512 {
					at512[mfr] = a
				}
				if iv == 1024 {
					at1024[mfr] = a
				}
				// Ratios over near-zero retention means are unbounded noise;
				// only count grid points with measurable retention.
				if cell.Ret.Mean >= 0.5 && cell.CD.Mean/cell.Ret.Mean > maxRatio {
					maxRatio = cell.CD.Mean / cell.Ret.Mean
				}
			}
		}
		res.AddNote("Obs 13 @512ms: CD rows mean H=%.1f M=%.1f S=%.1f (paper: 2 / 6 / 232); RET max H=%.1f M=%.1f S=%.1f (paper: ≤2)",
			at512[chipdb.SKHynix].cdMean, at512[chipdb.Micron].cdMean, at512[chipdb.Samsung].cdMean,
			at512[chipdb.SKHynix].retMax, at512[chipdb.Micron].retMax, at512[chipdb.Samsung].retMax)
		res.AddNote("Obs 13 @1024ms: CD rows max H=%.0f M=%.0f S=%.0f (paper: 52 / 353 / 1022); RET max H=%.0f M=%.0f S=%.0f (paper: 20 / 34 / 29)",
			at1024[chipdb.SKHynix].cdMax, at1024[chipdb.Micron].cdMax, at1024[chipdb.Samsung].cdMax,
			at1024[chipdb.SKHynix].retMax, at1024[chipdb.Micron].retMax, at1024[chipdb.Samsung].retMax)
		if maxRatio > 0 {
			res.AddNote("Obs 14: blast radius grows with the refresh interval; largest CD/RET mean ratio observed %.0fx", maxRatio)
		} else {
			res.AddNote("Obs 14: blast radius grows with the refresh interval; retention-weak rows are negligible at 65 °C in the scaled model")
		}
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}

// fig12Part is one (HBM2 chip, interval) cell: the rendered row plus the
// deterministic expected counts the Obs 15 ratios are built from.
type fig12Part struct {
	Row           []string
	IntervalMs    float64
	CDExp, RetExp float64
}

// planFig12 shards Fig 12 by (HBM2 chip × interval).
func planFig12(cfg Config) (*Plan, error) {
	ivs := []float64{1000, 2000, 4000}
	var shards []Shard
	for ci, m := range chipdb.HBM2Chips() {
		m := m
		p := m.BuildParams()
		g := m.Geometry()
		cdCls := core.AggressorSubarrayClasses(p, worstCaseSetup())
		retCls := core.RetentionClasses(p, dram.PatFF)
		for ii, iv := range ivs {
			ci, ii, iv := ci, ii, iv
			shards = append(shards, Shard{
				Label: shardLabel("fig12", "module", m.ID, "iv", fmt.Sprintf("%.0fs", iv/1000)),
				Run: func(context.Context) (any, error) {
					r := cfg.shardRand(12, uint64(ci), uint64(ii))
					cd := sampleSubarrayCounts(m, cdCls, 85, iv, cfg.SubarraysPerModule, r)
					cdMean, cdMin, cdMax := countStats(cd)
					retMean, _, _ := countStats(sampleSubarrayCounts(m, retCls, 85, iv, cfg.SubarraysPerModule, r))
					// The Obs 15 ratios use expected counts: sampled integer
					// counts at short intervals are too granular for stable
					// ratios.
					base := core.SubarrayConfig{Params: p, TempC: 85, DurationMs: iv,
						Rows: g.RowsPerSubarray, Cols: g.Cols}
					cdCfg, retCfg := base, base
					cdCfg.Classes, retCfg.Classes = cdCls, retCls
					return fig12Part{
						Row: []string{m.ID, fmt.Sprintf("%.0fs", iv/1000),
							fmtF(cdMean), fmtF(cdMin), fmtF(cdMax), fmtF(retMean)},
						IntervalMs: iv,
						CDExp:      core.ExpectedCount(cdCfg),
						RetExp:     core.ExpectedCount(retCfg),
					}, nil
				},
			})
		}
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig12",
			Title:   "ColumnDisturb vs retention bitflips per subarray on HBM2 chips",
			Headers: []string{"chip", "interval", "CD mean", "CD min", "CD max", "RET mean"},
		}
		cdSum := map[float64]float64{}
		retSum := map[float64]float64{}
		for _, raw := range parts {
			part := raw.(fig12Part)
			res.AddRow(part.Row...)
			cdSum[part.IntervalMs] += part.CDExp
			retSum[part.IntervalMs] += part.RetExp
		}
		res.AddNote("Obs 15: CD/RET ratio 1s=%.2fx 2s=%.2fx 4s=%.2fx (paper: 1.61x / 2.08x / 2.43x)",
			stats.Ratio(cdSum[1000], retSum[1000]),
			stats.Ratio(cdSum[2000], retSum[2000]),
			stats.Ratio(cdSum[4000], retSum[4000]))
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}

// fig13Part is one sub-shard of a (manufacturer, temperature) TTF
// distribution: per-module uncensored sample lists for a contiguous module
// (atom) range.
type fig13Part struct {
	Mfr   chipdb.Manufacturer
	TempC float64
	Start int
	Found [][]float64 // per-module samples, modules Start..Start+len-1
}

// planFig13 shards Fig 13 by (manufacturer × temperature), splitting each
// distribution by module atoms: each atom draws one module's uncensored
// TTF distribution on its own keyed stream.
func planFig13(cfg Config) (*Plan, error) {
	temps := []float64{45, 65, 85, 95}
	setup := worstCaseSetup()
	mfrs := chipdb.Manufacturers()
	atomCost := func(cfg Config) float64 {
		return float64(cfg.SubarraysPerModule) * costTTFSampleMs
	}
	total := 0.0
	for _, mfr := range mfrs {
		total += float64(len(temps)) * float64(len(chipdb.ByManufacturer(mfr))) * atomCost(cfg)
	}
	budget := cfg.splitBudget(total)
	var shards []Shard
	for mi, mfr := range mfrs {
		mods := chipdb.ByManufacturer(mfr)
		costs := uniformCosts(len(mods), atomCost(cfg))
		for ti, tC := range temps {
			mi, ti, mfr, tC := mi, ti, mfr, tC
			for _, ar := range packAtoms(costs, budget) {
				ar := ar
				kv := []string{"mfr", string(mfr), "T", fmt.Sprintf("%.0fC", tC)}
				if !ar.covers(len(mods)) {
					kv = append(kv, "modules", ar.kv())
				}
				shards = append(shards, Shard{
					Label: shardLabel("fig13", kv...),
					Run: func(context.Context) (any, error) {
						part := fig13Part{Mfr: mfr, TempC: tC, Start: ar.Start}
						for t := ar.Start; t < ar.End; t++ {
							r := cfg.shardRand(13, uint64(mi), uint64(ti), uint64(t))
							f, _ := sampleModuleTTFs(mods[t], setup, tC, 0, cfg.SubarraysPerModule, r)
							part.Found = append(part.Found, f)
						}
						return part, nil
					},
				})
			}
		}
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig13",
			Title:   "Time to first ColumnDisturb bitflip vs temperature (ms)",
			Headers: []string{"mfr", "temp(°C)", "min", "median", "max", "mean", ">512ms"},
		}
		type cellKey struct {
			Mfr   chipdb.Manufacturer
			TempC float64
		}
		grouped := map[cellKey][]fig13Part{}
		for _, raw := range parts {
			part, ok := raw.(fig13Part)
			if !ok {
				return nil, fmt.Errorf("fig13: part has type %T, want fig13Part", raw)
			}
			k := cellKey{part.Mfr, part.TempC}
			grouped[k] = append(grouped[k], part)
		}
		means := map[chipdb.Manufacturer]map[float64]float64{}
		for _, mfr := range mfrs {
			means[mfr] = map[float64]float64{}
			for _, tC := range temps {
				cellParts := grouped[cellKey{mfr, tC}]
				sort.Slice(cellParts, func(i, j int) bool { return cellParts[i].Start < cellParts[j].Start })
				var found []float64
				for _, p := range cellParts {
					for _, f := range p.Found {
						found = append(found, f...)
					}
				}
				if len(found) == 0 {
					res.AddRow(string(mfr), fmt.Sprintf("%.0f", tC), "-", "-", "-", "-", "-")
					continue
				}
				b := stats.BoxPlot(found)
				means[mfr][tC] = b.Mean
				over := 0
				for _, v := range found {
					if v > ttfCeilingMs {
						over++
					}
				}
				res.AddRow(string(mfr), fmt.Sprintf("%.0f", tC),
					fmtMs(b.Min), fmtMs(b.Median), fmtMs(b.Max), fmtMs(b.Mean),
					fmt.Sprintf("%d", over))
			}
		}
		res.AddNote("Obs 16: 45→95 °C mean TTF reduction: SK Hynix %.2fx, Micron %.2fx, Samsung %.2fx (paper: 9.05x / 5.15x / 1.96x)",
			stats.Ratio(means[chipdb.SKHynix][45], means[chipdb.SKHynix][95]),
			stats.Ratio(means[chipdb.Micron][45], means[chipdb.Micron][95]),
			stats.Ratio(means[chipdb.Samsung][45], means[chipdb.Samsung][95]))
		res.AddNote("method: uncensored distributions (the paper's 512 ms search ceiling would truncate the 45 °C tail; the >512ms column counts affected samples)")
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}

// fig14Part is one (manufacturer, temperature) expected-fraction pair.
type fig14Part struct {
	Mfr     chipdb.Manufacturer
	TempC   float64
	CD, Ret float64
}

// planFig14 shards Fig 14 by (manufacturer × temperature). The experiment
// is deterministic (expected fractions, no sampling), so shards carry no
// RNG at all.
func planFig14(cfg Config) (*Plan, error) {
	temps := []float64{45, 65, 85, 95}
	var shards []Shard
	for _, mfr := range chipdb.Manufacturers() {
		for _, tC := range temps {
			mfr, tC := mfr, tC
			shards = append(shards, Shard{
				Label: shardLabel("fig14", "mfr", string(mfr), "T", fmt.Sprintf("%.0fC", tC)),
				Run: func(context.Context) (any, error) {
					// Fraction-of-cells ratios at 512 ms reach below one
					// bitflip per sampled subarray; expected fractions keep
					// them well-defined.
					var cdFr, retFr, n float64
					for _, m := range chipdb.ByManufacturer(mfr) {
						p := m.BuildParams()
						g := m.Geometry()
						cells := float64(g.RowsPerSubarray) * float64(g.Cols)
						base := core.SubarrayConfig{Params: p, TempC: tC, DurationMs: 512,
							Rows: g.RowsPerSubarray, Cols: g.Cols}
						cdCfg, retCfg := base, base
						cdCfg.Classes = core.AggressorSubarrayClasses(p, worstCaseSetup())
						retCfg.Classes = core.RetentionClasses(p, dram.PatFF)
						cdFr += core.ExpectedCount(cdCfg) / cells
						retFr += core.ExpectedCount(retCfg) / cells
						n++
					}
					return fig14Part{Mfr: mfr, TempC: tC, CD: cdFr / n, Ret: retFr / n}, nil
				},
			})
		}
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig14",
			Title:   "Fraction of cells with bitflips per subarray at 512 ms vs temperature",
			Headers: []string{"mfr", "temp(°C)", "CD", "RET"},
		}
		cd := map[chipdb.Manufacturer]map[float64]float64{}
		ret := map[chipdb.Manufacturer]map[float64]float64{}
		for _, raw := range parts {
			part := raw.(fig14Part)
			if cd[part.Mfr] == nil {
				cd[part.Mfr] = map[float64]float64{}
				ret[part.Mfr] = map[float64]float64{}
			}
			cd[part.Mfr][part.TempC] = part.CD
			ret[part.Mfr][part.TempC] = part.Ret
			res.AddRow(string(part.Mfr), fmt.Sprintf("%.0f", part.TempC), fmtF(part.CD), fmtF(part.Ret))
		}
		res.AddNote("Obs 17: SK Hynix 85→95 °C increase: CD %.1fx vs RET %.1fx (paper: 72.96x vs 3.68x)",
			stats.Ratio(cd[chipdb.SKHynix][95], cd[chipdb.SKHynix][85]),
			stats.Ratio(ret[chipdb.SKHynix][95], ret[chipdb.SKHynix][85]))
		if ret[chipdb.Samsung][65] >= 1e-8 {
			res.AddNote("Obs 17: Samsung CD/RET at 65 °C: %.1fx (paper: 152.66x)",
				stats.Ratio(cd[chipdb.Samsung][65], ret[chipdb.Samsung][65]))
		} else {
			res.AddNote("Obs 17: Samsung CD dominates at 65 °C; retention is unmeasurably small in the scaled model (paper ratio: 152.66x)")
		}
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}

// planFig15 shards Fig 15 by (manufacturer × temperature × interval) —
// the repo's widest grid (60 cells), and the heavy sweep the engine
// benchmark measures — splitting cells by (module, sweep) atoms.
func planFig15(cfg Config) (*Plan, error) {
	temps := []float64{45, 65, 85, 95}
	mfrs := chipdb.Manufacturers()
	ivs := shortIntervalsMs()
	total := 0.0
	for _, mfr := range mfrs {
		total += float64(len(temps)*len(ivs)) * 2 * float64(len(chipdb.ByManufacturer(mfr))) *
			float64(cfg.SubarraysPerModule) * costCountDrawMs
	}
	budget := cfg.splitBudget(total)
	var shards []Shard
	for mi, mfr := range mfrs {
		for ti, tC := range temps {
			for ii, iv := range ivs {
				shards = append(shards, blastCellShards(cfg, "fig15", budget, mfr, tC, iv, 15,
					[]string{"mfr", string(mfr), "T", fmt.Sprintf("%.0fC", tC), "iv", fmt.Sprintf("%.0fms", iv)},
					[]uint64{uint64(mi), uint64(ti), uint64(ii)})...)
			}
		}
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "fig15",
			Title:   "Blast radius (rows with ≥1 bitflip per subarray) across temperature and refresh interval",
			Headers: []string{"mfr", "temp(°C)", "interval(ms)", "CD mean", "CD max", "RET mean", "RET max"},
		}
		cells, err := foldBlastParts(parts)
		if err != nil {
			return nil, fmt.Errorf("fig15: %w", err)
		}
		maxRatio := 0.0
		var micron45Max, samsung45Max float64
		for _, mfr := range mfrs {
			for _, tC := range temps {
				for _, iv := range ivs {
					cell := cells[blastKey{mfr, tC, iv}]
					res.AddRow(string(mfr), fmt.Sprintf("%.0f", tC), fmt.Sprintf("%.0f", iv),
						fmtF(cell.CD.Mean), fmtF(cell.CD.Max), fmtF(cell.Ret.Mean), fmtF(cell.Ret.Max))
					if cell.Ret.Mean >= 0.5 && cell.CD.Mean/cell.Ret.Mean > maxRatio {
						maxRatio = cell.CD.Mean / cell.Ret.Mean
					}
					if tC == 45 && iv == 1024 {
						switch mfr {
						case chipdb.Micron:
							micron45Max = cell.CD.Max
						case chipdb.Samsung:
							samsung45Max = cell.CD.Max
						}
					}
				}
			}
		}
		res.AddNote("Obs 18: at 45 °C/1024 ms CD reaches up to %.0f (Micron) and %.0f (Samsung) rows (paper: 39 / 150, RET ≤1)",
			micron45Max, samsung45Max)
		res.AddNote("Obs 18: largest CD/RET blast-radius mean ratio %.0fx (paper: up to 198x)", maxRatio)
		res.AddNote("Obs 19: blast radius grows with temperature; at 95 °C both mechanisms approach full subarrays")
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}
