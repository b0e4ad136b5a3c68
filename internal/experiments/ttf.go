package experiments

import (
	"fmt"

	"columndisturb/internal/chipdb"
	"columndisturb/internal/core"
	"columndisturb/internal/dram"
	"columndisturb/internal/sim/rng"
	"columndisturb/internal/sim/stats"
)

func init() {
	register(Experiment{
		ID:    "ttf",
		Paper: "§5 methodology (TTF distribution)",
		Title: "Time-to-first-bitflip distributions by manufacturer and temperature",
		Plan:  planTTF,
	})
	registerShardType([]ttfAtom(nil))
}

// worstCaseSetup is the paper's highest-vulnerability access configuration
// (§5 preamble): all-0 aggressor, all-1 victims, tAggOn = 70.2 µs.
func worstCaseSetup() core.PatternSetup {
	return core.PatternSetup{
		AggPattern:    dram.Pat00,
		VictimPattern: dram.PatFF,
		TAggOnNs:      70_200,
		TRPNs:         14,
	}
}

// ttfCeilingMs is the methodology's search ceiling: no refresh for 512 ms.
const ttfCeilingMs = 512.0

// ttfTempsC are the temperature points of the manufacturer-level TTF sweep.
var ttfTempsC = []float64{65, 85}

// sampleModuleTTFs draws per-subarray time-to-first-bitflip samples for a
// module under the given setup and temperature. With ceilingMs > 0, samples
// above the search ceiling are reported via notFound (the paper's 512 ms
// methodology); ceilingMs = 0 samples the uncensored distribution, which
// the comparative sweeps use to avoid censoring bias in mean ratios.
func sampleModuleTTFs(m chipdb.ModuleSpec, setup core.PatternSetup, tempC, ceilingMs float64,
	samples int, r *rng.Rand) (found []float64, notFound int) {
	g := m.Geometry()
	p := m.BuildParams()
	sampler := core.NewTTFSampler(core.SubarrayConfig{
		Params: p, TempC: tempC,
		Rows: g.RowsPerSubarray, Cols: g.Cols,
		Classes: core.AggressorSubarrayClasses(p, setup),
	})
	for i := 0; i < samples; i++ {
		ms, ok := sampler.Sample(ceilingMs, r)
		if !ok {
			notFound++
			continue
		}
		found = append(found, ms)
	}
	return found, notFound
}

// groupTTFs samples every module of a die group.
func groupTTFs(g chipdb.DieGroupInfo, setup core.PatternSetup, tempC, ceilingMs float64,
	perModule int, r *rng.Rand) (found []float64, notFound int) {
	for _, m := range g.Modules {
		f, nf := sampleModuleTTFs(m, setup, tempC, ceilingMs, perModule, r)
		found = append(found, f...)
		notFound += nf
	}
	return found, notFound
}

// mfrTTFs samples every module of one manufacturer (uncensored).
func mfrTTFs(mfr chipdb.Manufacturer, setup core.PatternSetup, tempC float64,
	perModule int, r *rng.Rand) (found []float64, notFound int) {
	for _, m := range chipdb.ByManufacturer(mfr) {
		f, nf := sampleModuleTTFs(m, setup, tempC, 0, perModule, r)
		found = append(found, f...)
		notFound += nf
	}
	return found, notFound
}

// ttfAtom is one (module, sample-chunk) atom of the TTF sweep: the chunk's
// samples below the search ceiling and its count of censored ones.
type ttfAtom struct {
	Found    []float64
	NotFound int
}

// ttfChunkSamples is the atom granularity of the TTF sweep: sample chunks
// of this size get their own RNG streams and can land on any worker.
const ttfChunkSamples = 16

// ttfChunksPerModule returns how many sample-chunk atoms one module
// contributes.
func ttfChunksPerModule(cfg Config) int {
	return (cfg.TTFSamples + ttfChunkSamples - 1) / ttfChunkSamples
}

// planTTF shards the manufacturer-level time-to-first-bitflip sweep by
// (manufacturer × temperature) — the chip/config groups of the §5
// methodology — splitting each cell by (module, sample-chunk) atoms on
// stream 24. The cross-temperature acceleration notes are computed in the
// merge step.
func planTTF(cfg Config) (*Plan, error) {
	setup := worstCaseSetup()
	mfrs := chipdb.Manufacturers()
	chunks := ttfChunksPerModule(cfg)
	atomSamples := func(chunk int) int {
		n := cfg.TTFSamples - chunk*ttfChunkSamples
		if n > ttfChunkSamples {
			n = ttfChunkSamples
		}
		return n
	}
	var cells []splitCell[ttfAtom]
	for mi, mfr := range mfrs {
		mods := chipdb.ByManufacturer(mfr)
		costs := make([]int64, len(mods)*chunks)
		for a := range costs {
			costs[a] = int64(atomSamples(a%chunks)) * costTTFSampleNs
		}
		for ti, tempC := range ttfTempsC {
			mi, ti, tempC := mi, ti, tempC
			cells = append(cells, splitCell[ttfAtom]{
				kv:       []string{"mfr", string(mfr), "T", fmt.Sprintf("%.0fC", tempC)},
				rangeKey: "chunks",
				costs:    costs,
				atom: func(a int) (ttfAtom, error) {
					mIdx, chunk := a/chunks, a%chunks
					r := cfg.shardRand(24, uint64(mi), uint64(ti), uint64(mIdx), uint64(chunk))
					f, nf := sampleModuleTTFs(mods[mIdx], setup, tempC, ttfCeilingMs, atomSamples(chunk), r)
					return ttfAtom{Found: f, NotFound: nf}, nil
				},
			})
		}
	}
	shards, gather := splitShards(cfg, "ttf", cells)
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "ttf",
			Title:   "Time to first ColumnDisturb bitflip by manufacturer (ms, worst-case pattern, 512 ms ceiling)",
			Headers: []string{"mfr", "temp(°C)", "min", "p25", "median", "p75", "max", "samples", ">512ms"},
		}
		gathered, err := gather(parts)
		if err != nil {
			return nil, err
		}
		medians := map[chipdb.Manufacturer]map[float64]float64{}
		minAt85 := 0.0
		for _, mfr := range mfrs {
			medians[mfr] = map[float64]float64{}
			for _, tempC := range ttfTempsC {
				var found []float64
				notFound := 0
				for _, a := range gathered[0] {
					found = append(found, a.Found...)
					notFound += a.NotFound
				}
				gathered = gathered[1:]
				if len(found) == 0 {
					res.AddRow(string(mfr), fmt.Sprintf("%.0f", tempC),
						"-", "-", "-", "-", "-", "0", fmt.Sprintf("%d", notFound))
					continue
				}
				b := stats.BoxPlot(found)
				medians[mfr][tempC] = b.Median
				if tempC == 85 && (minAt85 == 0 || b.Min < minAt85) {
					minAt85 = b.Min
				}
				res.AddRow(string(mfr), fmt.Sprintf("%.0f", tempC),
					fmtMs(b.Min), fmtMs(b.Q1), fmtMs(b.Median), fmtMs(b.Q3), fmtMs(b.Max),
					fmt.Sprintf("%d", b.N), fmt.Sprintf("%d", notFound))
			}
		}
		line := "temperature acceleration (median TTF 65°C / 85°C):"
		for _, mfr := range chipdb.Manufacturers() {
			m65, ok65 := medians[mfr][65]
			m85, ok85 := medians[mfr][85]
			if !ok65 || !ok85 {
				// Fully censored cell (every sample beyond the 512 ms
				// ceiling): no ratio to report.
				line += fmt.Sprintf(" %s=censored", mfr)
				continue
			}
			line += fmt.Sprintf(" %s=%.2fx", mfr, stats.Ratio(m65, m85))
		}
		res.AddNote("%s — higher temperature accelerates ColumnDisturb (cf. Fig 13)", line)
		if minAt85 > 0 {
			res.AddNote("fastest subarray at 85 °C flips in %.1f ms — within typical refresh-window multiples (cf. Obs 3)", minAt85)
		} else {
			res.AddNote("no subarray flipped within the 512 ms ceiling at 85 °C in this sample")
		}
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}
