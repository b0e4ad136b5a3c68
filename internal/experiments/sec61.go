package experiments

import (
	"context"
	"fmt"

	"columndisturb/internal/energy"
	"columndisturb/internal/mitigate"
)

func init() {
	register(Experiment{
		ID:    "sec61",
		Paper: "§6.1",
		Title: "Mitigation cost analysis: increased refresh rate vs PRVR",
		Plan:  planSec61,
	})
	registerShardType(sec61Part{})
}

// sec61Part is one mitigation mechanism's analyzed cost row plus the
// reduction statistics the notes need (only the PRVR part fills them).
type sec61Part struct {
	Mechanism               string
	Row                     []string
	ThroughputLossReduction float64
	RefreshEnergyReduction  float64
}

// planSec61 shards the §6.1 mitigation analysis by mechanism: the 32 ms
// baseline, the naive 8 ms fix and PRVR each price their configuration
// independently (the analyses are deterministic — no RNG). The cross-
// mechanism comparison notes are computed in the merge step.
func planSec61(cfg Config) (*Plan, error) {
	idd := energy.DDR5x32Gb()
	periodic := func(mechanism string, tREFIms float64, label string) Shard {
		return Shard{
			Label: shardLabel("sec61", "mechanism", mechanism),
			Run: func(context.Context) (any, error) {
				a, err := energy.AnalyzeRefresh(410, tREFIms, idd)
				if err != nil {
					return nil, err
				}
				return sec61Part{
					Mechanism: mechanism,
					Row: []string{label, fmt.Sprintf("%.1f%%", a.ThroughputLoss*100),
						fmt.Sprintf("%.1f%%", a.RefreshEnergyFraction*100), fmtF(a.RefreshPowerRelative)},
				}, nil
			},
		}
	}
	shards := []Shard{
		periodic("periodic-32ms", 32, "periodic 32 ms (baseline)"),
		periodic("periodic-8ms", 8, "periodic 8 ms (naive fix)"),
		{
			Label: shardLabel("sec61", "mechanism", "prvr"),
			Run: func(context.Context) (any, error) {
				prvr, err := mitigate.AnalyzePRVR(mitigate.DefaultPRVRConfig(), idd)
				if err != nil {
					return nil, err
				}
				return sec61Part{
					Mechanism: "prvr",
					Row: []string{"PRVR (3072 victims / 8 ms)",
						fmt.Sprintf("%.1f%%", prvr.PRVRThroughputLoss*100),
						"-", fmtF(prvr.PRVRRefreshPowerRelative)},
					ThroughputLossReduction: prvr.ThroughputLossReduction,
					RefreshEnergyReduction:  prvr.RefreshEnergyReduction,
				}, nil
			},
		},
	}
	merge := func(parts []any) (*Result, error) {
		res := &Result{
			ID:      "sec61",
			Title:   "ColumnDisturb mitigations on a 32 Gb DDR5 chip (tRFC = 410 ns)",
			Headers: []string{"mechanism", "throughput loss", "refresh energy share", "refresh power (idle units)"},
		}
		var prvr sec61Part
		for _, raw := range parts {
			part, ok := raw.(sec61Part)
			if !ok {
				return nil, fmt.Errorf("sec61: part has type %T, want sec61Part", raw)
			}
			res.AddRow(part.Row...)
			if part.Mechanism == "prvr" {
				prvr = part
			}
		}
		res.AddNote("paper anchors: 32 ms ⇒ 10.5%% loss / 25.1%% energy; 8 ms ⇒ 42.1%% loss / 67.5%% energy")
		res.AddNote("PRVR reduces the 8 ms solution's throughput loss by %.1f%% and refresh energy by %.1f%% (paper: 70.5%% / 73.8%%)",
			prvr.ThroughputLossReduction*100, prvr.RefreshEnergyReduction*100)
		res.AddNote("reactive alternative: refreshing all 3072 victims at once would stall the bank for ~%.0f µs (paper: ~215 µs)",
			mitigate.NaiveVictimRefreshLatencyNs(3072, 70)/1000)
		return res, nil
	}
	return &Plan{Shards: shards, Merge: merge}, nil
}
