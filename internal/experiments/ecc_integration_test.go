package experiments

import (
	"testing"

	"columndisturb/internal/charz"
	"columndisturb/internal/chipdb"
	"columndisturb/internal/dram"
	"columndisturb/internal/ecc"
	"columndisturb/internal/sim/rng"
)

// TestOnDieECCEndToEnd is the integration form of Takeaway 10: protect a
// pressed module's data with the (136,128) on-die SEC code and verify that
// ColumnDisturb produces chunks the code cannot repair — including
// miscorrections that corrupt data the attacker never touched.
//
// Methodology: every 128-bit chunk of every victim row is an ECC dataword;
// its 8 parity cells live in the same row and are exposed to the same
// per-row disturbance, modelled by flipping each parity bit with the row's
// observed per-cell flip rate.
func TestOnDieECCEndToEnd(t *testing.T) {
	spec, _ := chipdb.ByID("S0")
	g := dram.Geometry{Banks: 1, SubarraysPerBank: 3, RowsPerSubarray: 96, Cols: 256, Chips: 8}
	d, err := spec.OpenWithGeometry(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetTemperature(85); err != nil {
		t.Fatal(err)
	}
	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2
	out, err := charz.RunDisturb(d, charz.DisturbConfig{
		Bank: 0, AggRow: agg, Mode: charz.ModeHammer,
		AggPattern: dram.Pat00, VictimPattern: dram.PatFF,
		DurationMs: 1500, TAggOnNs: 70200, TRPNs: 14,
		Subarrays: []int{0, 1, 2},
	}, &charz.Filter{ExcludedRows: charz.GuardRows(g, []int{agg}, 4)})
	if err != nil {
		t.Fatal(err)
	}

	code, err := ecc.NewSEC(128)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(7)
	var clean, corrected, detected, corrupted int
	for _, sub := range []int{0, 1, 2} {
		for _, rf := range out[sub] {
			rowRate := float64(rf.Flips) / float64(g.Cols)
			for chunk := 0; chunk < g.Cols/128; chunk++ {
				// Reconstruct the stored dataword: all-1 victims with the
				// observed flips applied.
				data := make([]byte, 128)
				for i := range data {
					data[i] = 1
				}
				flips := rf.ChunkFlips[2*chunk] + rf.ChunkFlips[2*chunk+1]
				cw, err := code.Encode(data)
				if err != nil {
					t.Fatal(err)
				}
				orig := append([]byte(nil), cw...)
				// Apply the observed data-bit flips to distinct positions
				// (ColumnDisturb is 1→0 so any charged position works) and
				// expose the parity cells to the row's flip rate.
				perm := r.Perm(code.N)
				applied := 0
				for _, pos := range perm {
					if applied >= flips {
						break
					}
					if cw[pos] == 1 {
						cw[pos] = 0
						applied++
					}
				}
				for pos := range cw {
					if cw[pos] == 1 && orig[pos] == 1 && r.Float64() < rowRate/8 {
						// small extra exposure for parity cells beyond the
						// counted data flips
						cw[pos] = 0
					}
				}
				got, res, err := code.Decode(cw)
				if err != nil {
					t.Fatal(err)
				}
				ok := true
				for i := range got {
					if got[i] != data[i] {
						ok = false
						break
					}
				}
				switch {
				case res.Status == ecc.StatusDetected:
					detected++
				case ok && res.Status == ecc.StatusClean:
					clean++
				case ok:
					corrected++
				default:
					corrupted++
				}
			}
		}
	}
	total := clean + corrected + detected + corrupted
	if total == 0 {
		t.Fatal("no codewords evaluated")
	}
	if corrected == 0 {
		t.Fatal("expected some single-bit chunks the SEC code repairs")
	}
	if corrupted+detected == 0 {
		t.Fatalf("Takeaway 10: ColumnDisturb should exceed on-die SEC protection "+
			"(clean=%d corrected=%d detected=%d corrupted=%d)", clean, corrected, detected, corrupted)
	}
	t.Logf("on-die ECC under 1.5 s of pressing: clean=%d corrected=%d detected=%d silently-corrupted/miscorrected=%d",
		clean, corrected, detected, corrupted)
}
