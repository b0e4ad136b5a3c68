// Characterize: run the paper's methodology (§3.2) against a module the
// way the real testing infrastructure would.
//
//  1. Reverse engineer the subarray boundaries with RowClone: two
//     activations with an interrupted precharge copy a row onto another
//     row exactly when both share sense amplifiers.
//  2. Run the bisection search for the minimum time to the first
//     ColumnDisturb bitflip in several subarrays, at two temperatures.
//
// Everything happens through DDR commands on the simulated device and
// reads of its rows, the operations a real DRAM Bender test program uses.
package main

import (
	"fmt"
	"log"

	"columndisturb"
)

func main() {
	// A scaled Micron 16Gb F-die — the paper's most vulnerable module.
	chip, err := columndisturb.OpenScaled("M8", 1, 4, 96, 192)
	if err != nil {
		log.Fatal(err)
	}
	info := chip.Info()
	fmt.Printf("characterizing %s (%s %s %s-die)\n\n", info.ID, info.Manufacturer, info.Density, info.DieRevision)

	// Step 1: subarray boundary reverse engineering.
	bounds, err := chip.SubarrayBoundaries(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RowClone boundary scan found %d subarrays; first rows: %v\n\n", len(bounds), bounds)

	// Step 2: time to first ColumnDisturb bitflip per subarray.
	for _, tempC := range []float64{85, 95} {
		if err := chip.SetTemperature(tempC); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("time to first ColumnDisturb bitflip at %.0f °C:\n", tempC)
		for s, first := range bounds {
			agg := first + chip.RowsPerSubarray()/2
			res, err := chip.TimeToFirstBitflip(0, agg, 2)
			if err != nil {
				log.Fatal(err)
			}
			if !res.Found {
				fmt.Printf("  subarray %d: no bitflip within 512 ms\n", s)
				continue
			}
			fmt.Printf("  subarray %d: %.1f ms (%d activations)\n", s, res.TimeMs, res.HammerCount)
		}
	}
	fmt.Println("\nhigher temperature shortens the time to the first bitflip (Obs 16).")
}
