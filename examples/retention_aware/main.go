// Retention-aware refresh under ColumnDisturb (§6.2 / Fig 23).
//
// RAIDR refreshes the few retention-weak rows every 64 ms and everything
// else every 1024 ms, recovering most of the performance lost to refresh.
// ColumnDisturb breaks the premise: under attack, *thousands* of rows
// become weak within the strong-row window. This example runs the fig23
// experiment, which sweeps the weak-row proportion through the
// cycle-level memory system simulator for both tracker variants and shows
// the benefit eroding — the Bloom-filter variant collapses as soon as its
// 8 Kbit filter saturates.
package main

import (
	"context"
	"fmt"
	"log"

	"columndisturb"
)

func main() {
	r, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()

	res, err := r.Run(context.Background(), columndisturb.Request{
		Experiments: []string{"fig23"},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Reports[0].Text)
}
