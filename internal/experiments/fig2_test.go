package experiments

import (
	"context"
	"testing"
)

// TestFig2ShardedDeterminism: the newly sharded fig2 produces identical
// output on the serial reference path and a 3-worker parallel run (one
// worker per arm).
func TestFig2ShardedDeterminism(t *testing.T) {
	e, ok := ByID("fig2")
	if !ok || e.Plan == nil {
		t.Fatal("fig2 must register a shard plan")
	}
	plan, err := e.Plan(Small())
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Shards) != 3 {
		t.Fatalf("fig2 has %d shards, want 3 (press, hammer, idle)", len(plan.Shards))
	}
	serial, err := e.RunWith(context.Background(), Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := e.RunWith(context.Background(), Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != par.String() {
		t.Fatalf("fig2 parallel differs from serial:\n%s\n---\n%s", serial.String(), par.String())
	}
	if len(serial.Rows) != 8 || len(serial.Notes) == 0 {
		t.Fatalf("fig2 report shape changed: %d rows, %d notes", len(serial.Rows), len(serial.Notes))
	}
}
