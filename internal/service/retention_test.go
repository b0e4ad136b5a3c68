package service

import (
	"context"
	"fmt"
	"testing"

	"columndisturb/internal/experiments"
)

// registerQuickExperiment installs a trivial sharded experiment for
// retention tests.
func registerQuickExperiment(id string, shards int) {
	registerSynthetic(experiments.Experiment{
		ID:    id,
		Paper: "test",
		Title: "synthetic quick sweep",
		Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
			plan := &experiments.Plan{}
			for i := 0; i < shards; i++ {
				i := i
				plan.Shards = append(plan.Shards, experiments.Shard{
					Label: fmt.Sprintf("%s shard %d", id, i),
					Run:   func(context.Context) (any, error) { return []string{fmt.Sprint(i)}, nil },
				})
			}
			plan.Merge = func(parts []any) (*experiments.Result, error) {
				res := &experiments.Result{ID: id, Title: "quick", Headers: []string{"value"}}
				for _, p := range parts {
					res.AddRow(p.([]string)...)
				}
				return res, nil
			}
			return plan, nil
		},
	})
}

// TestJobRetentionBoundsTable is the long-lived-serve satellite: with
// RetainJobs set, a service that settles many jobs keeps only the most
// recent ones — older IDs leave the table (lookup misses, listing
// shrinks), so the event buffers and reports they pinned are collectable —
// while the retained jobs keep full replay.
func TestJobRetentionBoundsTable(t *testing.T) {
	registerQuickExperiment("svc-test-retention", 3)
	const retain, total = 4, 20
	svc := New(Options{Workers: 2, RetainJobs: retain})
	defer svc.Close()

	var ids []string
	for i := 0; i < total; i++ {
		j, err := svc.Submit(JobSpec{Experiment: "svc-test-retention"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID())
		// The table is bounded THROUGHOUT the process's life, not only at
		// the end: at most retain settled jobs plus anything in flight.
		if n := len(svc.Jobs()); n > retain+1 {
			t.Fatalf("after %d jobs the table holds %d, want <= %d", i+1, n, retain+1)
		}
	}

	if n := len(svc.Jobs()); n != retain {
		t.Fatalf("settled table holds %d jobs, want %d", n, retain)
	}
	// Retired jobs answer like unknown ones.
	for _, id := range ids[:total-retain] {
		if _, ok := svc.Job(id); ok {
			t.Fatalf("retired job %s still in the table", id)
		}
	}
	// Recent jobs keep full event replay.
	for _, id := range ids[total-retain:] {
		j, ok := svc.Job(id)
		if !ok {
			t.Fatalf("recent job %s was retired", id)
		}
		events := j.EventHistory()
		// queued + started + 3 shards + finished
		if len(events) != 6 {
			t.Fatalf("recent job %s replays %d events, want 6", id, len(events))
		}
		checkEventStream(t, events, 3)
	}
}

// TestJobRetentionKeepsEverythingByDefault: RetainJobs=0 preserves the
// seed-era behaviour (every job replayable forever).
func TestJobRetentionKeepsEverythingByDefault(t *testing.T) {
	registerQuickExperiment("svc-test-retention-off", 1)
	svc := New(Options{Workers: 1})
	defer svc.Close()
	for i := 0; i < 8; i++ {
		j, err := svc.Submit(JobSpec{Experiment: "svc-test-retention-off"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(svc.Jobs()); n != 8 {
		t.Fatalf("table holds %d jobs, want all 8", n)
	}
}
