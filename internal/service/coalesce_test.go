package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"columndisturb/internal/experiments"
)

// registerCountingExperiment is registerBlockingExperiment plus an
// execution counter, so single-flight tests can assert how many times
// each shard actually computed.
func registerCountingExperiment(id string, shards int, execs *atomic.Int64, started chan<- string, release <-chan struct{}) {
	registerSynthetic(experiments.Experiment{
		ID:    id,
		Paper: "test",
		Title: "synthetic counting sweep",
		Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
			plan := &experiments.Plan{}
			for i := 0; i < shards; i++ {
				label := fmt.Sprintf("%s shard %d", id, i)
				plan.Shards = append(plan.Shards, experiments.Shard{
					Label: label,
					Run: func(ctx context.Context) (any, error) {
						execs.Add(1)
						select {
						case started <- label:
						default:
						}
						select {
						case <-release:
							return "ok", nil
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					},
				})
			}
			plan.Merge = func(parts []any) (*experiments.Result, error) {
				res := &experiments.Result{ID: id, Title: "counting"}
				for range parts {
					res.AddRow("ok")
				}
				return res, nil
			}
			return plan, nil
		},
	})
}

// TestCoalescingSingleFlight is the single-flight acceptance scenario:
// three concurrent identical submissions share ONE computation — each
// shard executes exactly once — while every job keeps an independent,
// complete, valid event stream and its own report.
func TestCoalescingSingleFlight(t *testing.T) {
	const shards = 4
	var execs atomic.Int64
	started := make(chan string, shards)
	release := make(chan struct{})
	registerCountingExperiment("svc-coalesce-basic", shards, &execs, started, release)

	svc := New(Options{Workers: 2})
	defer svc.Close()

	spec := JobSpec{Experiment: "svc-coalesce-basic"}
	leader, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started // the flight is live and computing

	followers := make([]*Job, 2)
	for i := range followers {
		f, err := svc.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		followers[i] = f
	}
	if got := svc.mCoalesced.Value(); got != 2 {
		t.Fatalf("cdlab_jobs_coalesced_total = %d, want 2", got)
	}
	// Distinct IDs, shared flight and trace.
	ids := map[string]bool{leader.ID(): true}
	for _, f := range followers {
		if ids[f.ID()] {
			t.Fatalf("duplicate job ID %s", f.ID())
		}
		ids[f.ID()] = true
		if f.f != leader.f {
			t.Fatal("follower runs on its own flight")
		}
		if f.TraceID() != leader.TraceID() {
			t.Fatal("follower did not adopt the flight's trace")
		}
	}

	close(release)
	for _, j := range append([]*Job{leader}, followers...) {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", j.ID(), err)
		}
		if len(res.Rows) != shards {
			t.Fatalf("%s: result has %d rows", j.ID(), len(res.Rows))
		}
		checkEventStream(t, j.EventHistory(), shards)
	}
	if got := execs.Load(); got != shards {
		t.Fatalf("shards executed %d times across 3 jobs, want exactly %d", got, shards)
	}
}

// TestCoalescingFollowerReplaysHistory: a follower that attaches mid-run
// still sees the stream from Seq 0 — queued, started, and every shard
// that completed before it joined.
func TestCoalescingFollowerReplaysHistory(t *testing.T) {
	const shards = 4
	var execs atomic.Int64
	started := make(chan string, shards)
	release := make(chan struct{}, shards)
	registerCountingExperiment("svc-coalesce-replay", shards, &execs, started, release)

	svc := New(Options{Workers: 1})
	defer svc.Close()

	spec := JobSpec{Experiment: "svc-coalesce-replay"}
	leader, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	release <- struct{}{}
	release <- struct{}{}
	waitFor(t, func() bool { done, _ := leader.Progress(); return done >= 2 })

	late, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	hist := late.EventHistory()
	if len(hist) < 4 { // queued, started, 2× shard_done — replayed at attach
		t.Fatalf("late follower replayed only %d events", len(hist))
	}
	for i, ev := range hist {
		if ev.Seq != i || ev.Job != late.ID() {
			t.Fatalf("replayed event %d: seq=%d job=%s", i, ev.Seq, ev.Job)
		}
	}
	release <- struct{}{}
	release <- struct{}{}
	if _, err := late.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	checkEventStream(t, late.EventHistory(), shards)
}

// TestCoalescingMemberCancel: cancelling one member settles only that
// stream; the computation keeps running for the rest — and when the LAST
// member cancels, the computation stops and a fresh identical submission
// starts a new flight instead of attaching to the doomed one.
func TestCoalescingMemberCancel(t *testing.T) {
	const shards = 3
	var execs atomic.Int64
	started := make(chan string, shards)
	release := make(chan struct{})
	registerCountingExperiment("svc-coalesce-cancel", shards, &execs, started, release)

	svc := New(Options{Workers: 2})
	defer svc.Close()

	spec := JobSpec{Experiment: "svc-coalesce-cancel"}
	a, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	b.Cancel()
	if _, err := b.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower settled with %v", err)
	}
	last := b.EventHistory()[len(b.EventHistory())-1]
	if last.Type != EventJobFailed || last.ElapsedMs <= 0 {
		t.Fatalf("cancelled follower's terminal event: %+v", last)
	}
	if a.State() == JobCanceled {
		t.Fatal("leader cancelled by follower's cancel")
	}

	// Last member leaves: the flight must die and leave the coalesce table.
	a.Cancel()
	if _, err := a.Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("leader settled with %v", err)
	}
	waitFor(t, func() bool {
		svc.mu.Lock()
		defer svc.mu.Unlock()
		return len(svc.inflight) == 0
	})

	// A fresh submission gets a fresh flight that actually computes.
	close(release)
	before := execs.Load()
	c, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if execs.Load() == before {
		t.Fatal("fresh submission after all-cancel computed nothing (attached to the dead flight?)")
	}
	checkEventStream(t, c.EventHistory(), shards)
}

// TestNoCacheNeverCoalesces: a NoCache submission demanded a fresh
// computation, so identical NoCache jobs run separately.
func TestNoCacheNeverCoalesces(t *testing.T) {
	const shards = 2
	var execs atomic.Int64
	started := make(chan string, 2*shards)
	release := make(chan struct{})
	registerCountingExperiment("svc-coalesce-nocache", shards, &execs, started, release)

	svc := New(Options{Workers: 4})
	defer svc.Close()

	spec := JobSpec{Experiment: "svc-coalesce-nocache", NoCache: true}
	a, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	b, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.f == b.f {
		t.Fatal("NoCache submissions coalesced")
	}
	if got := svc.mCoalesced.Value(); got != 0 {
		t.Fatalf("cdlab_jobs_coalesced_total = %d for NoCache jobs", got)
	}
	close(release)
	for _, j := range []*Job{a, b} {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if got := execs.Load(); got != 2*shards {
		t.Fatalf("NoCache pair executed %d shards, want %d", got, 2*shards)
	}
}

// TestCoalescingConcurrentSubmits hammers Submit from many goroutines
// against one slow flight (run under -race): every job must settle with a
// valid stream, and the shard set must execute exactly once.
func TestCoalescingConcurrentSubmits(t *testing.T) {
	const shards = 3
	const clients = 16
	var execs atomic.Int64
	started := make(chan string, shards)
	release := make(chan struct{})
	registerCountingExperiment("svc-coalesce-race", shards, &execs, started, release)

	svc := New(Options{Workers: 2})
	defer svc.Close()

	spec := JobSpec{Experiment: "svc-coalesce-race"}
	jobs := make([]*Job, clients)
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func(i int) {
			defer wg.Done()
			j, err := svc.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			jobs[i] = j
		}(i)
	}
	wg.Wait()
	<-started
	close(release)
	for _, j := range jobs {
		if j == nil {
			t.Fatal("a submission failed")
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatalf("%s: %v", j.ID(), err)
		}
		checkEventStream(t, j.EventHistory(), shards)
	}
	if got := execs.Load(); got != shards {
		t.Fatalf("shards executed %d times across %d jobs, want exactly %d", got, clients, shards)
	}
	if got := svc.mCoalesced.Value(); got != clients-1 {
		t.Fatalf("cdlab_jobs_coalesced_total = %d, want %d", got, clients-1)
	}
}
