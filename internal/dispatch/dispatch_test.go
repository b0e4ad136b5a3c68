package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"columndisturb/internal/engine"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// localShard computes in-process only (no Remote attachment).
func localShard(label string, v any) engine.Shard {
	return engine.Shard{
		Label: label,
		Run:   func(context.Context) (any, error) { return v, nil },
	}
}

// remoteShard is eligible for both placements: local Run and worker
// replies produce the same deterministic value, mirroring the service's
// contract. Accept tags nothing so placement is invisible in the output.
func remoteShard(label string, v string) engine.Shard {
	return engine.Shard{
		Label: label,
		Run:   func(context.Context) (any, error) { return v, nil },
		Remote: &engine.RemoteSpec{
			Spec:   []byte(label),
			Accept: func(from string, elapsed time.Duration, reply []byte) (any, error) { return string(reply), nil },
		},
	}
}

func TestDispatcherLocalExecutionOrderedResults(t *testing.T) {
	d := New(Options{LocalWorkers: 3, LeaseTTL: time.Second})
	defer d.Close()
	var shards []engine.Shard
	for i := 0; i < 16; i++ {
		shards = append(shards, localShard(fmt.Sprintf("s%d", i), i*i))
	}
	out, err := d.Run(context.Background(), shards, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v.(int) != i*i {
			t.Fatalf("out[%d] = %v, want %d (ordered collection broken)", i, v, i*i)
		}
	}
}

func TestDispatcherShardErrorSemantics(t *testing.T) {
	d := New(Options{LocalWorkers: 2, LeaseTTL: time.Second})
	defer d.Close()
	boom := errors.New("boom")
	shards := []engine.Shard{
		localShard("ok0", "a"),
		{Label: "bad", Run: func(context.Context) (any, error) { return nil, boom }},
		{Label: "panicky", Run: func(context.Context) (any, error) { panic("kaboom") }},
		localShard("ok1", "b"),
	}
	out, err := d.Run(context.Background(), shards, engine.Options{})
	if err == nil {
		t.Fatal("want joined error")
	}
	var se *engine.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("error %v does not wrap *engine.ShardError", err)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error %v does not preserve the shard's cause", err)
	}
	if !strings.Contains(err.Error(), "panic: kaboom") {
		t.Fatalf("panic not isolated into the shard error: %v", err)
	}
	if out[0].(string) != "a" || out[3].(string) != "b" {
		t.Fatalf("healthy shards lost their results: %v", out)
	}
}

func TestDispatcherProgressMonotonic(t *testing.T) {
	d := New(Options{LocalWorkers: 4, LeaseTTL: time.Second})
	defer d.Close()
	var mu sync.Mutex
	last := 0
	opts := engine.Options{OnProgress: func(done, total int, label string) {
		mu.Lock()
		defer mu.Unlock()
		if done != last+1 || total != 12 {
			t.Errorf("progress (%d,%d) after %d", done, total, last)
		}
		last = done
	}}
	var shards []engine.Shard
	for i := 0; i < 12; i++ {
		shards = append(shards, localShard(fmt.Sprintf("s%d", i), i))
	}
	if _, err := d.Run(context.Background(), shards, opts); err != nil {
		t.Fatal(err)
	}
	if last != 12 {
		t.Fatalf("OnProgress reported %d completions, want 12", last)
	}
}

// TestDispatcherRemoteLeaseComplete drives the worker protocol by hand:
// with no local executors, every shard must flow through lease/complete,
// and results land in canonical order regardless of completion order.
func TestDispatcherRemoteLeaseComplete(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	reg, err := d.Register("tester", 8)
	if err != nil {
		t.Fatal(err)
	}
	shards := []engine.Shard{remoteShard("a", "ra"), remoteShard("b", "rb"), remoteShard("c", "rc")}
	type res struct {
		out []any
		err error
	}
	done := make(chan res, 1)
	go func() {
		out, err := d.Run(context.Background(), shards, engine.Options{})
		done <- res{out, err}
	}()
	// Lease all three, hold them for a measurable busy time, then complete
	// them in reverse order.
	var grants []*LeaseGrant
	for len(grants) < 3 {
		g, err := d.Lease(context.Background(), reg.WorkerID, 200*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			grants = append(grants, g)
		}
	}
	const held = 5 * time.Millisecond
	time.Sleep(held)
	for i := len(grants) - 1; i >= 0; i-- {
		spec := string(grants[i].Spec) // the shard label, per remoteShard
		if err := d.Complete(reg.WorkerID, grants[i].TaskID, []byte("r"+spec), ""); err != nil {
			t.Fatal(err)
		}
	}
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	want := []string{"ra", "rb", "rc"}
	for i, v := range r.out {
		if v.(string) != want[i] {
			t.Fatalf("out[%d] = %v, want %s", i, v, want[i])
		}
	}
	ws := d.RemoteWorkers()
	if len(ws) != 1 || ws[0].Completed != 3 || ws[0].Inflight != 0 {
		t.Fatalf("worker snapshot %+v, want 3 completed 0 inflight", ws)
	}
	// Busy time sums each lease→complete span; the average divides it by
	// the completions.
	heldMs := float64(held) / float64(time.Millisecond)
	w := ws[0]
	if float64(w.BusyMs) < 3*heldMs || w.AvgTaskMs < heldMs {
		t.Fatalf("worker stats %+v, want busy >= %vms and avg >= %vms", w, 3*heldMs, heldMs)
	}
	if avgOfBusy := float64(w.BusyMs) / 3; math.Abs(w.AvgTaskMs-avgOfBusy) > 1 {
		t.Fatalf("avg_task_ms %v disagrees with busy_ms/completed %v", w.AvgTaskMs, avgOfBusy)
	}
}

// TestDispatcherWorkerErrorFailsShard: a genuine shard error reported by a
// worker fails that shard (and the run), not the dispatcher.
func TestDispatcherWorkerErrorFailsShard(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	reg, _ := d.Register("tester", 1)
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), []engine.Shard{remoteShard("x", "vx")}, engine.Options{})
		done <- err
	}()
	var g *LeaseGrant
	waitFor(t, 2*time.Second, func() bool {
		var err error
		g, err = d.Lease(context.Background(), reg.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return g != nil
	}, "lease grant")
	if err := d.Complete(reg.WorkerID, g.TaskID, nil, "device exploded"); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if err == nil || !strings.Contains(err.Error(), "device exploded") {
		t.Fatalf("run error %v, want the worker-reported shard failure", err)
	}
}

// TestDispatcherLeaseExpiryRequeues is the kill-a-worker-mid-shard path:
// a worker leases a task and goes silent; after the TTL the janitor drops
// it and requeues the task, a healthy worker completes it, and the lost
// worker's late completion is rejected with ErrNoLease.
func TestDispatcherLeaseExpiryRequeues(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: 60 * time.Millisecond})
	defer d.Close()
	dead, _ := d.Register("dead", 1)
	done := make(chan error, 1)
	go func() {
		out, err := d.Run(context.Background(), []engine.Shard{remoteShard("x", "vx")}, engine.Options{})
		if err == nil && out[0].(string) != "vx" {
			err = fmt.Errorf("wrong result %v", out[0])
		}
		done <- err
	}()
	var g *LeaseGrant
	waitFor(t, 2*time.Second, func() bool {
		var err error
		g, err = d.Lease(context.Background(), dead.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return g != nil
	}, "first lease")
	// The dead worker never heartbeats again; it must be dropped from the
	// lease table (the never-heartbeats satellite case) and its task
	// requeued to a healthy worker.
	waitFor(t, 2*time.Second, func() bool { return len(d.RemoteWorkers()) == 0 }, "silent worker dropped")

	alive, _ := d.Register("alive", 1)
	var g2 *LeaseGrant
	waitFor(t, 2*time.Second, func() bool {
		var err error
		g2, err = d.Lease(context.Background(), alive.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return g2 != nil
	}, "requeued lease")
	if string(g2.Spec) != string(g.Spec) {
		t.Fatalf("requeued task spec %q, want %q", g2.Spec, g.Spec)
	}
	if err := d.Complete(alive.WorkerID, g2.TaskID, []byte("vx"), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// The presumed-dead worker finally answers: its identity is gone.
	if err := d.Complete(dead.WorkerID, g.TaskID, []byte("stale"), ""); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("late completion error %v, want ErrUnknownWorker", err)
	}
}

// TestDispatcherDeregisterRequeues: a graceful shutdown returns leases
// immediately instead of waiting out the TTL.
func TestDispatcherDeregisterRequeues(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Minute})
	defer d.Close()
	w1, _ := d.Register("w1", 1)
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), []engine.Shard{remoteShard("x", "vx")}, engine.Options{})
		done <- err
	}()
	waitFor(t, 2*time.Second, func() bool {
		g, err := d.Lease(context.Background(), w1.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return g != nil
	}, "lease")
	if err := d.Deregister(w1.WorkerID); err != nil {
		t.Fatal(err)
	}
	w2, _ := d.Register("w2", 1)
	var g *LeaseGrant
	waitFor(t, 2*time.Second, func() bool {
		var err error
		g, err = d.Lease(context.Background(), w2.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return g != nil
	}, "requeued lease after deregister")
	if err := d.Complete(w2.WorkerID, g.TaskID, []byte("vx"), ""); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherCancellationUnblocksRun: with no capacity anywhere, a
// cancelled context settles queued tasks promptly and reports ctx.Err(),
// and the dispatcher keeps serving later calls.
func TestDispatcherCancellationUnblocksRun(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx, []engine.Shard{remoteShard("x", "vx")}, engine.Options{})
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("run error %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled Run did not unblock")
	}
	// The cancelled task is pruned from the queue eagerly — a pure
	// scheduler with no executors popping must not retain it.
	waitFor(t, 2*time.Second, func() bool {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.pending.Len() == 0
	}, "queue pruned after cancellation")
	// A healthy worker attaching later must find an empty queue, not the
	// cancelled task.
	reg, _ := d.Register("late", 1)
	g, err := d.Lease(context.Background(), reg.WorkerID, 50*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if g != nil {
		t.Fatalf("cancelled task leaked to a later worker: %+v", g)
	}
}

// TestDispatcherConcurrentRunsInterleave: many Run calls share the queue
// and each observes only its own results — the shared-pool contract.
func TestDispatcherConcurrentRunsInterleave(t *testing.T) {
	d := New(Options{LocalWorkers: 4, LeaseTTL: time.Second})
	defer d.Close()
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var shards []engine.Shard
			for i := 0; i < 10; i++ {
				shards = append(shards, localShard(fmt.Sprintf("r%d-s%d", r, i), r*100+i))
			}
			out, err := d.Run(context.Background(), shards, engine.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			for i, v := range out {
				if v.(int) != r*100+i {
					t.Errorf("run %d out[%d] = %v", r, i, v)
				}
			}
		}()
	}
	wg.Wait()
}

// costShard is remoteShard with a declared scheduling cost.
func costShard(label string, cost float64) engine.Shard {
	sh := remoteShard(label, "v-"+label)
	sh.Cost = cost
	return sh
}

// TestDispatcherLongLeasePollSurvivesJanitor: a worker parked in lease
// long-polls far longer than the TTL must never be evicted — the
// dispatcher caps each park at TTL/2 and renews liveness on every loop
// re-entry, so even a direct-backend caller (no HTTP layer capping for
// it) keeps proving liveness across janitor ticks.
func TestDispatcherLongLeasePollSurvivesJanitor(t *testing.T) {
	const ttl = 120 * time.Millisecond // janitor ticks every ttl/4 = 30ms
	d := New(Options{NoLocal: true, LeaseTTL: ttl})
	defer d.Close()
	reg, err := d.Register("patient", 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * ttl)
	for time.Now().Before(deadline) {
		g, err := d.Lease(context.Background(), reg.WorkerID, time.Hour)
		if err != nil {
			t.Fatalf("worker evicted mid-poll: %v", err)
		}
		if g != nil {
			t.Fatalf("unexpected grant on an empty queue: %+v", g)
		}
	}
	if ws := d.RemoteWorkers(); len(ws) != 1 {
		t.Fatalf("worker table %+v, want the polling worker still alive", ws)
	}
}

// TestDispatcherLeaseCtxDoneReportsError: a severed caller context must
// surface as ctx.Err(), never as the (nil, nil) of a healthy empty poll.
func TestDispatcherLeaseCtxDoneReportsError(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Minute})
	defer d.Close()
	reg, _ := d.Register("severed", 1)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	g, err := d.Lease(ctx, reg.WorkerID, 10*time.Second)
	if g != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("lease after severed ctx returned (%+v, %v), want (nil, context.Canceled)", g, err)
	}
}

// TestDispatcherCostOrderedLeasing: the queue hands out the most expensive
// pending shard first regardless of submission position, and FIFO order
// survives among equal costs.
func TestDispatcherCostOrderedLeasing(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	shards := []engine.Shard{
		costShard("small-a", 1),
		costShard("big", 100),
		costShard("small-b", 1),
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), shards, engine.Options{})
		done <- err
	}()
	reg, _ := d.Register("solo", 1)
	var order []string
	for len(order) < 3 {
		g, err := d.Lease(context.Background(), reg.WorkerID, 100*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if g == nil {
			continue
		}
		order = append(order, string(g.Spec))
		if err := d.Complete(reg.WorkerID, g.TaskID, []byte("v"), ""); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{"big", "small-a", "small-b"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("lease order %v, want %v (largest first, FIFO among equals)", order, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestDispatcherLateErrorAfterCancelNoEvent: an error reply arriving after
// the job was cancelled and settled must drop silently — no progress
// report, no error — exactly like a late success reply.
func TestDispatcherLateErrorAfterCancelNoEvent(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Minute})
	defer d.Close()
	reg, _ := d.Register("tester", 1)
	ctx, cancel := context.WithCancel(context.Background())
	var reports atomic.Int32
	opts := engine.Options{OnProgress: func(done, total int, label string) { reports.Add(1) }}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx, []engine.Shard{remoteShard("x", "vx")}, opts)
		done <- err
	}()
	var g *LeaseGrant
	waitFor(t, 2*time.Second, func() bool {
		var err error
		g, err = d.Lease(context.Background(), reg.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		return g != nil
	}, "lease")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	// The worker finally reports a shard error for the settled task.
	if err := d.Complete(reg.WorkerID, g.TaskID, nil, "exploded late"); err != nil {
		t.Fatalf("late error completion returned %v, want silent nil", err)
	}
	if n := reports.Load(); n != 0 {
		t.Fatalf("late error reply fired %d progress reports, want 0", n)
	}
}

func TestDispatcherUnknownWorkerVerbs(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	if err := d.Heartbeat("w999"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("heartbeat error %v", err)
	}
	if _, err := d.Lease(context.Background(), "w999", 0); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("lease error %v", err)
	}
	if err := d.Complete("w999", "t1", nil, ""); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("complete error %v", err)
	}
	reg, _ := d.Register("w", 1)
	if err := d.Complete(reg.WorkerID, "t-none", nil, ""); !errors.Is(err, ErrNoLease) {
		t.Fatalf("complete without lease error %v, want ErrNoLease", err)
	}
}
