package dispatch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
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
	out, err := d.Run(context.Background(), shards, false)
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
	out, err := d.Run(context.Background(), shards, false)
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

// TestRegisterRefusesOtherBuilds: a worker reporting another GOARCH or Go
// version, or none, is refused with ErrBuildMismatch naming both sides,
// and never enters the lease table.
func TestRegisterRefusesOtherBuilds(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	for name, forge := range map[string]func(*RegisterRequest){
		"goarch":        func(r *RegisterRequest) { r.GOARCH = "forged-arch" },
		"go version":    func(r *RegisterRequest) { r.GoVersion = "go0.0-forged" },
		"no goarch":     func(r *RegisterRequest) { r.GOARCH = "" },
		"no go version": func(r *RegisterRequest) { r.GoVersion = "" },
	} {
		req := NewRegisterRequest("skewed", 1)
		forge(&req)
		_, err := d.Register(req)
		if !errors.Is(err, ErrBuildMismatch) {
			t.Fatalf("%s: err %v, want ErrBuildMismatch", name, err)
		}
		for _, side := range []string{
			fmt.Sprintf("%q with Go %q", req.GOARCH, req.GoVersion),
			fmt.Sprintf("%q with Go %q", runtime.GOARCH, runtime.Version()),
		} {
			if !strings.Contains(err.Error(), side) {
				t.Errorf("%s: error %q does not name %s", name, err, side)
			}
		}
	}
	if ws := d.RemoteWorkers(); len(ws) != 0 {
		t.Fatalf("refused workers entered the lease table: %+v", ws)
	}
	if _, err := d.Register(NewRegisterRequest("same", 1)); err != nil {
		t.Fatalf("this build refused: %v", err)
	}
}

// TestDispatcherRemoteLeaseComplete drives the worker protocol by hand:
// with no local executors, every shard must flow through lease/complete,
// and results land in canonical order regardless of completion order.
func TestDispatcherRemoteLeaseComplete(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Second})
	defer d.Close()
	reg, err := d.Register(NewRegisterRequest("tester", 8))
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
		out, err := d.Run(context.Background(), shards, false)
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
	reg, _ := d.Register(NewRegisterRequest("tester", 1))
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), []engine.Shard{remoteShard("x", "vx")}, false)
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
	dead, _ := d.Register(NewRegisterRequest("dead", 1))
	done := make(chan error, 1)
	go func() {
		out, err := d.Run(context.Background(), []engine.Shard{remoteShard("x", "vx")}, false)
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

	alive, _ := d.Register(NewRegisterRequest("alive", 1))
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
	w1, _ := d.Register(NewRegisterRequest("w1", 1))
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(context.Background(), []engine.Shard{remoteShard("x", "vx")}, false)
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
	w2, _ := d.Register(NewRegisterRequest("w2", 1))
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
		_, err := d.Run(ctx, []engine.Shard{remoteShard("x", "vx")}, false)
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
	reg, _ := d.Register(NewRegisterRequest("late", 1))
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
			out, err := d.Run(context.Background(), shards, false)
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

// TestDispatcherLongLeasePollSurvivesJanitor: a worker parked in lease
// long-polls far longer than the TTL must never be evicted — the
// dispatcher caps each park at TTL/2 and renews liveness on every loop
// re-entry, so even a direct-backend caller (no HTTP layer capping for
// it) keeps proving liveness across janitor ticks.
func TestDispatcherLongLeasePollSurvivesJanitor(t *testing.T) {
	const ttl = 120 * time.Millisecond // janitor ticks every ttl/4 = 30ms
	d := New(Options{NoLocal: true, LeaseTTL: ttl})
	defer d.Close()
	reg, err := d.Register(NewRegisterRequest("patient", 1))
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
	reg, _ := d.Register(NewRegisterRequest("severed", 1))
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

// queued reports the dispatcher's queue length.
func queued(d *Dispatcher) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.pending.Len()
}

// TestDispatcherFIFOWithBoost pins the queue order: new tasks lease in
// submission order; a crash-recovered run leases ahead of tasks already
// queued; a task requeued off an expired worker leases ahead of new ones,
// and behind boosted tasks queued before it.
func TestDispatcherFIFOWithBoost(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Minute})
	defer d.Close()
	runs := make(chan error, 3)
	submit := func(recovered bool, labels ...string) {
		var shards []engine.Shard
		for _, l := range labels {
			shards = append(shards, remoteShard(l, ""))
		}
		want := queued(d) + len(labels)
		go func() {
			_, err := d.Run(context.Background(), shards, recovered)
			runs <- err
		}()
		waitFor(t, 2*time.Second, func() bool { return queued(d) == want }, "enqueue")
	}
	lease := func(worker string) *LeaseGrant {
		t.Helper()
		g, err := d.Lease(context.Background(), worker, time.Second)
		if err != nil || g == nil {
			t.Fatalf("lease: (%v, %v)", g, err)
		}
		return g
	}

	lost, _ := d.Register(NewRegisterRequest("lost", 1))
	submit(false, "a0", "a1", "a2")
	if g := lease(lost.WorkerID); string(g.Spec) != "a0" {
		t.Fatalf("first lease %q, want a0", g.Spec)
	}
	submit(false, "b0", "b1")
	submit(true, "r0", "r1")
	d.expire(time.Now().Add(2 * time.Minute)) // "lost" falls silent; a0 requeues

	w, _ := d.Register(NewRegisterRequest("w", 1))
	var order []string
	for len(order) < 7 {
		g := lease(w.WorkerID)
		order = append(order, string(g.Spec))
		if err := d.Complete(w.WorkerID, g.TaskID, g.Spec, ""); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := strings.Join(order, " "), "r0 r1 a0 a1 a2 b0 b1"; got != want {
		t.Fatalf("lease order %q, want %q", got, want)
	}
	for i := 0; i < 3; i++ {
		if err := <-runs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDispatcherLateErrorAfterCancelNoEvent: replies arriving after the
// job was cancelled and settled must drop silently. Neither a late error
// nor a late success calls Accept, and Run still reports
// context.Canceled.
func TestDispatcherLateErrorAfterCancelNoEvent(t *testing.T) {
	d := New(Options{NoLocal: true, LeaseTTL: time.Minute})
	defer d.Close()
	reg, _ := d.Register(NewRegisterRequest("tester", 2))
	ctx, cancel := context.WithCancel(context.Background())
	var accepts atomic.Int32
	var shards []engine.Shard
	for _, l := range []string{"x", "y"} {
		sh := remoteShard(l, "v"+l)
		sh.Remote.Accept = func(string, time.Duration, []byte) (any, error) {
			accepts.Add(1)
			return nil, nil
		}
		shards = append(shards, sh)
	}
	done := make(chan error, 1)
	go func() {
		_, err := d.Run(ctx, shards, false)
		done <- err
	}()
	var grants []*LeaseGrant
	waitFor(t, 2*time.Second, func() bool {
		g, err := d.Lease(context.Background(), reg.WorkerID, 50*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		if g != nil {
			grants = append(grants, g)
		}
		return len(grants) == 2
	}, "leases")
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("run error %v, want context.Canceled", err)
	}
	// The worker finally reports: a shard error for one settled task and
	// a result for the other.
	if err := d.Complete(reg.WorkerID, grants[0].TaskID, nil, "exploded late"); err != nil {
		t.Fatalf("late error completion returned %v, want silent nil", err)
	}
	if err := d.Complete(reg.WorkerID, grants[1].TaskID, []byte("vy"), ""); err != nil {
		t.Fatalf("late completion returned %v, want silent nil", err)
	}
	if n := accepts.Load(); n != 0 {
		t.Fatalf("late replies called Accept %d times, want 0", n)
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
	reg, _ := d.Register(NewRegisterRequest("w", 1))
	if err := d.Complete(reg.WorkerID, "t-none", nil, ""); !errors.Is(err, ErrNoLease) {
		t.Fatalf("complete without lease error %v, want ErrNoLease", err)
	}
}
