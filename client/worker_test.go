package client

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"columndisturb"
	"columndisturb/internal/experiments"
)

// Integration coverage for the distributed dispatch failure paths, driven
// end to end through the real stack: LocalRunner and its dispatcher, its
// HTTP handler, client.RunWorker loops, and the remote job
// client — all in-process, with worker death simulated by severing the
// worker's transport (exactly what a killed process looks like from the
// server's side: silence).

// newDispatchServer starts a runner with no local shard execution (so
// every shard MUST flow through workers) behind an httptest.Server.
func newDispatchServer(t *testing.T, leaseTTL time.Duration) (*columndisturb.LocalRunner, *httptest.Server) {
	t.Helper()
	runner, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
		Workers:       2,
		NoLocalShards: true,
		LeaseTTL:      leaseTTL,
	})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := runner.Handler()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() { ts.Close(); runner.Close() })
	return runner, ts
}

// startWorker runs a RunWorker loop for the test's duration.
func startWorker(t *testing.T, addr string, opts WorkerOptions) (cancel func()) {
	t.Helper()
	ctx, stop := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = RunWorker(ctx, addr, opts)
	}()
	cancel = func() { stop(); <-done }
	t.Cleanup(cancel)
	return cancel
}

// killableTransport turns into a black hole when severed — requests fail,
// so the worker behind it can neither heartbeat nor complete, which is
// indistinguishable from a killed process server-side.
type killableTransport struct {
	dead atomic.Bool
}

func (k *killableTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if k.dead.Load() {
		return nil, errors.New("worker transport severed")
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestDistributedRunByteIdentical is the acceptance scenario: with two
// workers attached and zero local shard execution, a remote run of a
// sharded experiment produces byte-identical reports to a serial local
// run, and the event stream attributes shards to workers.
func TestDistributedRunByteIdentical(t *testing.T) {
	_, ts := newDispatchServer(t, 2*time.Second)
	for i := 0; i < 2; i++ {
		startWorker(t, ts.URL, WorkerOptions{Capacity: 2, PollWait: 100 * time.Millisecond, RetryBackoff: 20 * time.Millisecond})
	}

	remote, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var workerShards, timedShards, totalShards atomic.Int64
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		if ev.Type == columndisturb.EventShardDone {
			totalShards.Add(1)
			if ev.Worker != "" {
				workerShards.Add(1)
			}
			if ev.ElapsedMs > 0 {
				timedShards.Add(1)
			}
		}
	})
	defer stop()

	req := columndisturb.Request{Experiments: []string{"fig6", "table1"}, Overrides: map[string]string{"seed": "5"}}
	res, err := remote.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	local, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range req.Experiments {
		if res.Reports[i].Text != want.Reports[i].Text {
			t.Fatalf("%s: distributed report differs from serial local run:\n--- remote ---\n%s--- local ---\n%s",
				req.Experiments[i], res.Reports[i].Text, want.Reports[i].Text)
		}
	}
	if totalShards.Load() == 0 || workerShards.Load() != totalShards.Load() {
		t.Fatalf("%d of %d shard events attribute a worker; with -no-local-shards all must",
			workerShards.Load(), totalShards.Load())
	}
	// Every remotely computed shard reports the dispatcher's measured
	// lease→complete wall time.
	if timedShards.Load() != totalShards.Load() {
		t.Fatalf("%d of %d remotely computed shard events carry elapsed_ms > 0",
			timedShards.Load(), totalShards.Load())
	}
}

// TestFormerlySerialExperimentsDistributed extends the distributed
// determinism gate to the experiments that used to run through the legacy
// serial Run path as one opaque pseudo-shard: with every experiment a real
// multi-shard plan, their shards lease to remote workers like any other,
// the two-worker report is byte-identical to a serial local run, and a
// warm re-run against the server's shard cache recomputes nothing.
func TestFormerlySerialExperimentsDistributed(t *testing.T) {
	runner, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
		Workers:       2,
		NoLocalShards: true,
		LeaseTTL:      2 * time.Second,
		CacheEntries:  4096, // server-side shard cache for the warm assertion
	})
	if err != nil {
		t.Fatal(err)
	}
	handler, err := runner.Handler()
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(handler)
	t.Cleanup(func() { ts.Close(); runner.Close() })
	for i := 0; i < 2; i++ {
		startWorker(t, ts.URL, WorkerOptions{Capacity: 2, PollWait: 100 * time.Millisecond, RetryBackoff: 20 * time.Millisecond})
	}

	remote, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	// The formerly-serial registry slice, scaled down so the three runs
	// (distributed cold, distributed warm, serial local) stay fast.
	req := columndisturb.Request{
		Experiments: []string{"fig21", "fig22", "fig23", "sec61", "ttf", "ablation-f", "ablation-bitline"},
		Overrides: map[string]string{
			"mixes": "1", "measure-instr": "4000", "subarrays-per-module": "2",
			"ttf-samples": "4", "cell-rows": "32", "cell-cols": "64",
			// Force aggressive sub-shard splitting so the distributed and
			// warm-cache byte-identity assertions cover split plans too.
			"max-shard-share": "0.02",
		},
	}
	var shardEvents, cachedEvents atomic.Int64
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		if ev.Type == columndisturb.EventShardDone {
			shardEvents.Add(1)
			if ev.Cached != nil && *ev.Cached {
				cachedEvents.Add(1)
			}
		}
	})
	defer stop()

	res, err := remote.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got := shardEvents.Load(); got < int64(2*len(req.Experiments)) {
		t.Fatalf("%d shard events for %d formerly-serial experiments — they no longer look multi-shard", got, len(req.Experiments))
	}

	local, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range req.Experiments {
		if res.Reports[i].Text != want.Reports[i].Text {
			t.Fatalf("%s: two-worker distributed report differs from serial local run:\n--- remote ---\n%s--- local ---\n%s",
				req.Experiments[i], res.Reports[i].Text, want.Reports[i].Text)
		}
	}

	// Warm re-run: the server's shard cache settles every task at the
	// probe, so nothing recomputes and the reports stay identical.
	shardEvents.Store(0)
	cachedEvents.Store(0)
	again, err := remote.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, hits := shardEvents.Load(), cachedEvents.Load(); got == 0 || hits != got {
		t.Fatalf("warm distributed re-run: %d of %d shard events cached, want all", hits, got)
	}
	for i := range req.Experiments {
		if again.Reports[i].Text != res.Reports[i].Text {
			t.Fatalf("%s: warm distributed report differs from cold", req.Experiments[i])
		}
	}
}

// gate instruments one synthetic experiment shard so a test can hold a
// worker mid-shard and release it on demand.
type gate struct {
	execs   atomic.Int64
	started chan struct{}
	release chan struct{}
}

var (
	gateMu    sync.Mutex
	gateTable = map[string]*gate{}
)

// registerGateExperiment installs a 4-shard experiment whose first shard
// blocks its FIRST execution on the test's gate; re-executions (after a
// requeue) return immediately. Results are deterministic, so a run that
// lost a worker mid-shard must still merge the same report.
func registerGateExperiment(id string) *gate {
	gateMu.Lock()
	defer gateMu.Unlock()
	if g, ok := gateTable[id]; ok {
		return g
	}
	g := &gate{started: make(chan struct{}, 16), release: make(chan struct{})}
	gateTable[id] = g
	experiments.Register(experiments.Experiment{
		ID:    id,
		Paper: "test",
		Title: "synthetic gated sweep",
		Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
			plan := &experiments.Plan{}
			for i := 0; i < 4; i++ {
				i := i
				label := fmt.Sprintf("%s shard %d", id, i)
				run := func(context.Context) (any, error) { return []string{fmt.Sprintf("part-%d", i)}, nil }
				if i == 0 {
					run = func(ctx context.Context) (any, error) {
						n := g.execs.Add(1)
						select {
						case g.started <- struct{}{}:
						default:
						}
						if n == 1 {
							select {
							case <-g.release:
							case <-ctx.Done():
								return nil, ctx.Err()
							}
						}
						return []string{"part-0"}, nil
					}
				}
				plan.Shards = append(plan.Shards, experiments.Shard{Label: label, Run: run})
			}
			plan.Merge = func(parts []any) (*experiments.Result, error) {
				res := &experiments.Result{ID: id, Title: "gated", Headers: []string{"part"}}
				for _, p := range parts {
					res.AddRow(p.([]string)...)
				}
				return res, nil
			}
			return plan, nil
		},
	})
	return g
}

// TestWorkerKilledMidShardRequeues kills a worker while it computes a
// shard (transport severed: no heartbeat, no completion — a dead process)
// and asserts the dispatch layer requeues the shard onto a healthy worker,
// the job completes, and the report is byte-identical to a local serial
// run.
func TestWorkerKilledMidShardRequeues(t *testing.T) {
	g := registerGateExperiment("dist-test-gate")
	_, ts := newDispatchServer(t, 200*time.Millisecond)

	kt := &killableTransport{}
	startWorker(t, ts.URL, WorkerOptions{
		Name:         "victim",
		Capacity:     1,
		HTTPClient:   &http.Client{Transport: kt},
		PollWait:     50 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
	})

	remote, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	type runRes struct {
		res *columndisturb.Result
		err error
	}
	done := make(chan runRes, 1)
	go func() {
		res, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"dist-test-gate"}})
		done <- runRes{res, err}
	}()

	// The victim is now computing the gate shard: kill it mid-shard.
	select {
	case <-g.started:
	case <-time.After(10 * time.Second):
		t.Fatal("victim never started the gated shard")
	}
	kt.dead.Store(true)
	close(g.release) // the victim finishes computing but cannot report

	// A healthy worker attaches; the requeued shard (and the rest) must
	// flow to it.
	startWorker(t, ts.URL, WorkerOptions{
		Name:         "healthy",
		Capacity:     2,
		PollWait:     50 * time.Millisecond,
		RetryBackoff: 20 * time.Millisecond,
	})

	var r runRes
	select {
	case r = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("run did not complete after the worker was killed")
	}
	if r.err != nil {
		t.Fatalf("run failed after worker death: %v", r.err)
	}
	if n := g.execs.Load(); n < 2 {
		t.Fatalf("gated shard executed %d times, want >= 2 (no requeue happened)", n)
	}

	local, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(context.Background(), columndisturb.Request{Experiments: []string{"dist-test-gate"}})
	if err != nil {
		t.Fatal(err)
	}
	if r.res.Reports[0].Text != want.Reports[0].Text {
		t.Fatalf("post-requeue report differs from serial local run:\n--- remote ---\n%s--- local ---\n%s",
			r.res.Reports[0].Text, want.Reports[0].Text)
	}
}

// TestSilentWorkerDroppedFromLeaseTable: a worker that registers over HTTP
// and then never heartbeats is dropped from the lease table once the
// deadline passes.
func TestSilentWorkerDroppedFromLeaseTable(t *testing.T) {
	_, ts := newDispatchServer(t, 100*time.Millisecond)
	resp, err := http.Post(ts.URL+"/v1/workers", "application/json", strings.NewReader(`{"name":"ghost","capacity":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register returned %d", resp.StatusCode)
	}

	listed := func() string {
		resp, err := http.Get(ts.URL + "/v1/workers")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}
	if !strings.Contains(listed(), "ghost") {
		t.Fatal("registered worker missing from the listing")
	}
	deadline := time.Now().Add(5 * time.Second)
	for strings.Contains(listed(), "ghost") {
		if time.Now().After(deadline) {
			t.Fatal("silent worker still in the lease table after its deadline")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestWorkerReRegistersAfterDrop: a worker whose server-side identity
// expired (long GC pause, partition) discovers it on the next verb and
// re-registers under a fresh identity instead of dying.
func TestWorkerReRegistersAfterDrop(t *testing.T) {
	_, ts := newDispatchServer(t, 150*time.Millisecond)

	var logs lockedBuffer
	startWorker(t, ts.URL, WorkerOptions{
		Name:         "flappy",
		Capacity:     1,
		PollWait:     20 * time.Millisecond,
		RetryBackoff: 400 * time.Millisecond,
		Logger:       slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug})),
	})
	// A fresh identity logs "registered as <id>"; an identity taken after a
	// server-side drop logs the eviction-gap warning instead.
	registrations := func() int {
		out := logs.String()
		return strings.Count(out, "registered as") +
			strings.Count(out, "re-registered after server-side eviction")
	}
	// Wait for the first registration, then force the drop by deleting the
	// worker server-side (an operator evicting it, or a restart losing the
	// table).
	waitForCond(t, 5*time.Second, func() bool { return registrations() >= 1 }, "first registration")
	resp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Evict every worker via deregister.
	for _, id := range []string{"w1", "w2", "w3"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/workers/"+id, nil)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	waitForCond(t, 10*time.Second, func() bool { return registrations() >= 2 }, "re-registration after eviction")

	// The re-register after an eviction must warn with the blackout window
	// (the eviction-to-reregister gap), so operators can see how long the
	// fleet ran a worker short.
	waitForCond(t, 5*time.Second, func() bool {
		for _, line := range strings.Split(logs.String(), "\n") {
			if strings.Contains(line, "re-registered after server-side eviction") &&
				strings.Contains(line, "gap_ms=") {
				return true
			}
		}
		return false
	}, "eviction-gap warning with gap_ms")
}

// lockedBuffer is a log sink safe for the worker's concurrent goroutines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func waitForCond(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
