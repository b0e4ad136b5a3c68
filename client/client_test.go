package client

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"columndisturb"
	"columndisturb/internal/cache"
	"columndisturb/internal/experiments"
	"columndisturb/internal/service"
)

// newServer starts a service behind an httptest server, optionally behind
// a middleware, and returns both plus a ready client.
func newServer(t *testing.T, opts service.Options, wrap func(http.Handler) http.Handler) (*service.Service, *Runner) {
	t.Helper()
	svc := service.New(opts)
	t.Cleanup(svc.Close)
	var h http.Handler = svc.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	r, err := New(srv.URL, Options{RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return svc, r
}

// TestRemoteRoundtripByteIdentical is the acceptance criterion: submit →
// stream → report over HTTP renders byte-identical output to the same
// request run locally, and a warm re-run against the server's cache
// recomputes zero shards.
func TestRemoteRoundtripByteIdentical(t *testing.T) {
	store, err := cache.New(cache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, remote := newServer(t, service.Options{Workers: 2, Cache: store}, nil)

	req := columndisturb.Request{
		Experiments: []string{"fig6", "table1"},
		Profile:     "small",
		Overrides:   map[string]string{"seed": "7"},
	}

	var mu sync.Mutex
	perJob := map[string][]columndisturb.Event{}
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		mu.Lock()
		perJob[ev.Job] = append(perJob[ev.Job], ev)
		mu.Unlock()
	})
	defer stop()

	got, err := remote.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	local, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	want, err := local.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range req.Experiments {
		if got.Reports[i].Text != want.Reports[i].Text {
			t.Fatalf("%s: remote report differs from local run", req.Experiments[i])
		}
		if got.Reports[i].Elapsed <= 0 {
			t.Fatalf("%s: remote report has no elapsed time", req.Experiments[i])
		}
	}

	// Subscribers saw a complete, gap-free stream per job.
	mu.Lock()
	if len(perJob) != 2 {
		t.Fatalf("events for %d jobs, want 2", len(perJob))
	}
	for job, evs := range perJob {
		for i, ev := range evs {
			if ev.Seq != i {
				t.Fatalf("job %s: event %d has seq %d", job, i, ev.Seq)
			}
		}
		if evs[len(evs)-1].Type != service.EventJobFinished {
			t.Fatalf("job %s: stream ends with %s", job, evs[len(evs)-1].Type)
		}
	}
	mu.Unlock()

	// Warm re-run: every shard is served from the server's cache.
	var warm []columndisturb.Event
	stop2 := remote.Subscribe(func(ev columndisturb.Event) {
		mu.Lock()
		warm = append(warm, ev)
		mu.Unlock()
	})
	defer stop2()
	again, err := remote.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i := range req.Experiments {
		if again.Reports[i].Text != got.Reports[i].Text {
			t.Fatalf("%s: warm remote report differs", req.Experiments[i])
		}
	}
	mu.Lock()
	defer mu.Unlock()
	shardDone := 0
	for _, ev := range warm {
		if ev.Type == service.EventShardDone {
			shardDone++
			if ev.Cached == nil || !*ev.Cached {
				t.Fatalf("warm shard %q recomputed", ev.Shard)
			}
		}
	}
	if shardDone == 0 {
		t.Fatal("warm run emitted no shard events")
	}
}

// cutWriter aborts the connection after a fixed number of writes,
// simulating a mid-stream network failure.
type cutWriter struct {
	http.ResponseWriter
	remaining int
}

func (cw *cutWriter) Write(b []byte) (int, error) {
	if cw.remaining <= 0 {
		panic(http.ErrAbortHandler)
	}
	cw.remaining--
	return cw.ResponseWriter.Write(b)
}

func (cw *cutWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// TestReconnectReplaysMissedEvents is the disconnect satellite: the first
// event-stream connection dies after two events; the client must resume
// with ?from=2 and the subscriber must still observe every event exactly
// once, in order.
func TestReconnectReplaysMissedEvents(t *testing.T) {
	var mu sync.Mutex
	var eventQueries []string
	cut := true
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.Contains(r.URL.Path, "/events") {
				mu.Lock()
				eventQueries = append(eventQueries, r.URL.RawQuery)
				first := cut
				cut = false
				mu.Unlock()
				if first {
					w = &cutWriter{ResponseWriter: w, remaining: 2}
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	_, remote := newServer(t, service.Options{Workers: 2}, wrap)

	var seen []columndisturb.Event
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		mu.Lock()
		seen = append(seen, ev)
		mu.Unlock()
	})
	defer stop()

	res, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports[0] == nil || res.Reports[0].ID != "table1" {
		t.Fatalf("report = %+v", res.Reports[0])
	}

	mu.Lock()
	defer mu.Unlock()
	if len(eventQueries) < 2 {
		t.Fatalf("client made %d event-stream requests, want a reconnect after the cut", len(eventQueries))
	}
	if eventQueries[0] != "from=0" || eventQueries[1] != "from=2" {
		t.Fatalf("stream requests = %v, want [from=0 from=2]", eventQueries)
	}
	// The subscriber saw every sequence number exactly once, in order —
	// no loss at the cut, no duplication at the resume.
	for i, ev := range seen {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (gap or duplicate across reconnect)", i, ev.Seq)
		}
	}
	if seen[len(seen)-1].Type != service.EventJobFinished {
		t.Fatalf("stream ends with %s", seen[len(seen)-1].Type)
	}
}

var (
	syntheticMu    sync.Mutex
	syntheticPlans = map[string]func(experiments.Config) (*experiments.Plan, error){}
)

// registerSynthetic installs a synthetic experiment for client tests. The
// registry is global and rejects duplicate IDs, so the first call per ID
// registers a plan that forwards to the latest registration's Plan: a
// test rerun under -count=N then drives its own closures and channels, not
// those of the first run. Each test still uses a unique ID.
func registerSynthetic(e experiments.Experiment) {
	syntheticMu.Lock()
	defer syntheticMu.Unlock()
	if _, ok := syntheticPlans[e.ID]; !ok {
		id := e.ID
		forward := e
		forward.Plan = func(cfg experiments.Config) (*experiments.Plan, error) {
			syntheticMu.Lock()
			plan := syntheticPlans[id]
			syntheticMu.Unlock()
			return plan(cfg)
		}
		experiments.Register(forward)
	}
	syntheticPlans[e.ID] = e.Plan
}

// registerBlocking installs a synthetic experiment whose single shard
// parks until its context is cancelled (or released), for cancellation
// coverage. IDs must be unique per test: registration is global.
func registerBlocking(id string, started chan<- struct{}, release <-chan struct{}) {
	registerSynthetic(experiments.Experiment{
		ID:    id,
		Paper: "test",
		Title: "blocking",
		Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
			return &experiments.Plan{
				Shards: []experiments.Shard{{
					Label: id + " shard",
					Run: func(ctx context.Context) (any, error) {
						select {
						case started <- struct{}{}:
						default:
						}
						select {
						case <-release:
							return &experiments.Result{ID: id}, nil
						case <-ctx.Done():
							return nil, ctx.Err()
						}
					},
				}},
				Merge: func(parts []any) (*experiments.Result, error) {
					return parts[0].(*experiments.Result), nil
				},
			}, nil
		},
	})
}

// TestClientCancellationPropagatesToServer is the cancellation satellite:
// cancelling the Run context surfaces as ctx.Err() on the client AND
// cancels the job server-side, releasing the pool.
func TestClientCancellationPropagatesToServer(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	registerBlocking("client-test-block", started, release)

	svc, remote := newServer(t, service.Options{Workers: 1}, nil)

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := remote.Run(ctx, columndisturb.Request{Experiments: []string{"client-test-block"}})
		errCh <- err
	}()

	<-started // the shard is parked on the server
	cancel()

	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run error = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}

	// The DELETE reached the server: the job settles as canceled.
	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs on server", len(jobs))
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if jobs[0].State() == service.JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server job state = %s, want canceled", jobs[0].State())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The pool survives for the next remote run.
	res, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"table1"}})
	if err != nil {
		t.Fatalf("pool unusable after remote cancellation: %v", err)
	}
	if res.Reports[0] == nil {
		t.Fatal("post-cancel run produced no report")
	}
}

// TestServerSideCancellationSurfaces: a job cancelled by another actor on
// the server (DELETE from elsewhere) fails the remote Run with an error
// wrapping context.Canceled.
func TestServerSideCancellationSurfaces(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	registerBlocking("client-test-block2", started, release)

	svc, remote := newServer(t, service.Options{Workers: 1}, nil)

	errCh := make(chan error, 1)
	go func() {
		_, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"client-test-block2"}})
		errCh <- err
	}()

	<-started
	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs on server", len(jobs))
	}
	jobs[0].Cancel() // a third party cancels the job on the server

	select {
	case err := <-errCh:
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Fatalf("Run error = %v, want an error wrapping context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not observe the server-side cancellation")
	}
}

// TestRemoteValidation: unknown experiments are rejected against the
// server's registry before any job is submitted, and bad addresses are
// rejected at construction.
func TestRemoteValidation(t *testing.T) {
	svc, remote := newServer(t, service.Options{Workers: 1}, nil)

	_, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"table1", "nope"}})
	var unknown *columndisturb.UnknownExperimentError
	if !errors.As(err, &unknown) || len(unknown.IDs) != 1 || unknown.IDs[0] != "nope" {
		t.Fatalf("error = %v, want UnknownExperimentError for nope", err)
	}
	if n := len(svc.Jobs()); n != 0 {
		t.Fatalf("%d jobs submitted despite validation failure", n)
	}

	// A bad profile is rejected by the server at submit, before any
	// sibling job leaks.
	_, err = remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"table1"}, Profile: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "bogus") {
		t.Fatalf("bad profile error = %v", err)
	}

	for _, addr := range []string{"://", "ftp://x", ""} {
		if _, err := New(addr); err == nil {
			t.Fatalf("address %q accepted", addr)
		}
	}

	// Runner interface metadata endpoints.
	exps, err := remote.Experiments(context.Background())
	if err != nil || len(exps) < 20 {
		t.Fatalf("Experiments = %d, %v", len(exps), err)
	}
	profs, err := remote.Profiles(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, p := range profs {
		names[p.Name] = true
	}
	if !names["small"] || !names["full"] {
		t.Fatalf("remote profiles = %+v", profs)
	}
}

// TestUnreachableServer: a runner pointed at a dead address fails with a
// transport error, not a hang.
func TestUnreachableServer(t *testing.T) {
	r, err := New("127.0.0.1:1", Options{StreamRetries: 1, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.Run(ctx, columndisturb.Request{Experiments: []string{"table1"}}); err == nil {
		t.Fatal("run against dead server succeeded")
	}
}

// TestSubmitFailureCancelsSiblings: when a later submit fails, the
// already-submitted jobs are cancelled rather than left running.
func TestSubmitFailureCancelsSiblings(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	registerBlocking("client-test-block3", started, release)

	// Middleware that fails the second POST /v1/jobs.
	var mu sync.Mutex
	posts := 0
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/jobs") {
				mu.Lock()
				posts++
				n := posts
				mu.Unlock()
				if n == 2 {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusServiceUnavailable)
					fmt.Fprint(w, `{"error":"induced failure"}`)
					return
				}
			}
			inner.ServeHTTP(w, r)
		})
	}
	svc, remote := newServer(t, service.Options{Workers: 1}, wrap)

	_, err := remote.Run(context.Background(),
		columndisturb.Request{Experiments: []string{"client-test-block3", "table1"}})
	if err == nil || !strings.Contains(err.Error(), "induced failure") {
		t.Fatalf("error = %v", err)
	}
	jobs := svc.Jobs()
	if len(jobs) != 1 {
		t.Fatalf("%d jobs on server, want only the first", len(jobs))
	}
	deadline := time.Now().Add(10 * time.Second)
	for jobs[0].State() != service.JobCanceled {
		if time.Now().After(deadline) {
			t.Fatalf("orphaned job state = %s, want canceled", jobs[0].State())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerJobIDsNeverReroute: job IDs come from the server, and the
// client puts them in request paths. A submit answer whose ID no path can
// carry ("a/b") is refused before any request names it, and an ID that is
// valid but needs escaping ("job?1") reaches the server path-escaped — here
// in the DELETE that cancels the first job once the second submit failed.
func TestServerJobIDsNeverReroute(t *testing.T) {
	var mu sync.Mutex
	posts := 0
	var jobRequests []string // method and escaped path of every /v1/jobs/... request
	wrap := func(inner http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
				posts++
				id := "job?1"
				if posts == 2 {
					id = "a/b"
				}
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusAccepted)
				fmt.Fprintf(w, `{"id":%q,"experiment":"table1","state":"queued"}`, id)
			case strings.HasPrefix(r.URL.Path, "/v1/jobs/"):
				req := r.Method + " " + r.URL.EscapedPath()
				if r.URL.RawQuery != "" {
					req += "?" + r.URL.RawQuery
				}
				jobRequests = append(jobRequests, req)
				http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
			default:
				inner.ServeHTTP(w, r)
			}
		})
	}
	_, remote := newServer(t, service.Options{Workers: 1}, wrap)

	_, err := remote.Run(context.Background(),
		columndisturb.Request{Experiments: []string{"table1", "fig6"}})
	if err == nil || !strings.Contains(err.Error(), `invalid job ID "a/b"`) {
		t.Fatalf("Run error = %v, want the submit of fig6 refusing job ID \"a/b\"", err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{"DELETE /v1/jobs/job%3F1"}
	if fmt.Sprint(jobRequests) != fmt.Sprint(want) {
		t.Fatalf("job requests %q, want only %q", jobRequests, want)
	}
}

// TestFollowJobAllocationBounded: reading one finished job's event stream
// allocates in proportion to its few short lines, not a buffer sized to
// the 1 MiB line cap.
func TestFollowJobAllocationBounded(t *testing.T) {
	_, remote := newServer(t, service.Options{Workers: 1}, nil)
	var mu sync.Mutex
	var job string
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		mu.Lock()
		job = ev.Job
		mu.Unlock()
	})
	if _, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"table1"}}); err != nil {
		t.Fatal(err)
	}
	stop()
	mu.Lock()
	id := job
	mu.Unlock()

	// TotalAlloc is process-wide, so the in-process server's side of the
	// request counts too, and so does any other goroutine's work; the
	// smallest of a few reads filters that out.
	const bound = 64 << 10
	least := uint64(math.MaxUint64)
	for i := 0; i < 5; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		terminal, err := remote.followJob(context.Background(), id)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if terminal.Type != service.EventJobFinished {
			t.Fatalf("terminal event = %s", terminal.Type)
		}
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > bound {
		t.Fatalf("following one job's events allocated %d bytes, want <= %d", least, bound)
	}
}
