package client

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"columndisturb"
	"columndisturb/internal/obs"
	"columndisturb/internal/service"
)

// TestMetricsAndTraceDistributed drives the observability plane through a
// real two-worker run: /v1/metrics is scraped continuously WHILE shards
// lease and complete (under -race this gates the registry's concurrent
// inc/observe/export paths), the settled export carries the dispatch
// families, and every job's trace replays closed, worker-attributed spans.
func TestMetricsAndTraceDistributed(t *testing.T) {
	_, ts := newDispatchServer(t, 2*time.Second)
	for i := 0; i < 2; i++ {
		startWorker(t, ts.URL, WorkerOptions{
			Name:         fmt.Sprintf("obs-w%d", i+1),
			Capacity:     2,
			PollWait:     50 * time.Millisecond,
			RetryBackoff: 20 * time.Millisecond,
		})
	}
	remote, err := New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}

	jobIDs := map[string]bool{}
	var mu sync.Mutex
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		mu.Lock()
		jobIDs[ev.Job] = true
		mu.Unlock()
	})
	defer stop()

	// Scrape the metrics endpoint in a tight loop for the whole run.
	scrapeCtx, stopScrape := context.WithCancel(context.Background())
	var scrapes atomic.Int64
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		for scrapeCtx.Err() == nil {
			resp, err := http.Get(ts.URL + "/v1/metrics")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					scrapes.Add(1)
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	res, runErr := remote.Run(context.Background(), columndisturb.Request{
		Experiments: []string{"fig6", "table1"},
	})
	stopScrape()
	<-scraperDone
	if runErr != nil {
		t.Fatal(runErr)
	}
	for i, err := range res.Errors {
		if err != nil {
			t.Fatalf("experiment %d failed: %v", i, err)
		}
	}
	if scrapes.Load() == 0 {
		t.Fatal("no successful metrics scrape during the run")
	}

	// The settled export must carry the dispatch-plane families.
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"cdlab_worker_tasks_total", "cdlab_lease_wait_ms",
		"cdlab_lease_to_complete_ms", "cdlab_dispatch_queue_depth",
		"cdlab_dispatch_workers", `cdlab_shards_total{source="remote"}`,
		`cdlab_worker_tasks_total{worker="obs-w1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("settled metrics export missing %q:\n%s", want, text)
		}
	}

	// Every job's trace replays closed spans with worker attribution: with
	// -no-local-shards each shard must have leased to a named worker.
	mu.Lock()
	ids := make([]string, 0, len(jobIDs))
	for id := range jobIDs {
		ids = append(ids, id)
	}
	mu.Unlock()
	if len(ids) != 2 {
		t.Fatalf("events named %d jobs, want 2", len(ids))
	}
	for _, id := range ids {
		rec, err := remote.Trace(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if open := rec.Incomplete(); len(open) != 0 {
			t.Fatalf("job %s settled with unclosed spans: %v", id, open)
		}
		if len(rec.Spans) == 0 {
			t.Fatalf("job %s trace has no spans", id)
		}
		for _, s := range rec.Spans {
			// Spans attribute the dispatcher's worker identity ("w1", ...);
			// with -no-local-shards every shard must carry one.
			if s.Worker == "" {
				t.Fatalf("job %s shard %q not attributed to a worker: %+v", id, s.Shard, s)
			}
			var leased bool
			for _, ev := range s.Events {
				if ev.State == obs.SpanLeased {
					leased = true
				}
			}
			if !leased {
				t.Fatalf("job %s shard %q never leased: %+v", id, s.Shard, s.Events)
			}
		}
	}
}

// TestTraceRejectsUnroutableJobIDs pins Trace's handling of user-typed job
// IDs: an ID that would route to another resource fails before any
// request, and one carrying URL syntax reaches the server escaped, where
// it names no job — never job-1's status or the worker API. Each error
// names the ID.
func TestTraceRejectsUnroutableJobIDs(t *testing.T) {
	_, remote := newServer(t, service.Options{Workers: 1}, nil)
	if _, err := remote.Run(context.Background(), columndisturb.Request{Experiments: []string{"table1"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.Trace(context.Background(), "job-1"); err != nil {
		t.Fatalf("trace of the settled job-1: %v", err)
	}
	for _, id := range []string{"", ".", "..", "../workers", "job-1/trace", "job-1?x", "job-1#x", "job-1%2Ftrace"} {
		_, err := remote.Trace(context.Background(), id)
		if err == nil {
			t.Errorf("Trace(%q) succeeded", id)
			continue
		}
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", id)) {
			t.Errorf("Trace(%q) error does not name the ID: %v", id, err)
		}
	}
	_, err := remote.Trace(context.Background(), "job-1?x")
	if want := `unknown job "job-1?x"`; err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Trace(%q) = %v, want the server's 404 %s", "job-1?x", err, want)
	}
}
