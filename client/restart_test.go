package client

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"columndisturb"
)

// TestClientResumesAcrossServerRestart is the end-to-end durability
// scenario: a remote run is interrupted by a full server restart — the
// listener dies mid-stream, the runner suspends (WAL fsynced), and a NEW
// runner on the same cache/WAL directories takes over the same address.
// The client must ride through it on its reconnect loop: the recovered
// job resumes under its original ID, the merged event stream stays
// gap-free, and the report is byte-identical to an uninterrupted run.
func TestClientResumesAcrossServerRestart(t *testing.T) {
	dir := t.TempDir()
	newRunner := func() *columndisturb.LocalRunner {
		r, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
			Workers:  2,
			CacheDir: dir + "/cache",
			WALDir:   dir + "/wal",
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	serve := func(r *columndisturb.LocalRunner, ln net.Listener) *http.Server {
		srv := &http.Server{Handler: r.Handler()}
		go srv.Serve(ln)
		return srv
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	runner1 := newRunner()
	srv1 := serve(runner1, ln)

	// A patient client: the restart window must fit inside its retry
	// budget.
	remote, err := New(addr, Options{StreamRetries: 100, RetryBackoff: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var events []columndisturb.Event
	computed := make(chan struct{}, 64)
	stop := remote.Subscribe(func(ev columndisturb.Event) {
		mu.Lock()
		events = append(events, ev)
		mu.Unlock()
		if ev.Type == columndisturb.EventShardDone && ev.Cached != nil && !*ev.Cached {
			select {
			case computed <- struct{}{}:
			default:
			}
		}
	})
	defer stop()

	req := columndisturb.Request{Experiments: []string{"table1"}}
	type outcome struct {
		res *columndisturb.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := remote.Run(context.Background(), req)
		done <- outcome{res, err}
	}()

	// Wait until at least one shard actually computed (its result is in
	// the on-disk cache), then restart the server under the client:
	// listener first, so the client sees a dead connection rather than a
	// canceled job, then the runner suspend that journals the clean
	// shutdown.
	<-computed
	_ = srv1.Close()
	runner1.Shutdown()

	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	runner2 := newRunner()
	defer runner2.Close()
	srv2 := serve(runner2, ln2)
	defer srv2.Close()

	out := <-done
	if out.err != nil {
		t.Fatalf("run across restart failed: %v", out.err)
	}
	rep := out.res.Reports[0]
	if rep == nil {
		t.Fatal("no report")
	}

	// Byte-identity with an uninterrupted local run of the same request.
	local, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer local.Close()
	ref, err := local.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text != ref.Reports[0].Text {
		t.Fatalf("restarted report differs from uninterrupted run:\n--- restarted ---\n%s\n--- reference ---\n%s",
			rep.Text, ref.Reports[0].Text)
	}

	// The recovered re-run served the pre-restart shards from the cache.
	if st := runner2.CacheStats(); st.Hits < 1 {
		t.Fatalf("recovered run hit %d cached shards, want >= 1", st.Hits)
	}

	// The client's merged stream — pre-restart prefix plus resumed suffix —
	// is one gap-free sequence for one job ID ending in job_finished.
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 3 {
		t.Fatalf("only %d events observed", len(events))
	}
	jobID := events[0].Job
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d (gap across restart)", i, ev.Seq)
		}
		if ev.Job != jobID {
			t.Fatalf("stream switched job IDs: %s then %s (recovery re-keyed the job)", jobID, ev.Job)
		}
	}
	if last := events[len(events)-1]; last.Type != columndisturb.EventJobFinished {
		t.Fatalf("stream ends with %s", last.Type)
	}
}
