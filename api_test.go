package columndisturb

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"columndisturb/internal/experiments"
	"columndisturb/internal/service"
)

// TestLocalRunnerMultiExperiment: one request fans several experiments
// onto the shared pool and returns reports in request order, identical to
// serial single-experiment runs.
func TestLocalRunnerMultiExperiment(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	serial, err := NewLocalRunner(LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer serial.Close()

	ids := []string{"table1", "sec61"}
	res, err := r.Run(context.Background(), Request{Experiments: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reports) != 2 || res.Err() != nil {
		t.Fatalf("result shape: %d reports, err %v", len(res.Reports), res.Err())
	}
	for i, id := range ids {
		rep := res.Reports[i]
		if rep == nil || rep.ID != id {
			t.Fatalf("report %d = %+v, want id %s", i, rep, id)
		}
		one, err := serial.Run(context.Background(), Request{Experiments: []string{id}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Text != one.Reports[0].Text {
			t.Fatalf("%s: batched report differs from a serial single-experiment run", id)
		}
		if res.Report(id) != rep {
			t.Fatalf("Report(%q) lookup failed", id)
		}
	}
}

// TestRunnerValidatesUpFront: unknown IDs anywhere in the request fail the
// whole request before any job starts, naming every offender.
func TestRunnerValidatesUpFront(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var events int
	stop := r.Subscribe(func(Event) { events++ })
	defer stop()

	_, err = r.Run(context.Background(), Request{Experiments: []string{"table1", "nope", "alsonope"}})
	var unknown *UnknownExperimentError
	if !errors.As(err, &unknown) {
		t.Fatalf("error = %v, want *UnknownExperimentError", err)
	}
	if len(unknown.IDs) != 2 || unknown.IDs[0] != "alsonope" || unknown.IDs[1] != "nope" {
		t.Fatalf("unknown IDs = %v", unknown.IDs)
	}
	if !strings.Contains(err.Error(), "nope") {
		t.Fatalf("error does not name the offenders: %v", err)
	}
	if events != 0 {
		t.Fatalf("%d events emitted for a rejected request (work started?)", events)
	}

	// Bad profile and bad overrides are rejected up front too.
	if _, err := r.Run(context.Background(), Request{Experiments: []string{"table1"}, Profile: "nope"}); err == nil {
		t.Fatal("unknown profile accepted")
	}
	if _, err := r.Run(context.Background(), Request{Experiments: []string{"table1"}, Overrides: map[string]string{"x": "1"}}); err == nil {
		t.Fatal("unknown override accepted")
	}
	if events != 0 {
		t.Fatalf("%d events emitted for rejected requests", events)
	}
}

// TestRunnerSubscribe: subscribers observe a complete, ordered event
// stream for each job of a run.
func TestRunnerSubscribe(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	var mu sync.Mutex
	perJob := map[string][]Event{}
	stop := r.Subscribe(func(ev Event) {
		mu.Lock()
		perJob[ev.Job] = append(perJob[ev.Job], ev)
		mu.Unlock()
	})
	defer stop()

	if _, err := r.Run(context.Background(), Request{Experiments: []string{"table1"}}); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(perJob) != 1 {
		t.Fatalf("events for %d jobs, want 1", len(perJob))
	}
	for job, evs := range perJob {
		for i, ev := range evs {
			if ev.Seq != i {
				t.Fatalf("job %s: event %d has seq %d", job, i, ev.Seq)
			}
		}
		first, last := evs[0], evs[len(evs)-1]
		if first.Type != EventJobQueued || last.Type != EventJobFinished {
			t.Fatalf("job %s: stream %s..%s", job, first.Type, last.Type)
		}
		// shard_done events count progress: Done rises by one per shard,
		// each names its shard, and the last one reaches Total.
		done, total := 0, 0
		for _, ev := range evs {
			if ev.Type != EventShardDone {
				continue
			}
			if ev.Done != done+1 || ev.Shard == "" {
				t.Fatalf("job %s: shard_done %d/%d %q after %d", job, ev.Done, ev.Total, ev.Shard, done)
			}
			done, total = ev.Done, ev.Total
		}
		if done == 0 || done != total {
			t.Fatalf("job %s: progress ended at %d/%d", job, done, total)
		}
	}
}

// apiProfileSeq numbers the profiles TestRunnerProfileAndOverrides
// registers.
var apiProfileSeq int

// TestRunnerProfileAndOverrides: a registered profile and inline overrides
// that resolve to the same configuration produce byte-identical reports.
func TestRunnerProfileAndOverrides(t *testing.T) {
	// Profiles are process-global, so the name is unique per run: the test
	// stays repeatable under -count=N.
	apiProfileSeq++
	name := fmt.Sprintf("api-test-tiny-%d", apiProfileSeq)
	ov := map[string]string{"subarrays-per-module": "2", "ttf-samples": "8", "seed": "11"}
	if err := RegisterProfile(name, "tiny sweep for tests", "small", ov); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, p := range Profiles() {
		if p.Name == name {
			found = true
		}
	}
	if !found {
		t.Fatal("registered profile not listed")
	}

	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	viaProfile, err := r.Run(context.Background(), Request{Experiments: []string{"fig6"}, Profile: name})
	if err != nil {
		t.Fatal(err)
	}
	viaOverrides, err := r.Run(context.Background(), Request{Experiments: []string{"fig6"}, Overrides: ov})
	if err != nil {
		t.Fatal(err)
	}
	if viaProfile.Reports[0].Text != viaOverrides.Reports[0].Text {
		t.Fatal("profile-resolved and override-resolved runs differ")
	}
	// And both differ from the plain small run: the overrides took effect.
	small, err := r.Run(context.Background(), Request{Experiments: []string{"fig6"}})
	if err != nil {
		t.Fatal(err)
	}
	if small.Reports[0].Text == viaProfile.Reports[0].Text {
		t.Fatal("overridden run identical to base profile run")
	}
}

var errSyntheticShard = errors.New("synthetic shard failure")

var failingExpOnce sync.Once

// registerFailingExperiment installs a two-shard experiment whose second
// shard always fails (the registry is global and rejects duplicates).
func registerFailingExperiment() {
	failingExpOnce.Do(func() {
		experiments.Register(experiments.Experiment{
			ID:    "api-test-fail",
			Paper: "test",
			Title: "synthetic failing sweep",
			Plan: func(cfg experiments.Config) (*experiments.Plan, error) {
				ok := func(context.Context) (any, error) { return []string{"ok"}, nil }
				fail := func(context.Context) (any, error) { return nil, errSyntheticShard }
				return &experiments.Plan{
					Shards: []experiments.Shard{
						{Label: "api-test-fail/shard=0", Run: ok},
						{Label: "api-test-fail/shard=1", Run: fail},
					},
					Merge: func([]any) (*experiments.Result, error) {
						return nil, errors.New("merge of a failed plan")
					},
				}, nil
			},
		})
	})
}

// TestRunnerPartialFailure: one failing experiment in a batch surfaces at
// its position while the rest complete.
func TestRunnerPartialFailure(t *testing.T) {
	registerFailingExperiment()
	r, err := NewLocalRunner(LocalOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	res, err := r.Run(context.Background(), Request{Experiments: []string{"api-test-fail", "table1"}})
	if res == nil {
		t.Fatalf("batch with one failing experiment returned no result: %v", err)
	}
	if err == nil || res.Err() == nil {
		t.Fatalf("partial failure not reported: Run err %v, Result.Err %v", err, res.Err())
	}
	if !errors.Is(res.Errors[0], errSyntheticShard) || res.Reports[0] != nil {
		t.Fatalf("position 0: error %v, report %+v; want the shard's failure and no report", res.Errors[0], res.Reports[0])
	}
	if res.Errors[1] != nil || res.Reports[1] == nil || res.Reports[1].ID != "table1" {
		t.Fatalf("position 1: error %v, report %+v; want table1's report", res.Errors[1], res.Reports[1])
	}

	// Cancelled context: Run returns ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Run(ctx, Request{Experiments: []string{"table1"}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v", err)
	}
}

// TestClosedRunnerRefusesWork: a closed runner refuses new work at once.
// Run returns the service's ErrClosed instead of waiting on the stopped
// dispatcher, and POST /v1/jobs through Handler answers 503.
func TestClosedRunnerRefusesWork(t *testing.T) {
	r, err := NewLocalRunner(LocalOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := r.Run(ctx, Request{Experiments: []string{"table1"}}); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("Run after Close = %v, want service.ErrClosed", err)
	}

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"experiment":"table1"}`))
	r.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/jobs after Close = %d %s, want 503", rec.Code, rec.Body)
	}
}
