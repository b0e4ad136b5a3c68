package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"columndisturb/internal/obs"
)

// Coverage for the observability surface of the HTTP front-end: the
// per-job span record at /v1/jobs/<id>/trace and the Prometheus-text
// export at /v1/metrics.

// TestTraceEndpointSpanCompleteness runs a job to completion and checks
// the trace artifact end to end: schema version and monotonic offsets
// (enforced by obs.DecodeTrace), one closed span per shard, and the
// queued→executing→completed transition chain of an in-process run.
func TestTraceEndpointSpanCompleteness(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	st := postJob(t, srv.URL, "table1")
	if st.TraceID == "" {
		t.Fatalf("submit status carries no trace_id: %+v", st)
	}
	j, ok := svc.Job(st.ID)
	if !ok {
		t.Fatalf("job %s not in table", st.ID)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace: %s", resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := obs.DecodeTrace(body)
	if err != nil {
		t.Fatal(err)
	}
	if rec.TraceID != st.TraceID || rec.Job != st.ID || rec.Experiment != "table1" {
		t.Fatalf("trace envelope %+v does not match job %+v", rec, st)
	}
	if rec.State != string(JobDone) {
		t.Fatalf("trace state %q, want %q", rec.State, JobDone)
	}
	_, total := j.Progress()
	if total == 0 || len(rec.Spans) != total {
		t.Fatalf("trace has %d spans, job has %d shards", len(rec.Spans), total)
	}
	if open := rec.Incomplete(); len(open) != 0 {
		t.Fatalf("finished job has unclosed spans: %v", open)
	}
	seen := map[string]bool{}
	for _, s := range rec.Spans {
		if seen[s.Shard] {
			t.Fatalf("duplicate span for shard %q", s.Shard)
		}
		seen[s.Shard] = true
		// No cache configured: every shard computes in-process and must
		// walk the full local lifecycle.
		if s.Cached {
			t.Fatalf("shard %q marked cached with no cache configured", s.Shard)
		}
		states := make([]obs.SpanState, len(s.Events))
		for i, ev := range s.Events {
			states[i] = ev.State
		}
		if len(states) != 3 || states[0] != obs.SpanQueued || states[1] != obs.SpanExecuting || states[2] != obs.SpanCompleted {
			t.Fatalf("shard %q transitions %v, want [queued executing completed]", s.Shard, states)
		}
	}
}

// TestTraceEndpointErrors covers the failure paths of the trace route.
func TestTraceEndpointErrors(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/v1/jobs/job-999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown job: %s, want 404", resp.Status)
	}

	st := postJob(t, srv.URL, "table1")
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/jobs/"+st.ID+"/trace", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST trace: %s, want 405", resp.Status)
	}
	if j, _ := svc.Job(st.ID); j != nil {
		j.Wait(context.Background())
	}
}

// TestSubmitTraceID checks the trace-ID intake rules: a client-supplied ID
// is honored verbatim, distinct jobs mint distinct IDs, and an oversized
// ID is rejected at submit.
func TestSubmitTraceID(t *testing.T) {
	svc := New(Options{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	submit := func(body string) (*http.Response, JobStatus) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		return resp, st
	}

	resp, st := submit(`{"experiment":"table1","trace_id":"client-correlation-1"}`)
	if resp.StatusCode != http.StatusAccepted || st.TraceID != "client-correlation-1" {
		t.Fatalf("supplied trace ID not honored: %s, %+v", resp.Status, st)
	}
	// A job submitted without a trace ID gets a freshly minted one.
	resp2, st2 := submit(`{"experiment":"sec61"}`)
	if resp2.StatusCode != http.StatusAccepted || st2.TraceID == "" || st2.TraceID == st.TraceID {
		t.Fatalf("minted trace ID missing or colliding: %+v vs %+v", st2, st)
	}
	resp3, _ := submit(`{"experiment":"table1","trace_id":"` + strings.Repeat("x", 65) + `"}`)
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized trace ID accepted: %s", resp3.Status)
	}
	for _, id := range []string{st.ID, st2.ID} {
		if j, _ := svc.Job(id); j != nil {
			j.Wait(context.Background())
		}
	}
}

// TestMetricsEndpoint checks the Prometheus-text export after a completed
// job: the advertised content type, every required family, parseable
// sample lines, and counts consistent with the run that just happened.
func TestMetricsEndpoint(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	st := postJob(t, srv.URL, "table1")
	j, _ := svc.Job(st.ID)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("metrics content type %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	families := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if name, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families[strings.Fields(name)[0]] = true
			continue
		}
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// Every sample line is "name[{labels}] value" with a parseable value.
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("unparseable sample value in %q: %v", line, err)
		}
	}
	for _, want := range []string{
		"cdlab_jobs_total", "cdlab_jobs_active",
		"cdlab_job_ms", "cdlab_shard_elapsed_ms", "cdlab_shards_total",
		"cdlab_backend_workers",
	} {
		if !families[want] {
			t.Fatalf("metrics export missing family %s:\n%s", want, text)
		}
	}
	for _, want := range []string{
		`cdlab_jobs_total{state="submitted"} 1`,
		`cdlab_jobs_total{state="done"} 1`,
		`cdlab_jobs_active 0`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics export missing sample %q:\n%s", want, text)
		}
	}
	_, total := j.Progress()
	if want := `cdlab_shards_total{source="local"} ` + strconv.Itoa(total); !strings.Contains(text, want) {
		t.Fatalf("metrics export missing %q:\n%s", want, text)
	}
}
