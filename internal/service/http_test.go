package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"columndisturb/internal/experiments"
)

func postJob(t *testing.T, base, id string) JobStatus {
	t.Helper()
	body, _ := json.Marshal(JobSpec{Experiment: id})
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %s", resp.Status)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHTTPSubmitStreamReport drives the full front-end loop: submit a job,
// follow its JSONL event stream to completion, then fetch the report in
// both encodings and check it matches a direct run.
func TestHTTPSubmitStreamReport(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	st := postJob(t, srv.URL, "table1")
	if st.ID == "" || st.Experiment != "table1" {
		t.Fatalf("submit status = %+v", st)
	}

	// The event stream replays from Seq 0 and closes after the terminal
	// event.
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if err := ValidateEvent(ev); err != nil {
			t.Fatal(err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	checkEventStream(t, events, -1, false)

	// Report, JSON first.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/report", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report: %s", resp.Status)
	}
	var rep struct {
		ID   string `json:"id"`
		Text string `json:"text"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	e, _ := experiments.ByID("table1")
	direct, err := e.RunWith(context.Background(), experiments.Small(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ID != "table1" || rep.Text != direct.String() {
		t.Fatalf("HTTP report differs from direct run (id=%q)", rep.ID)
	}

	// Text rendering.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/report?format=text", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if buf.String() != direct.String() {
		t.Fatal("text report differs from direct run")
	}
}

// TestHTTPConcurrentSubmissions is the serve-side acceptance criterion:
// two experiments submitted through the HTTP front-end complete through
// one shared pool, each with a valid event stream.
func TestHTTPConcurrentSubmissions(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	sts := []JobStatus{postJob(t, srv.URL, "fig6"), postJob(t, srv.URL, "table1")}
	for _, st := range sts {
		j, ok := svc.Job(st.ID)
		if !ok {
			t.Fatalf("job %s not in table", st.ID)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, total := j.Progress()
		checkEventStream(t, j.EventHistory(), total, false)
	}

	// The listing reports both jobs done.
	resp, err := http.Get(srv.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 2 {
		t.Fatalf("listing has %d jobs", len(list))
	}
	for _, st := range list {
		if st.State != string(JobDone) {
			t.Fatalf("job %s state %s", st.ID, st.State)
		}
		if st.Done != st.Total || st.Total == 0 {
			t.Fatalf("job %s progress %d/%d", st.ID, st.Done, st.Total)
		}
	}
}

// TestHTTPErrors covers the failure paths: bad spec, unknown experiment,
// unknown job, report on an unfinished job.
func TestHTTPErrors(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	registerBlockingExperiment("svc-test-http-block", 1, started, release)

	svc := New(Options{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range []struct {
		method, path, body string
		wantCode           int
	}{
		{"POST", "/v1/jobs", "{not json", http.StatusBadRequest},
		{"POST", "/v1/jobs", `{"experiment":"nope"}`, http.StatusBadRequest},
		{"GET", "/v1/jobs/job-999", "", http.StatusNotFound},
		{"GET", "/v1/jobs/job-999/events", "", http.StatusNotFound},
		{"PUT", "/v1/jobs", "", http.StatusMethodNotAllowed},
		{"GET", "/jobs", "", http.StatusNotFound}, // no unversioned routes
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantCode {
			t.Fatalf("%s %s: %s, want %d", tc.method, tc.path, resp.Status, tc.wantCode)
		}
	}

	// Report on a still-running job: 409 with a pointer to the stream.
	st := postJob(t, srv.URL, "svc-test-http-block")
	<-started
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/report", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("report on running job: %s, want 409", resp.Status)
	}
	close(release)
	if j, _ := svc.Job(st.ID); j != nil {
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestV1Routes covers the versioned API surface the client package speaks:
// profile-carrying submission, the profiles listing, and event-stream
// resumption via ?from=N.
func TestV1Routes(t *testing.T) {
	svc := New(Options{Workers: 2})
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Submit through /v1 with a profile and an override.
	body, _ := json.Marshal(JobSpec{Experiment: "table1", Profile: "small", Overrides: map[string]string{"seed": "9"}})
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || st.Profile != "small" || st.Overrides["seed"] != "9" {
		t.Fatalf("v1 submit: %s, status %+v", resp.Status, st)
	}
	j, _ := svc.Job(st.ID)
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	// The override reached the config resolution.
	if got := j.Config().Seed; got != 9 {
		t.Fatalf("job ran with seed %d, want 9", got)
	}

	// /v1/profiles lists at least the built-ins.
	resp, err = http.Get(srv.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var profs []HTTPProfileInfo
	if err := json.NewDecoder(resp.Body).Decode(&profs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	names := map[string]bool{}
	for _, p := range profs {
		names[p.Name] = true
	}
	if !names["small"] || !names["full"] {
		t.Fatalf("profiles listing missing built-ins: %+v", profs)
	}

	// /v1/experiments uses the exported wire type.
	resp, err = http.Get(srv.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps []HTTPExperimentInfo
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exps) < 20 || exps[0].ID == "" {
		t.Fatalf("experiments listing: %d entries", len(exps))
	}

	// Event resumption: ?from=N replays exactly the suffix.
	all := j.EventHistory()
	from := len(all) - 3
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", srv.URL, st.ID, from))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []Event
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if err := ValidateEvent(ev); err != nil {
			t.Fatal(err)
		}
		got = append(got, ev)
	}
	if len(got) != 3 || got[0].Seq != from || got[len(got)-1].Seq != len(all)-1 {
		t.Fatalf("from=%d replayed %d events starting at seq %d", from, len(got), got[0].Seq)
	}

	// A from beyond the terminal event yields an empty, closed stream.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", srv.URL, st.ID, len(all)+5))
	if err != nil {
		t.Fatal(err)
	}
	b := new(bytes.Buffer)
	b.ReadFrom(resp.Body)
	resp.Body.Close()
	if b.Len() != 0 {
		t.Fatalf("past-the-end from streamed %q", b.String())
	}

	// Bad from is a 400.
	resp, err = http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=-2", srv.URL, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("from=-2: %s, want 400", resp.Status)
	}

	// Bad profile and conflicting full+profile are rejected at submit.
	for _, bad := range []string{
		`{"experiment":"table1","profile":"nope"}`,
		`{"experiment":"table1","full":true,"profile":"small"}`,
		`{"experiment":"table1","overrides":{"bogus":"1"}}`,
	} {
		resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		var apiErr APIError
		json.NewDecoder(resp.Body).Decode(&apiErr)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || apiErr.Error == "" {
			t.Fatalf("bad spec %s accepted: %s (%+v)", bad, resp.Status, apiErr)
		}
	}
}
