// Package client is the remote Runner: a Go client for the /v1 HTTP API
// served by `cdlab serve` (internal/service.Handler). It implements
// columndisturb.Runner, so code written against the typed Request API runs
// unchanged whether experiments execute in-process or on a server:
//
//	r, err := client.New("127.0.0.1:8080")
//	res, err := r.Run(ctx, columndisturb.Request{
//		Experiments: []string{"fig6"},
//		Profile:     "full",
//		Overrides:   map[string]string{"seed": "7"},
//	})
//
// The client submits one job per experiment, follows each job's event
// stream (validating the versioned envelope and the gap-free sequence
// numbers), and fetches the finished report. Configuration resolution
// happens on the server through the same profile/override path a local
// runner uses, so a remote report is byte-identical to a local run of the
// same request — and both share the server's shard cache keys.
//
// Event streams are resumable: if a stream connection drops mid-job the
// client reconnects with ?from=<next seq> and the server replays exactly
// the missed suffix, so subscribers observe every event exactly once even
// across disconnects. Cancelling the Run context cancels the server-side
// jobs (DELETE /v1/jobs/<id>) before returning ctx.Err().
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"time"

	"columndisturb"
	"columndisturb/internal/dispatch"
	"columndisturb/internal/obs"
	"columndisturb/internal/service"
)

// Options tunes a Runner.
type Options struct {
	// HTTPClient overrides the transport (nil selects http.DefaultClient;
	// note the default has no overall timeout, which is what a streaming
	// client wants).
	HTTPClient *http.Client
	// StreamRetries bounds consecutive fruitless reconnect attempts per
	// event stream (<= 0 selects 5). The counter resets whenever a
	// connection delivers at least one event, so a long flaky job is not
	// bounded by it — only a server that stops making progress is.
	StreamRetries int
	// RetryBackoff is the base delay between reconnect attempts
	// (<= 0 selects 50ms; attempt n waits n times this).
	RetryBackoff time.Duration
	// AuthToken is sent as `Authorization: Bearer <token>` on every
	// request, matching `cdlab serve -auth-token`. Empty sends nothing.
	AuthToken string
}

// Runner is a columndisturb.Runner that executes requests on a remote
// `cdlab serve` process. It is safe for concurrent use.
type Runner struct {
	base    string // e.g. "http://127.0.0.1:8080"
	hc      *http.Client
	retries int
	backoff time.Duration
	token   string
	subs    service.Subscribers
}

var _ columndisturb.Runner = (*Runner)(nil)

// normalizeAddr canonicalizes a server address ("host:port" or a full
// http(s) URL) into a base URL; the job client and the worker loop share
// it.
func normalizeAddr(addr string) (string, error) {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil || u.Host == "" || (u.Scheme != "http" && u.Scheme != "https") {
		return "", fmt.Errorf("client: bad server address %q", addr)
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}

// New creates a remote runner for the server at addr ("host:port" or a
// full http(s) URL).
func New(addr string, opts ...Options) (*Runner, error) {
	var o Options
	if len(opts) > 0 {
		o = opts[0]
	}
	base, err := normalizeAddr(addr)
	if err != nil {
		return nil, err
	}
	hc := o.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	retries := o.StreamRetries
	if retries <= 0 {
		retries = 5
	}
	backoff := o.RetryBackoff
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	return &Runner{
		base:    base,
		hc:      hc,
		retries: retries,
		backoff: backoff,
		token:   o.AuthToken,
	}, nil
}

// authorize stamps the bearer token onto a request (no-op without one).
func (r *Runner) authorize(req *http.Request) {
	if r.token != "" {
		req.Header.Set("Authorization", "Bearer "+r.token)
	}
}

// Subscribe implements columndisturb.Runner.
func (r *Runner) Subscribe(fn func(columndisturb.Event)) (stop func()) {
	return r.subs.Add(fn)
}

// statusError carries the HTTP status of a server-rejected request, so
// retry loops can distinguish transient rejections (409: the job is still
// re-running after a server restart) from permanent ones.
type statusError struct {
	code int
	err  error
}

func (e *statusError) Error() string { return e.err.Error() }
func (e *statusError) Unwrap() error { return e.err }

// apiError converts a non-2xx response into an error, preferring the
// server's JSON error body.
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var ae service.APIError
	if json.Unmarshal(body, &ae) == nil && ae.Error != "" {
		return &statusError{code: resp.StatusCode, err: fmt.Errorf("client: server: %s", ae.Error)}
	}
	return &statusError{code: resp.StatusCode,
		err: fmt.Errorf("client: server returned %s: %s", resp.Status, bytes.TrimSpace(body))}
}

// getJSON performs a GET and decodes the JSON response into out.
func (r *Runner) getJSON(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.base+path, nil)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	r.authorize(req)
	resp, err := r.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s: %w", path, err)
	}
	return nil
}

// Experiments implements columndisturb.Runner against the server's
// registry.
func (r *Runner) Experiments(ctx context.Context) ([]columndisturb.ExperimentInfo, error) {
	var wire []service.HTTPExperimentInfo
	if err := r.getJSON(ctx, "/v1/experiments", &wire); err != nil {
		return nil, err
	}
	out := make([]columndisturb.ExperimentInfo, len(wire))
	for i, e := range wire {
		out[i] = columndisturb.ExperimentInfo{ID: e.ID, Paper: e.Paper, Title: e.Title}
	}
	return out, nil
}

// Workers lists the remote workers currently attached to the server's
// dispatcher (GET /v1/workers), including per-worker completion and
// busy-time statistics. An empty slice means the server is running every
// shard in-process.
func (r *Runner) Workers(ctx context.Context) ([]dispatch.WorkerInfo, error) {
	var out []dispatch.WorkerInfo
	if err := r.getJSON(ctx, "/v1/workers", &out); err != nil {
		return nil, err
	}
	return out, nil
}

// checkJobID rejects a job ID that cannot name one job in a request path:
// the server decodes %2F and cleans dot segments, so an ID that is empty, a
// dot segment or contains a slash would route to another resource.
func checkJobID(id string) error {
	if id == "" || id == "." || id == ".." || strings.Contains(id, "/") {
		return fmt.Errorf("client: invalid job ID %q", id)
	}
	return nil
}

// jobPath is the path of one job's resource, /v1/jobs/<id>, with the ID
// path-escaped.
func jobPath(id string) string { return "/v1/jobs/" + url.PathEscape(id) }

// Trace fetches one job's span set (GET /v1/jobs/<id>/trace) and validates
// the artifact's envelope and timestamp monotonicity. `cdlab trace` renders
// the returned record with obs.RenderTrace. An invalid jobID (checkJobID)
// is rejected before any request.
func (r *Runner) Trace(ctx context.Context, jobID string) (obs.TraceRecord, error) {
	if err := checkJobID(jobID); err != nil {
		return obs.TraceRecord{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		r.base+jobPath(jobID)+"/trace", nil)
	if err != nil {
		return obs.TraceRecord{}, fmt.Errorf("client: %w", err)
	}
	r.authorize(req)
	resp, err := r.hc.Do(req)
	if err != nil {
		return obs.TraceRecord{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return obs.TraceRecord{}, apiError(resp)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return obs.TraceRecord{}, fmt.Errorf("client: read trace: %w", err)
	}
	rec, err := obs.DecodeTrace(body)
	if err != nil {
		return obs.TraceRecord{}, fmt.Errorf("client: job %s: %w", jobID, err)
	}
	return rec, nil
}

// Profiles implements columndisturb.Runner against the server's registry.
func (r *Runner) Profiles(ctx context.Context) ([]columndisturb.ProfileInfo, error) {
	var wire []service.HTTPProfileInfo
	if err := r.getJSON(ctx, "/v1/profiles", &wire); err != nil {
		return nil, err
	}
	out := make([]columndisturb.ProfileInfo, len(wire))
	for i, p := range wire {
		out[i] = columndisturb.ProfileInfo{Name: p.Name, Description: p.Description}
	}
	return out, nil
}

// submit posts one job and returns its server-assigned status. It runs
// under its own short deadline instead of the caller's context: if the
// caller cancelled mid-POST, an interrupted response read would strand a
// job the server already created without the client ever learning its ID —
// by letting the round trip finish, Run either knows the job (and cancels
// it server-side) or knows it never existed.
func (r *Runner) submit(spec service.JobSpec) (service.JobStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	body, err := json.Marshal(spec)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, r.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	r.authorize(req)
	resp, err := r.hc.Do(req)
	if err != nil {
		return service.JobStatus{}, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return service.JobStatus{}, apiError(resp)
	}
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return service.JobStatus{}, fmt.Errorf("client: decode submit response: %w", err)
	}
	// Every later request puts the ID in its path, so an ID no path can
	// carry is refused here, before any of them.
	if err := checkJobID(st.ID); err != nil {
		return service.JobStatus{}, fmt.Errorf("client: submit response: %w", err)
	}
	return st, nil
}

// cancelJobs best-effort-cancels server-side jobs after the caller's
// context died; it runs under its own deadline because the original
// context can no longer carry requests.
func (r *Runner) cancelJobs(ids []string) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range ids {
		req, err := http.NewRequestWithContext(ctx, http.MethodDelete, r.base+jobPath(id), nil)
		if err != nil {
			continue
		}
		r.authorize(req)
		if resp, err := r.hc.Do(req); err == nil {
			resp.Body.Close()
		}
	}
}

// followJob streams one job's events to the terminal event, reconnecting
// with ?from=<next> after disconnects so the sequence stays gap-free, and
// returns the terminal event.
func (r *Runner) followJob(ctx context.Context, id string) (columndisturb.Event, error) {
	var zero columndisturb.Event
	next := 0
	attempts := 0
	fail := func(err error) (columndisturb.Event, error) {
		return zero, fmt.Errorf("client: job %s events: %w", id, err)
	}
	for {
		if err := ctx.Err(); err != nil {
			return zero, err
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet,
			fmt.Sprintf("%s%s/events?from=%d", r.base, jobPath(id), next), nil)
		if err != nil {
			return fail(err)
		}
		r.authorize(req)
		resp, err := r.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return zero, ctx.Err()
			}
			attempts++
			if attempts > r.retries {
				return fail(err)
			}
			if !sleepCtx(ctx, time.Duration(attempts)*r.backoff) {
				return zero, ctx.Err()
			}
			continue
		}
		if resp.StatusCode != http.StatusOK {
			err := apiError(resp)
			resp.Body.Close()
			return zero, err
		}

		progressed := false
		var terminal *columndisturb.Event
		sc := bufio.NewScanner(resp.Body)
		// Event lines are short: start from the scanner's own small buffer,
		// which grows on demand up to the 1 MiB line cap.
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// DecodeEvent is the fuzz-hardened single decode path: JSON
			// parse plus envelope/schema validation in one step.
			ev, err := service.DecodeEvent(sc.Bytes())
			if err != nil {
				resp.Body.Close()
				return fail(fmt.Errorf("event line %q: %w", sc.Text(), err))
			}
			if ev.Seq != next {
				resp.Body.Close()
				return fail(fmt.Errorf("sequence gap: got seq %d, want %d", ev.Seq, next))
			}
			next++
			progressed = true
			r.subs.Emit(ev)
			if ev.Type == service.EventJobFinished || ev.Type == service.EventJobFailed {
				terminal = &ev
				break
			}
		}
		scanErr := sc.Err()
		resp.Body.Close()
		if terminal != nil {
			return *terminal, nil
		}
		if ctx.Err() != nil {
			return zero, ctx.Err()
		}
		// The connection broke (or closed) before the terminal event:
		// resume from the next sequence number. Progress resets the retry
		// budget, so only a stream that stops advancing gives up.
		if progressed {
			attempts = 0
		} else {
			attempts++
			if attempts > r.retries {
				if scanErr == nil {
					scanErr = fmt.Errorf("stream closed before the terminal event")
				}
				return fail(fmt.Errorf("no progress after %d attempts: %w", attempts, scanErr))
			}
		}
		if !sleepCtx(ctx, time.Duration(attempts)*r.backoff) {
			return zero, ctx.Err()
		}
	}
}

// sleepCtx sleeps for d unless ctx ends first; false means the context
// died, so reconnect loops unwind immediately instead of finishing their
// backoff.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// report fetches one finished job's report, retrying transport failures
// and 409s with the stream-reconnect budget: both happen when the server
// restarts between our terminal event and this fetch — the recovered job
// re-runs cache-hot for a moment before its (byte-identical) report is
// ready again.
func (r *Runner) report(ctx context.Context, id string) (*columndisturb.Report, error) {
	var lastErr error
	for attempt := 0; attempt <= r.retries; attempt++ {
		if attempt > 0 && !sleepCtx(ctx, time.Duration(attempt)*r.backoff) {
			return nil, ctx.Err()
		}
		var wire service.ReportPayload
		err := r.getJSON(ctx, jobPath(id)+"/report", &wire)
		if err == nil {
			return &columndisturb.Report{
				ID: wire.ID, Title: wire.Title, Headers: wire.Headers,
				Rows: wire.Rows, Notes: wire.Notes, Text: wire.Text,
			}, nil
		}
		if ctx.Err() != nil {
			return nil, err
		}
		var se *statusError
		if errors.As(err, &se) && se.code != http.StatusConflict {
			return nil, err // a definitive server answer: retrying cannot change it
		}
		lastErr = err
	}
	return nil, fmt.Errorf("client: job %s report: no progress after %d attempts: %w",
		id, r.retries+1, lastErr)
}

// Run implements columndisturb.Runner: validate the request against the
// server's registry, submit one job per experiment (they share the server
// pool), then follow each job's event stream and collect reports in
// request order.
func (r *Runner) Run(ctx context.Context, req columndisturb.Request) (*columndisturb.Result, error) {
	if len(req.Experiments) == 0 {
		return nil, fmt.Errorf("client: empty request: no experiments named")
	}
	known, err := r.Experiments(ctx)
	if err != nil {
		return nil, err
	}
	knownSet := make(map[string]bool, len(known))
	for _, e := range known {
		knownSet[e.ID] = true
	}
	seen := map[string]bool{}
	var unknown []string
	for _, id := range req.Experiments {
		if !knownSet[id] && !seen[id] {
			seen[id] = true
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, &columndisturb.UnknownExperimentError{IDs: unknown}
	}

	jobIDs := make([]string, len(req.Experiments))
	for i, id := range req.Experiments {
		if err := ctx.Err(); err != nil {
			r.cancelJobs(jobIDs[:i])
			return nil, err
		}
		st, err := r.submit(service.JobSpec{
			Experiment: id,
			Profile:    req.Profile,
			Overrides:  req.Overrides,
			NoCache:    req.NoCache,
		})
		if err != nil {
			r.cancelJobs(jobIDs[:i])
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		jobIDs[i] = st.ID
	}

	res := &columndisturb.Result{
		Reports: make([]*columndisturb.Report, len(jobIDs)),
		Errors:  make([]error, len(jobIDs)),
	}
	for i, jobID := range jobIDs {
		terminal, err := r.followJob(ctx, jobID)
		if ctx.Err() != nil {
			// The caller gave up: propagate the cancellation to the server
			// so its pool stops burning cycles on our jobs.
			r.cancelJobs(jobIDs)
			return nil, ctx.Err()
		}
		if err != nil {
			res.Errors[i] = err
			continue
		}
		if terminal.Type == service.EventJobFailed {
			res.Errors[i] = r.failureError(ctx, req.Experiments[i], jobID, terminal)
			continue
		}
		rep, err := r.report(ctx, jobID)
		if err != nil {
			if ctx.Err() != nil {
				r.cancelJobs(jobIDs)
				return nil, ctx.Err()
			}
			res.Errors[i] = err
			continue
		}
		rep.Elapsed = time.Duration(terminal.ElapsedMs * float64(time.Millisecond))
		res.Reports[i] = rep
	}
	return res, res.Err()
}

// failureError maps a job_failed event onto a client-side error,
// preserving cancellation semantics: a job cancelled on the server
// surfaces as context.Canceled so callers can errors.Is it, whichever side
// initiated the cancellation.
func (r *Runner) failureError(ctx context.Context, experiment, jobID string, terminal columndisturb.Event) error {
	var st service.JobStatus
	if err := r.getJSON(ctx, jobPath(jobID), &st); err == nil && st.State == string(service.JobCanceled) {
		return fmt.Errorf("%s: job %s cancelled on server: %w", experiment, jobID, context.Canceled)
	}
	return fmt.Errorf("%s: %s", experiment, terminal.Error)
}
