package columndisturb

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strings"
	"time"

	"columndisturb/internal/cache"
	"columndisturb/internal/dispatch"
	"columndisturb/internal/experiments"
	"columndisturb/internal/obs"
	"columndisturb/internal/service"
)

// This file is the typed experiment-execution API: a Request names what to
// run (experiment IDs + profile + overrides + run options), a Runner
// executes it, and every front-end — `cdlab run`, `cdlab serve`, and the
// remote client package — is a view over the same three concepts. Two
// Runner implementations exist:
// LocalRunner (this package) executes in-process on the experiment
// service's shared dispatcher, and client.New (package columndisturb/client)
// speaks the /v1 HTTP API against a `cdlab serve` process. Because both
// resolve configurations through the same path, a remote run of a request
// renders byte-identical reports to a local run of the same request.

// Request names one batch of experiment runs under a single configuration.
type Request struct {
	// Experiments lists the artifact IDs to regenerate (see
	// ListExperiments); reports come back in this order.
	Experiments []string
	// Profile names the base configuration ("" selects "small"; see
	// Profiles).
	Profile string
	// Overrides adjusts individual configuration fields on top of the
	// profile, e.g. {"seed": "7", "subarrays-per-module": "8"}. Keys and
	// values are validated before any work starts; see OverrideKeys.
	Overrides map[string]string
	// NoCache bypasses the shard-result cache for this request: every
	// shard recomputes and nothing is stored.
	NoCache bool
}

// Result is the outcome of one Request: per-experiment reports and errors,
// both aligned with Request.Experiments.
type Result struct {
	// Reports holds one rendered report per requested experiment, nil at
	// the positions where that experiment failed.
	Reports []*Report
	// Errors holds the per-experiment failure at each position, nil where
	// the run succeeded.
	Errors []error
}

// Report returns the report for one experiment ID (nil if absent/failed).
func (r *Result) Report(id string) *Report {
	for _, rep := range r.Reports {
		if rep != nil && rep.ID == id {
			return rep
		}
	}
	return nil
}

// Err folds the per-experiment failures into one error (nil when every
// experiment succeeded).
func (r *Result) Err() error {
	var errs []error
	for _, err := range r.Errors {
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Event is the experiment service's progress event, re-exported so Runner
// consumers need no internal imports: every state transition of every job
// spawned by Run (queued, started, per-shard completion with cache
// hit/miss, finished/failed) arrives on subscribed callbacks, and
// Event.EncodeJSONL renders the service's versioned JSONL wire format.
type Event = service.Event

// EventType enumerates the event stream's record types.
type EventType = service.EventType

// Re-exported event types (see the service package for semantics).
const (
	EventJobQueued   = service.EventJobQueued
	EventJobStarted  = service.EventJobStarted
	EventShardDone   = service.EventShardDone
	EventJobFinished = service.EventJobFinished
	EventJobFailed   = service.EventJobFailed
)

// Runner executes experiment requests. Implementations: NewLocalRunner
// (in-process, shared dispatcher) and the client package's New (remote,
// /v1 HTTP against `cdlab serve`).
type Runner interface {
	// Run executes every experiment in the request and returns their
	// reports in request order. All experiment IDs are validated before
	// any work starts (unknown ones fail the whole request with
	// *UnknownExperimentError), individual experiment failures are
	// collected per position (Result.Errors) and joined into the returned
	// error, and cancelling ctx aborts outstanding work and returns
	// ctx.Err().
	Run(ctx context.Context, req Request) (*Result, error)
	// Experiments lists the artifacts this runner can regenerate (for a
	// remote runner, the server's registry).
	Experiments(ctx context.Context) ([]ExperimentInfo, error)
	// Profiles lists the named configuration profiles the runner resolves
	// requests against.
	Profiles(ctx context.Context) ([]ProfileInfo, error)
	// Subscribe registers fn to observe every event of every subsequent
	// Run until the returned stop function is called. Callbacks for one
	// job arrive in sequence order.
	Subscribe(fn func(Event)) (stop func())
}

// UnknownExperimentError reports request IDs that name no registered
// experiment. It is returned before any job starts, so a typo in a long
// sweep costs nothing.
type UnknownExperimentError struct {
	IDs []string
}

func (e *UnknownExperimentError) Error() string {
	return fmt.Sprintf("columndisturb: unknown experiment(s) %s (see ListExperiments)",
		strings.Join(e.IDs, ", "))
}

// ProfileInfo describes one named configuration profile.
type ProfileInfo struct {
	Name        string
	Description string
}

// Profiles lists the registered configuration profiles (the built-in
// "small" and "full" plus any registered via RegisterProfile), sorted by
// name.
func Profiles() []ProfileInfo {
	var out []ProfileInfo
	for _, p := range experiments.Profiles() {
		out = append(out, ProfileInfo{Name: p.Name, Description: p.Description})
	}
	return out
}

// OverrideKeys lists the valid Request.Overrides keys, each as
// "key\tdescription".
func OverrideKeys() []string { return experiments.OverrideKeys() }

// RegisterProfile derives and registers a new named profile: the base
// profile's configuration ("" selects "small") with the given overrides
// applied. Registered profiles are process-local — a RemoteRunner resolves
// profile names on the server, which only knows its own registry.
func RegisterProfile(name, description, base string, overrides map[string]string) error {
	cfg, err := experiments.ResolveConfig(base, overrides)
	if err != nil {
		return err
	}
	return experiments.RegisterProfile(experiments.Profile{
		Name:        name,
		Description: description,
		Config:      cfg,
	})
}

// CacheStats is a snapshot of a LocalRunner's shard-result cache traffic.
type CacheStats struct {
	Hits, DiskHits, Misses      int64
	Puts                        int64
	MemBytes, DiskBytes         int64
	MemEvictions, DiskEvictions int64
}

// LocalOptions configures a LocalRunner.
type LocalOptions struct {
	// Workers sizes the shard dispatcher's local executors (<= 0 selects
	// GOMAXPROCS). Every shard runs
	// either on a local executor or on a `cdlab worker -connect` process
	// leased through Handler()'s /v1 worker API — reassembled in canonical
	// order, so reports stay byte-identical to a serial local run no matter
	// where shards computed.
	Workers int
	// NoLocalShards disables local shard execution: the process becomes a
	// pure scheduler and every cache miss waits for a remote worker lease.
	NoLocalShards bool
	// LeaseTTL is the worker heartbeat deadline after which a silent worker
	// is dropped and its shards requeued (0 selects 15s).
	LeaseTTL time.Duration
	// RetainJobs, when > 0, retires the oldest settled jobs — event
	// history, report and ID — once more than this many have settled,
	// bounding a long-lived server's job table (recent jobs keep replay).
	RetainJobs int
	// CacheDir enables the persistent shard-result cache in the given
	// directory.
	CacheDir string
	// CacheEntries bounds the in-memory cache level by entry count
	// (0 = default). Setting it without CacheDir enables a memory-only
	// cache.
	CacheEntries int
	// CacheMaxBytes bounds each cache level by payload bytes
	// (0 = unbounded).
	CacheMaxBytes int64
	// WALDir enables the job journal (internal/wal) in the given
	// directory: submissions are durable before they are acknowledged, and
	// NewLocalRunner replays the journal — interrupted jobs re-run under
	// their original IDs (settled shards return as cache hits),
	// finished-but-possibly-unfetched reports are resurrected, and
	// reconnecting clients resume their event streams across the restart.
	WALDir string
	// AuthToken, when non-empty, gates every mutating /v1 verb behind
	// `Authorization: Bearer <token>`; reads and metrics stay open.
	AuthToken string
	// Logger receives the serve plane's structured logs (job lifecycle,
	// worker lifecycle, lease recovery). Nil discards them; `cdlab serve`
	// points it at stderr at the -log-level threshold.
	Logger *slog.Logger
}

// LocalRunner executes requests in-process through the experiment service:
// every submitted experiment's shards interleave on ONE shared shard
// dispatcher, results cache under (experiment, config digest, shard label) when
// caching is enabled, and subscribers observe the service's event stream.
// A LocalRunner is safe for concurrent use and must be released with
// Close. Its HTTP face is Handler — `cdlab serve` is exactly
// NewLocalRunner + Handler.
type LocalRunner struct {
	store *cache.Store
	subs  service.Subscribers
	svc   *service.Service
}

// NewLocalRunner creates a runner and starts it: it opens the cache and
// the journal, starts the shard dispatcher (sized by LocalOptions.Workers)
// that every request shares, and replays the journal. Release the runner
// with Close or Shutdown.
func NewLocalRunner(opts LocalOptions) (*LocalRunner, error) {
	r := &LocalRunner{}
	if opts.CacheDir != "" || opts.CacheEntries > 0 || opts.CacheMaxBytes > 0 {
		store, err := cache.New(cache.Options{
			MaxEntries: opts.CacheEntries,
			MaxBytes:   opts.CacheMaxBytes,
			Dir:        opts.CacheDir,
		})
		if err != nil {
			return nil, err
		}
		r.store = store
	}
	var jn *service.Journal
	var recovered *service.Recovered
	if opts.WALDir != "" {
		var err error
		jn, recovered, err = service.OpenJournal(opts.WALDir, opts.Logger)
		if err != nil {
			return nil, err
		}
	}
	// One registry spans the whole serve plane — dispatcher queue/lease
	// metrics and service job/shard/cache metrics export together at
	// GET /v1/metrics.
	reg := obs.NewRegistry()
	d := dispatch.New(dispatch.Options{
		LocalWorkers: opts.Workers,
		NoLocal:      opts.NoLocalShards,
		LeaseTTL:     opts.LeaseTTL,
		Metrics:      reg,
		Logger:       opts.Logger,
	})
	sopts := service.Options{
		Dispatcher: d,
		RetainJobs: opts.RetainJobs,
		Journal:    jn,
		AuthToken:  opts.AuthToken,
		OnEvent:    r.subs.Emit,
		Metrics:    reg,
		Logger:     opts.Logger,
	}
	if r.store != nil {
		// Assigned conditionally: a nil *cache.Store in the Backend
		// interface field would read as "caching enabled" to the service.
		sopts.Cache = r.store
	}
	r.svc = service.New(sopts)
	r.svc.Recover(recovered)
	return r, nil
}

// Subscribe implements Runner.
func (r *LocalRunner) Subscribe(fn func(Event)) (stop func()) {
	return r.subs.Add(fn)
}

// Experiments implements Runner over the in-process registry.
func (r *LocalRunner) Experiments(context.Context) ([]ExperimentInfo, error) {
	return ListExperiments(), nil
}

// Profiles implements Runner over the in-process registry.
func (r *LocalRunner) Profiles(context.Context) ([]ProfileInfo, error) {
	return Profiles(), nil
}

// CacheStats returns the shard-result cache's counters (zero when caching
// is disabled).
func (r *LocalRunner) CacheStats() CacheStats {
	if r.store == nil {
		return CacheStats{}
	}
	st := r.store.Stats()
	return CacheStats{
		Hits: st.Hits, DiskHits: st.DiskHits, Misses: st.Misses,
		Puts: st.Puts, MemBytes: st.MemBytes, DiskBytes: st.DiskBytes,
		MemEvictions: st.MemEvictions, DiskEvictions: st.DiskEvictions,
	}
}

// Handler exposes the runner's service over HTTP: the /v1 experiment API
// (submit, status, event streams with replay, reports) and the /v1 worker
// API. `cdlab serve` is this handler behind an http.Server.
func (r *LocalRunner) Handler() http.Handler { return r.svc.Handler() }

// Close cancels every running job, waits for them to settle and releases
// the dispatcher. With a WAL, the cancellations are final: a restart
// will not re-run them.
func (r *LocalRunner) Close() { r.svc.Close() }

// Shutdown is Close for a process that intends to resume: with a WAL,
// interrupted jobs are suspended rather than canceled — the next runner
// opened on the same WALDir/CacheDir recovers and re-runs them under
// their original IDs, and a clean-shutdown record tells it nothing
// crashed mid-write. Without a WAL, Shutdown is Close.
func (r *LocalRunner) Shutdown() { r.svc.Shutdown() }

// validateIDs returns the request IDs that name no known experiment,
// sorted and deduplicated.
func validateIDs(ids []string) []string {
	seen := map[string]bool{}
	var unknown []string
	for _, id := range ids {
		if _, ok := experiments.ByID(id); !ok && !seen[id] {
			seen[id] = true
			unknown = append(unknown, id)
		}
	}
	sort.Strings(unknown)
	return unknown
}

// Run implements Runner: it validates the whole request up front (IDs,
// profile, overrides), submits every experiment to the shared dispatcher
// at once, and collects reports in request order.
func (r *LocalRunner) Run(ctx context.Context, req Request) (*Result, error) {
	if len(req.Experiments) == 0 {
		return nil, fmt.Errorf("columndisturb: empty request: no experiments named")
	}
	if unknown := validateIDs(req.Experiments); len(unknown) > 0 {
		return nil, &UnknownExperimentError{IDs: unknown}
	}
	if _, err := experiments.ResolveConfig(req.Profile, req.Overrides); err != nil {
		return nil, err
	}
	jobs := make([]*service.Job, len(req.Experiments))
	for i, id := range req.Experiments {
		j, err := r.svc.Submit(service.JobSpec{
			Experiment: id,
			Profile:    req.Profile,
			Overrides:  req.Overrides,
			NoCache:    req.NoCache,
		})
		if err != nil {
			for _, prev := range jobs[:i] {
				prev.Cancel()
			}
			return nil, err
		}
		jobs[i] = j
	}

	res := &Result{
		Reports: make([]*Report, len(jobs)),
		Errors:  make([]error, len(jobs)),
	}
	for i, j := range jobs {
		out, err := j.Wait(ctx)
		if ctx.Err() != nil {
			// The caller gave up: abort everything still in flight.
			for _, j := range jobs {
				j.Cancel()
			}
			return nil, ctx.Err()
		}
		if err != nil {
			res.Errors[i] = fmt.Errorf("%s: %w", req.Experiments[i], err)
			continue
		}
		res.Reports[i] = reportFrom(out, j.Elapsed())
	}
	return res, res.Err()
}

// reportFrom converts a service result into the public Report shape.
func reportFrom(res *experiments.Result, elapsed time.Duration) *Report {
	return &Report{
		ID: res.ID, Title: res.Title, Headers: res.Headers,
		Rows: res.Rows, Notes: res.Notes, Text: res.String(),
		Elapsed: elapsed,
	}
}
