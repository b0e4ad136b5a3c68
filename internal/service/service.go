// Package service is the experiment service subsystem (DESIGN.md §8): a
// job queue and cross-experiment scheduler that executes any number of
// concurrently submitted experiments on ONE shared shard backend (the
// dispatcher, internal/dispatch), with
// shard-level result caching, a typed JSONL event stream per job,
// single-flight coalescing of identical submissions, and (with a Journal)
// WAL-backed crash recovery.
//
// The layering:
//
//   - Submit validates a JobSpec, journals it durably (when a Journal is
//     configured) and enqueues it. Identical live submissions coalesce: a
//     job whose (experiment, config digest) matches an in-flight one
//     attaches to that flight as a follower — one computation, N
//     independent event streams and reports (DESIGN.md §14).
//   - A flight is the unit of execution. The scheduler starts queued
//     flights (optionally bounded by MaxActiveJobs); a started flight
//     feeds its shards into the shared dispatcher, where they interleave
//     with every other in-flight flight's shards on local executors or
//     remote workers.
//   - Before anything is scheduled, the service looks every shard up in
//     the result cache under (experiment ID, config digest, shard label).
//     A hit decodes the stored bytes and becomes its part directly; only
//     the misses reach the dispatcher, which runs them and stores their
//     encoded results. Because shards are pure functions of (config, shard
//     key), a warm re-run recomputes zero shards — on zero executors and
//     zero workers — and still merges a byte-identical report, which is
//     also why crash recovery can simply re-run journaled jobs: their
//     settled shards are cache hits, and the re-merged report is
//     byte-identical by construction.
//   - Every state transition is emitted on each member job's event stream
//     (Event), consumable live (Job.Events replays history then follows)
//     and serialized as JSON lines by the front-ends: `cdlab run -json`
//     and `cdlab serve`'s per-job HTTP stream.
//
// Cancellation flows through membership: cancelling a job detaches it
// from its flight and settles just that stream with context.Canceled; the
// computation stops only when its last member leaves.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb/internal/cache"
	"columndisturb/internal/dispatch"
	"columndisturb/internal/engine"
	"columndisturb/internal/experiments"
	"columndisturb/internal/obs"
)

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("service: closed")

// Options configures a Service.
type Options struct {
	// Workers sizes the local executors of the dispatcher New builds when
	// Dispatcher is nil (<= 0 selects GOMAXPROCS). Ignored when Dispatcher
	// is set (the dispatcher's own options size its local executors).
	Workers int
	// MaxActiveJobs bounds how many flights run concurrently (0 =
	// unlimited). Shard-level parallelism is always bounded by Workers;
	// this knob only serializes whole computations, e.g. to keep per-job
	// latency predictable. Coalesced followers ride their flight and do
	// not consume a slot.
	MaxActiveJobs int
	// Dispatcher is the shard backend: shards run on its local executors or
	// on remote workers leased over the /v1 worker API, which Handler
	// mounts. Nil makes New build one with Workers local executors. The
	// service takes ownership and Closes it.
	Dispatcher *dispatch.Dispatcher
	// RetainJobs, when > 0, bounds the in-memory job table: once more than
	// this many jobs have settled, the oldest settled jobs are retired —
	// their event history and report dropped, the ID forgotten (HTTP 404) —
	// so a long-lived serve process stays bounded while recent jobs keep
	// full replay. 0 retains everything. Retirement is purely count-based:
	// size it comfortably above the largest burst of concurrently settled
	// jobs whose reports are still being fetched (a remote client submits a
	// batch up front and collects reports in submission order, so a bound
	// below the batch size could retire a finished job's report before its
	// own client reads it).
	RetainJobs int
	// Cache, when non-nil, enables shard-result caching. *cache.Store is
	// the in-process implementation; the interface seam exists so replicas
	// can later share one content-addressed backend.
	// Entries are cache.Gob encodings: worker replies travel in that
	// encoding and are stored verbatim, so local and remote fills are
	// byte-identical entries.
	Cache cache.Backend
	// Journal, when non-nil, gives the service a write-ahead log: Submit
	// acknowledges only after the job is durable, computed shards and
	// settles are journaled, and Recover rebuilds the job table after a
	// restart. The service takes ownership and closes it.
	Journal *Journal
	// AuthToken, when non-empty, gates every mutating /v1 verb behind
	// `Authorization: Bearer <token>` (401 without it). Reads — reports,
	// event streams, worker listings, /v1/metrics — stay open.
	AuthToken string
	// OnEvent, when non-nil, observes every event of every job as it is
	// emitted (calls may arrive concurrently across jobs, serialized within
	// one job). It must not call back into the Service or Job.
	OnEvent func(Event)
	// Metrics, when non-nil, receives the service's job/shard/cache metrics
	// (nil creates a private registry). Share one registry with the
	// Dispatcher so GET /v1/metrics exports the whole serve plane; the
	// dispatcher New builds shares it automatically.
	Metrics *obs.Registry
	// Logger receives structured job-lifecycle logs. Nil discards them.
	Logger *slog.Logger
}

// coalesceKey identifies a computation for single-flight purposes: two
// submissions with equal keys would run identical shard sets to identical
// results, so one flight serves both.
type coalesceKey struct {
	experiment string
	digest     string
}

// Service owns the shard backend (the dispatcher), the job table and the
// scheduler.
type Service struct {
	opts    Options
	d       *dispatch.Dispatcher
	log     *slog.Logger
	journal *Journal

	// Observability handles (side channels only; see internal/obs).
	metrics    *obs.Registry
	mJobs      *obs.CounterVec // settled jobs by final state
	mJobMs     *obs.Histogram  // job wall time
	mShardMs   *obs.Histogram  // computed shard wall time
	mShards    *obs.CounterVec // finished shards by source (local/remote/cache)
	mCoalesced *obs.Counter    // submissions attached to a live identical flight
	mRecovered *obs.Counter    // jobs reconstructed from the journal at startup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	// draining marks a suspend shutdown in progress: interrupted jobs are
	// settled in memory (streams get their terminal) but NOT journaled as
	// settled, so the next open recovers and re-runs them.
	draining atomic.Bool

	mu       sync.Mutex
	seq      int
	jobs     map[string]*Job
	order    []string // job IDs in submission order
	settled  []string // settled job IDs in settle order (retention ring)
	queue    []*flight
	inflight map[coalesceKey]*flight // live (queued or running) coalescible flights
	active   int
	closed   bool
	wg       sync.WaitGroup
}

// New starts a service. Callers must release it with Close (or Shutdown,
// to suspend for a journal-backed restart). When the service was built
// from a replayed journal, call Recover before accepting submissions.
func New(opts Options) *Service {
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := opts.Dispatcher
	if d == nil {
		d = dispatch.New(dispatch.Options{LocalWorkers: opts.Workers, Metrics: reg, Logger: log})
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:       opts,
		d:          d,
		log:        log,
		journal:    opts.Journal,
		metrics:    reg,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		inflight:   make(map[coalesceKey]*flight),
	}
	s.registerMetrics(reg)
	return s
}

// registerMetrics wires the service's metric families into the registry.
// Gauge callbacks read live state at export time; everything else is
// recorded inline on the job/shard paths.
func (s *Service) registerMetrics(reg *obs.Registry) {
	s.mJobs = reg.CounterVec("cdlab_jobs_total",
		"Jobs by lifecycle transition: submitted at Submit, done/failed/canceled at settle.", "state")
	s.mJobMs = reg.Histogram("cdlab_job_ms",
		"Job wall time from start to settle, in milliseconds.", nil)
	s.mShardMs = reg.Histogram("cdlab_shard_elapsed_ms",
		"Computed shard wall time (cache hits excluded), in milliseconds.", nil)
	s.mShards = reg.CounterVec("cdlab_shards_total",
		"Finished shards by execution source.", "source")
	s.mCoalesced = reg.Counter("cdlab_jobs_coalesced_total",
		"Submissions that attached to a live identical flight (single-flight coalescing) instead of recomputing.")
	s.mRecovered = reg.Counter("cdlab_jobs_recovered_total",
		"Jobs reconstructed from the WAL journal at startup (interrupted re-runs plus resurrected reports).")
	reg.GaugeFunc("cdlab_jobs_active",
		"Flights currently running (coalesced member jobs share one flight).", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(s.active)
		})
	reg.GaugeFunc("cdlab_jobs_pending",
		"Flights queued behind the scheduler's MaxActiveJobs bound.", func() float64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return float64(len(s.queue))
		})
	reg.GaugeFunc("cdlab_backend_workers",
		"The shard backend's local parallelism bound.", func() float64 {
			return float64(s.d.Workers())
		})
	reg.GaugeFunc("cdlab_backend_busy",
		"Shards currently executing on the backend (local executors plus remote leases).",
		func() float64 { return float64(s.d.Busy()) })
	if jn := s.journal; jn != nil {
		reg.CounterFunc("cdlab_wal_records_total",
			"Journal records appended since this process opened the WAL.", func() float64 {
				return float64(jn.WALStats().Records)
			})
		reg.CounterFunc("cdlab_wal_bytes_total",
			"Journal frame bytes appended since this process opened the WAL.", func() float64 {
				return float64(jn.WALStats().Bytes)
			})
		reg.CounterFunc("cdlab_wal_syncs_total",
			"WAL fsync barriers (group commits, rotations, close).", func() float64 {
				return float64(jn.WALStats().Syncs)
			})
		reg.GaugeFunc("cdlab_wal_segments",
			"WAL segment files on disk.", func() float64 {
				return float64(jn.WALStats().Segments)
			})
	}
	if c := s.opts.Cache; c != nil {
		reg.CounterFunc("cdlab_cache_hits_total",
			"Shard-cache hits (memory and disk).", func() float64 {
				return float64(c.Stats().Hits)
			})
		reg.CounterFunc("cdlab_cache_misses_total",
			"Shard-cache misses.", func() float64 {
				return float64(c.Stats().Misses)
			})
		reg.CounterFunc("cdlab_cache_puts_total",
			"Shard-cache fills.", func() float64 {
				return float64(c.Stats().Puts)
			})
		reg.CounterFunc("cdlab_cache_evictions_total",
			"Shard-cache evictions (memory and disk tiers).", func() float64 {
				st := c.Stats()
				return float64(st.MemEvictions + st.DiskEvictions)
			})
		reg.GaugeFunc("cdlab_cache_mem_bytes",
			"Shard-cache resident bytes in the memory tier.", func() float64 {
				return float64(c.Stats().MemBytes)
			})
		reg.GaugeFunc("cdlab_cache_disk_bytes",
			"Shard-cache resident bytes in the disk tier.", func() float64 {
				return float64(c.Stats().DiskBytes)
			})
	}
}

// Metrics returns the service's metric registry (the /v1/metrics source).
func (s *Service) Metrics() *obs.Registry { return s.metrics }

// CacheStats returns the result cache's counters (zero Stats when caching
// is disabled).
func (s *Service) CacheStats() cache.Stats {
	if s.opts.Cache == nil {
		return cache.Stats{}
	}
	return s.opts.Cache.Stats()
}

// Close cancels every running job, waits for them to settle and releases
// the dispatcher. Jobs still queued are failed with context.Canceled. With a
// journal, the cancellations are journaled as final — a later replay does
// not resurrect them — and a clean-shutdown record closes the log.
func (s *Service) Close() { s.shutdown(false) }

// Shutdown is Close for a serve process that intends to resume: in-flight
// jobs are interrupted and their streams settled with context.Canceled,
// but the journal records NO settle for them — so the next OpenJournal
// recovers and re-runs them under their original IDs, and reconnecting
// clients resume their streams across the restart. The WAL is fsynced and
// a clean-shutdown record written, telling the next replay that nothing
// crashed mid-write. Without a journal, Shutdown is Close.
func (s *Service) Shutdown() { s.shutdown(true) }

func (s *Service) shutdown(suspend bool) {
	if suspend {
		s.draining.Store(true)
	}
	s.mu.Lock()
	s.closed = true
	nextSeq := s.seq + 1
	s.mu.Unlock()
	s.baseCancel()
	s.wg.Wait()
	s.d.Close()
	if s.journal != nil {
		s.journal.close(nextSeq, true)
		if suspend {
			s.log.Info("wal: clean shutdown recorded; interrupted jobs will recover on next start")
		}
	}
}

// JobSpec names one experiment run. It doubles as the request codec of the
// /v1 HTTP API: the client package marshals it as the POST /v1/jobs body
// and the server decodes the same struct, so both ends agree on the wire
// shape by construction.
type JobSpec struct {
	// Experiment is the experiment ID (see experiments.All).
	Experiment string `json:"experiment"`
	// Full selects the paper-breadth configuration instead of the
	// benchmark-scale one.
	//
	// Deprecated: set Profile to "full" instead. Full survives for old
	// clients; it conflicts with any Profile other than "" or "full".
	Full bool `json:"full,omitempty"`
	// Profile names the base configuration ("" selects "small"; see
	// experiments.Profiles).
	Profile string `json:"profile,omitempty"`
	// Overrides adjusts individual configuration fields on top of the
	// profile (experiments.ApplyOverrides keys, e.g. "seed", "mixes").
	Overrides map[string]string `json:"overrides,omitempty"`
	// NoCache bypasses the shard-result cache for this job: nothing is
	// read from or written to the store. A NoCache job also never
	// coalesces — it demanded its own fresh computation.
	NoCache bool `json:"no_cache,omitempty"`
	// TraceID, when set, names the job's observability trace (a client
	// propagating its own correlation ID); empty lets the service mint one.
	// Trace IDs are a pure side channel: they never enter the config digest,
	// cache keys or report bytes, so they cannot perturb byte-identity.
	// A coalesced follower adopts its flight's trace.
	TraceID string `json:"trace_id,omitempty"`
}

// DecodeJobSpec parses one JSON job spec (the POST /v1/jobs body). It
// tolerates unknown fields — newer clients may send more — but rejects
// malformed JSON and trailing garbage, and must error (never panic) on any
// input, a property the fuzz suite enforces. Semantic validation (known
// experiment, resolvable profile/overrides) stays in Submit.
func DecodeJobSpec(data []byte) (JobSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return JobSpec{}, fmt.Errorf("bad job spec: %w", err)
	}
	if dec.More() {
		return JobSpec{}, fmt.Errorf("bad job spec: trailing data after JSON object")
	}
	return spec, nil
}

// profileName resolves the effective profile name, folding the deprecated
// Full flag in.
func (spec JobSpec) profileName() (string, error) {
	if spec.Full && spec.Profile != "" && spec.Profile != "full" {
		return "", fmt.Errorf("service: conflicting full=true and profile %q", spec.Profile)
	}
	switch {
	case spec.Profile != "":
		return spec.Profile, nil
	case spec.Full:
		return "full", nil
	default:
		return "small", nil
	}
}

// config resolves the spec into the effective experiment configuration
// through the shared resolution path (experiments.ResolveConfig) — the
// same one the local runner and the remote client rely on, so equal specs
// always produce equal configs and therefore equal cache digests.
func (spec JobSpec) config() (experiments.Config, error) {
	name, err := spec.profileName()
	if err != nil {
		return experiments.Config{}, err
	}
	return experiments.ResolveConfig(name, spec.Overrides)
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// terminal reports whether no further events can follow.
func (st JobState) terminal() bool {
	return st == JobDone || st == JobFailed || st == JobCanceled
}

// flightRecord is one canonical emission of a flight: the event template
// every member stream receives, restamped per member (Job, Seq, Done).
type flightRecord struct {
	ev      Event
	state   JobState  // "" keeps the member's state
	started time.Time // member start anchor, set on the job_started record
}

// flight is one computation: the shard run every member job shares.
// Members join at Submit (creator) or by coalescing (followers attaching
// to a live flight with the same coalesceKey); each keeps an independent,
// complete event stream — a follower replays the flight's history on
// attach, so every stream starts at Seq 0 regardless of join time.
type flight struct {
	svc       *Service
	creator   string // first member's job ID: names the trace and journal shard records
	spec      JobSpec
	cfg       experiments.Config
	digest    string
	key       coalesceKey
	coalesce  bool // participates in s.inflight (NoCache jobs do not)
	recovered bool // crash-recovered: shards enter the dispatch queue boosted
	anchor    time.Time
	ctx       context.Context
	cancel    context.CancelFunc
	trace     *obs.Trace

	// emitMu serializes whole emissions (history append + per-member fan
	// out + OnEvent callbacks) and guards the fields below; each member's
	// mu is taken inside it, never the reverse, and s.mu is never held
	// while acquiring it.
	emitMu  sync.Mutex
	members []*Job
	history []flightRecord
	state   JobState
	started time.Time
	settled bool
}

// newFlight builds a flight around its creating job. The caller
// registers it with the scheduler.
func (s *Service) newFlight(j *Job, recovered bool) *flight {
	ctx, cancel := context.WithCancel(s.baseCtx)
	f := &flight{
		svc:       s,
		creator:   j.id,
		spec:      j.spec,
		cfg:       j.cfg,
		digest:    j.cfg.Digest(),
		coalesce:  !j.spec.NoCache,
		recovered: recovered,
		anchor:    j.submitted,
		ctx:       ctx,
		cancel:    cancel,
		trace:     obs.NewTrace(j.spec.TraceID, j.id, j.spec.Experiment),
		state:     JobQueued,
	}
	f.key = coalesceKey{experiment: j.spec.Experiment, digest: f.digest}
	return f
}

// attach adds a member to a live flight, replaying the flight's history
// into the member's stream so it is complete from Seq 0. Returns false if
// the flight already settled or was cancelled — the caller must start a
// fresh flight instead.
func (f *flight) attach(j *Job) bool {
	f.emitMu.Lock()
	if f.settled || f.ctx.Err() != nil {
		f.emitMu.Unlock()
		return false
	}
	j.f = f
	f.members = append(f.members, j)
	var outs []Event
	j.mu.Lock()
	for _, rec := range f.history {
		outs = append(outs, j.applyRecordLocked(rec))
	}
	j.mu.Unlock()
	if cb := f.svc.opts.OnEvent; cb != nil {
		for _, ev := range outs {
			cb(ev)
		}
	}
	f.emitMu.Unlock()
	return true
}

// emit appends one canonical record and fans it out to every member
// stream. state "" keeps the flight's lifecycle phase.
func (f *flight) emit(ev Event, state JobState, started time.Time) {
	ev.V = EventSchemaVersion
	ev.Experiment = f.spec.Experiment
	ev.Time = time.Now()
	rec := flightRecord{ev: ev, state: state, started: started}
	f.emitMu.Lock()
	if f.settled {
		// A late completion can trail a settled flight (a presumed-lost
		// remote worker replying after its shard was requeued and the job
		// cancelled): drop it, preserving the invariant that the terminal
		// event ends every stream.
		f.emitMu.Unlock()
		return
	}
	if state != "" {
		f.state = state
	}
	f.history = append(f.history, rec)
	cb := f.svc.opts.OnEvent
	for _, j := range f.members {
		j.mu.Lock()
		out := j.applyRecordLocked(rec)
		j.mu.Unlock()
		if cb != nil {
			cb(out)
		}
	}
	f.emitMu.Unlock()
}

// shardDone records one finished shard: metrics and the journal once per
// flight, then the event fan-out to every member.
func (f *flight) shardDone(label string, total int, cached bool, worker string, elapsedMs float64) {
	s := f.svc
	source := "local"
	switch {
	case cached:
		source = "cache"
	case worker != "":
		source = "remote"
	}
	s.mShards.With(source).Inc()
	if !cached {
		s.mShardMs.Observe(elapsedMs)
		// Journal the cache key, not the result: the cache holds the bytes,
		// the journal only needs to witness that they exist.
		s.journal.shardSettled(f.creator, f.spec.Experiment, f.digest, label)
	}
	s.log.Debug("shard done",
		"job", f.creator, "shard", label, "source", source, "worker", worker, "elapsed_ms", elapsedMs)
	c := cached
	f.emit(Event{Type: EventShardDone, Shard: label, Total: total, Cached: &c, Worker: worker, ElapsedMs: elapsedMs}, "", time.Time{})
}

// finish settles the flight: one terminal record fans out to every member
// stream, every member's result and done channel settle, and the
// scheduler and coalesce table forget the flight.
func (f *flight) finish(res *experiments.Result, err error) {
	s := f.svc
	f.cancel() // release the context either way

	state := JobDone
	evType := EventJobFinished
	errText := ""
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled):
		state, evType, errText = JobCanceled, EventJobFailed, err.Error()
	default:
		state, evType, errText = JobFailed, EventJobFailed, err.Error()
	}

	f.emitMu.Lock()
	if f.settled {
		f.emitMu.Unlock()
		return
	}
	elapsed := time.Since(f.started)
	if f.started.IsZero() {
		elapsed = 0
	}
	elapsedMs := float64(elapsed) / float64(time.Millisecond)
	if elapsedMs <= 0 {
		elapsedMs = 0.001 // terminal events measure a positive wall time
	}
	ev := Event{Type: evType, ElapsedMs: elapsedMs, Error: errText}
	ev.V = EventSchemaVersion
	ev.Experiment = f.spec.Experiment
	ev.Time = time.Now()
	f.state = state
	f.settled = true
	rec := flightRecord{ev: ev, state: state}
	f.history = append(f.history, rec)
	members := append([]*Job(nil), f.members...)
	cb := s.opts.OnEvent
	for _, j := range members {
		j.mu.Lock()
		j.result, j.err = res, err
		j.elapsed = elapsed
		out := j.applyRecordLocked(rec)
		j.mu.Unlock()
		if cb != nil {
			cb(out)
		}
	}
	f.emitMu.Unlock()

	s.removeFlight(f)
	draining := s.draining.Load()
	for _, j := range members {
		s.mJobs.With(string(state)).Inc()
		s.mJobMs.Observe(elapsedMs)
		if err != nil {
			s.log.Warn("job settled",
				"job", j.id, "experiment", f.spec.Experiment, "state", state,
				"elapsed_ms", elapsedMs, "error", err.Error())
		} else {
			s.log.Info("job settled",
				"job", j.id, "experiment", f.spec.Experiment, "state", state,
				"elapsed_ms", elapsedMs)
		}
		// A suspend shutdown interrupts jobs without journaling the settle:
		// the WAL still shows them live, so the next open re-runs them.
		if !(draining && state == JobCanceled) {
			s.journal.settled(j.id, state, errText)
		}
		// done closes last: once Wait returns, the job already counts as
		// settled for retention.
		s.noteSettled(j.id)
		close(j.done)
	}
}

// removeFlight forgets a flight in the coalesce table (if it is still the
// one registered under its key).
func (s *Service) removeFlight(f *flight) {
	if !f.coalesce {
		return
	}
	s.mu.Lock()
	if s.inflight[f.key] == f {
		delete(s.inflight, f.key)
	}
	s.mu.Unlock()
}

// drop detaches one member from a live flight (Job.Cancel): the member's
// stream settles with context.Canceled, the computation keeps running for
// the remaining members, and the LAST member leaving cancels it.
func (f *flight) drop(j *Job) {
	s := f.svc
	f.emitMu.Lock()
	if f.settled {
		f.emitMu.Unlock()
		return
	}
	idx := -1
	for i, m := range f.members {
		if m == j {
			idx = i
			break
		}
	}
	if idx < 0 {
		f.emitMu.Unlock()
		return
	}
	f.members = append(f.members[:idx], f.members[idx+1:]...)
	last := len(f.members) == 0

	err := context.Canceled
	j.mu.Lock()
	elapsed := time.Since(j.submitted)
	elapsedMs := float64(elapsed) / float64(time.Millisecond)
	if elapsedMs <= 0 {
		elapsedMs = 0.001
	}
	ev := Event{
		V:          EventSchemaVersion,
		Type:       EventJobFailed,
		Job:        j.id,
		Experiment: f.spec.Experiment,
		Time:       time.Now(),
		Seq:        len(j.events),
		ElapsedMs:  elapsedMs,
		Error:      err.Error(),
	}
	j.state = JobCanceled
	j.result, j.err = nil, err
	j.elapsed = elapsed
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	j.mu.Unlock()
	if cb := s.opts.OnEvent; cb != nil {
		cb(ev)
	}
	f.emitMu.Unlock()

	if last {
		// Nobody wants the result anymore: stop the computation and forget
		// the flight, so a NEW submission starts fresh instead of attaching
		// to a doomed one.
		f.cancel()
		s.removeFlight(f)
	}
	s.mJobs.With(string(JobCanceled)).Inc()
	s.mJobMs.Observe(elapsedMs)
	s.log.Warn("job settled",
		"job", j.id, "experiment", f.spec.Experiment, "state", JobCanceled,
		"elapsed_ms", elapsedMs, "error", err.Error(), "detached", !last)
	if !s.draining.Load() {
		s.journal.settled(j.id, JobCanceled, err.Error())
	}
	s.noteSettled(j.id)
	close(j.done)
}

// Job is one submitted experiment run: a member of a flight. Coalesced
// members share the flight's computation but keep independent event
// streams, IDs and reports.
type Job struct {
	id        string
	spec      JobSpec
	profile   string             // resolved profile name ("small" when the spec left it empty)
	cfg       experiments.Config // resolved at Submit; the flight never re-resolves
	submitted time.Time
	svc       *Service
	f         *flight
	done      chan struct{}

	mu        sync.Mutex
	state     JobState
	events    []Event
	notify    chan struct{} // closed and replaced on every append
	result    *experiments.Result
	err       error
	started   time.Time
	elapsed   time.Duration
	shards    int // total shards, known once running
	completed int
	hits      int // cache hits (0 when caching disabled)
	misses    int
}

// applyRecordLocked stamps one canonical flight record into this member's
// stream: per-member Job, Seq and Done, state transition, progress
// counters. Caller holds j.mu (inside the flight's emitMu).
func (j *Job) applyRecordLocked(rec flightRecord) Event {
	ev := rec.ev
	ev.Job = j.id
	ev.Seq = len(j.events)
	switch ev.Type {
	case EventShardDone:
		j.completed++
		if ev.Cached != nil && *ev.Cached {
			j.hits++
		} else {
			j.misses++
		}
		ev.Done = j.completed
	case EventJobStarted:
		j.started = rec.started
	}
	if rec.state != "" {
		j.state = rec.state
	}
	j.events = append(j.events, ev)
	close(j.notify)
	j.notify = make(chan struct{})
	return ev
}

// Submit validates the spec — the experiment must exist and the
// profile/override combination must resolve to a configuration — journals
// it (when the service has a Journal: the job is durable before the
// caller learns its ID), and either attaches it to a live identical
// flight (single-flight coalescing) or queues a new one. Events begin
// with job_queued.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.submit(spec, "", time.Time{}, false)
}

// submit is Submit plus the recovery entry point: a non-empty id re-uses
// a journaled identity, at anchors the elapsed clock at the original
// submission, and boost marks crash-recovered work for the backend queue.
func (s *Service) submit(spec JobSpec, id string, at time.Time, boost bool) (*Job, error) {
	if _, ok := experiments.ByID(spec.Experiment); !ok {
		return nil, fmt.Errorf("service: unknown experiment %q", spec.Experiment)
	}
	profile, err := spec.profileName()
	if err != nil {
		return nil, err
	}
	cfg, err := spec.config()
	if err != nil {
		return nil, fmt.Errorf("service: %v", err)
	}
	if len(spec.TraceID) > 64 {
		return nil, fmt.Errorf("service: trace ID longer than 64 bytes")
	}
	if spec.TraceID == "" {
		spec.TraceID = obs.NewTraceID()
	}
	if at.IsZero() {
		at = time.Now()
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if id == "" {
		s.seq++
		id = fmt.Sprintf("job-%d", s.seq)
	}
	if _, dup := s.jobs[id]; dup {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: job %s already exists", id)
	}
	j := &Job{
		id:        id,
		spec:      spec,
		profile:   profile,
		cfg:       cfg,
		submitted: at,
		svc:       s,
		done:      make(chan struct{}),
		state:     JobQueued,
		notify:    make(chan struct{}),
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.mu.Unlock()

	// Durability before acknowledgment: once the caller learns the ID, the
	// job must survive a crash. A journal write failure rejects the Submit
	// rather than accept work that would silently vanish.
	if err := s.journal.submitted(j.id, spec, at); err != nil {
		s.mu.Lock()
		delete(s.jobs, j.id)
		for i, oid := range s.order {
			if oid == j.id {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.mu.Unlock()
		return nil, fmt.Errorf("service: journal submit: %w", err)
	}
	s.mJobs.With("submitted").Inc()
	s.log.Info("job submitted",
		"job", j.id, "experiment", spec.Experiment, "profile", profile, "trace", spec.TraceID)

	key := coalesceKey{experiment: spec.Experiment, digest: cfg.Digest()}
	for {
		s.mu.Lock()
		var live *flight
		if !spec.NoCache {
			live = s.inflight[key]
		}
		if live == nil {
			f := s.newFlight(j, boost)
			if f.coalesce {
				s.inflight[key] = f
			}
			s.wg.Add(1)
			s.mu.Unlock()
			// Cannot fail: the flight is fresh, neither settled nor
			// cancelled. job_queued is emitted before the flight enters the
			// scheduler's queue: were the order reversed, the scheduler
			// could start it and emit job_started first, tearing the
			// stream's opening invariant.
			f.attach(j)
			f.emit(Event{Type: EventJobQueued}, JobQueued, time.Time{})
			s.mu.Lock()
			s.queue = append(s.queue, f)
			s.startQueuedLocked()
			s.mu.Unlock()
			return j, nil
		}
		s.mu.Unlock()
		if live.attach(j) {
			s.mCoalesced.Inc()
			s.log.Info("job coalesced onto live flight",
				"job", j.id, "experiment", spec.Experiment, "flight", live.creator, "digest", key.digest)
			return j, nil
		}
		// The flight settled (or was cancelled) between lookup and attach:
		// forget it and retry — the next round starts a fresh flight that
		// will serve this job from the now-warm cache.
		s.removeFlight(live)
	}
}

// Recover rebuilds the job table from a journal fold: every interrupted
// job — and every done job whose report a client may not have fetched —
// is resubmitted under its ORIGINAL ID, so reconnecting clients resume
// their event streams (`events?from=N`) and report fetches across the
// restart. Interrupted re-runs enter the backend queue boosted (they
// already waited once) unless the fold saw a clean shutdown; settled
// shards come back as cache hits, and the re-merged report is
// byte-identical by the determinism invariant. Call it after New, before
// accepting submissions.
func (s *Service) Recover(rec *Recovered) {
	if rec == nil {
		return
	}
	floor := rec.NextSeq
	for _, rj := range rec.Jobs {
		var n int
		if _, err := fmt.Sscanf(rj.ID, "job-%d", &n); err == nil && n >= floor {
			floor = n
		}
	}
	s.mu.Lock()
	if floor > s.seq {
		s.seq = floor
	}
	s.mu.Unlock()
	if rec.Skipped > 0 {
		s.log.Warn("wal: journal fold skipped unreadable records", "skipped", rec.Skipped)
	}
	interrupted, resurrected := 0, 0
	for _, rj := range rec.Jobs {
		switch rj.State {
		case "":
			interrupted++
		case JobDone:
			// The report may be unfetched; re-render it cache-hot. Failed
			// and canceled jobs are NOT resurrected: their outcome was
			// final and re-running could only change it.
			resurrected++
		default:
			continue
		}
		boost := rj.State == "" && !rec.Clean
		if _, err := s.submit(rj.Spec, rj.ID, rj.At, boost); err != nil {
			s.log.Warn("wal: recovered job failed to resubmit", "job", rj.ID, "error", err)
			continue
		}
		s.log.Info("wal: recovered job",
			"job", rj.ID, "experiment", rj.Spec.Experiment,
			"interrupted", rj.State == "", "settled_shards", rj.Shards)
	}
	if n := interrupted + resurrected; n > 0 {
		s.mRecovered.Add(int64(n))
		s.log.Info("wal: recovered jobs from journal",
			"interrupted", interrupted, "resurrected_done", resurrected, "clean_shutdown", rec.Clean)
	} else if rec.Clean {
		s.log.Info("wal: clean shutdown record found, nothing to requeue")
	}
	// Every surviving job is re-journaled above; the inherited segments
	// are now dead weight.
	s.journal.compact()
}

// Job looks up a submitted job by ID.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs returns every submitted job in submission order.
func (s *Service) Jobs() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// startQueuedLocked pops queued flights into runners while the scheduler
// has capacity. Caller holds s.mu.
func (s *Service) startQueuedLocked() {
	for len(s.queue) > 0 && (s.opts.MaxActiveJobs <= 0 || s.active < s.opts.MaxActiveJobs) {
		f := s.queue[0]
		s.queue = s.queue[1:]
		s.active++
		go s.runFlight(f)
	}
}

// flightSettled releases the flight's scheduler slot and starts the next
// queued one.
func (s *Service) flightSettled() {
	s.mu.Lock()
	s.active--
	s.startQueuedLocked()
	s.mu.Unlock()
	s.wg.Done()
}

// runFlight executes one flight end to end: cache hits become their parts
// directly, and only the misses are scheduled on the dispatcher.
func (s *Service) runFlight(f *flight) {
	defer s.flightSettled()

	e, _ := experiments.ByID(f.spec.Experiment) // validated at Submit
	cfg := f.cfg                                // resolved at Submit

	start := time.Now()
	if !f.anchor.IsZero() && f.anchor.Before(start) {
		// A recovered flight's clock starts at the ORIGINAL submission: the
		// terminal event's wall time then spans the crash, so a resumed
		// client's merged stream can never show a shard outlasting its job.
		start = f.anchor
	}
	f.emitMu.Lock()
	f.started = start
	f.emitMu.Unlock()
	f.emit(Event{Type: EventJobStarted}, JobRunning, start)

	if err := f.ctx.Err(); err != nil {
		f.finish(nil, err)
		return
	}

	shards, merge, err := experiments.BuildShards(e, cfg)
	if err != nil {
		f.finish(nil, err)
		return
	}
	f.setShards(len(shards))

	parts := make([]any, len(shards))
	var misses []engine.Shard
	var missAt []int // plan index of each miss
	for i, sh := range shards {
		if v, ok := s.cached(f, sh.Label); ok {
			f.trace.NewSpan(sh.Label).Complete("", true)
			f.shardDone(sh.Label, len(shards), true, "", 0)
			parts[i] = v
			continue
		}
		misses = append(misses, s.wrapShard(f, i, len(shards), sh))
		missAt = append(missAt, i)
	}
	computed, err := s.d.Run(f.ctx, misses, engine.Options{Recovered: f.recovered})
	if err != nil {
		// The dispatcher numbers failed shards among the misses; report
		// them by plan index instead.
		if joined, ok := err.(interface{ Unwrap() []error }); ok {
			for _, e := range joined.Unwrap() {
				if se, ok := e.(*engine.ShardError); ok {
					se.Index = missAt[se.Index]
				}
			}
		}
		f.finish(nil, fmt.Errorf("service: %s: %w", f.spec.Experiment, err))
		return
	}
	for k, i := range missAt {
		parts[i] = computed[k]
	}
	res, err := safeMerge(f.spec.Experiment, merge, parts)
	f.finish(res, err)
}

// setShards records the plan size on the flight and every member (late
// attachers copy it from the flight).
func (f *flight) setShards(n int) {
	f.emitMu.Lock()
	for _, j := range f.members {
		j.mu.Lock()
		j.shards = n
		j.mu.Unlock()
	}
	f.emitMu.Unlock()
}

// safeMerge runs the merge step with the same panic isolation the engine
// gives shards: merges type-assert their parts, so a foreign value (e.g.
// out of a cross-version cache directory) must fail the one job, not kill
// the serve process and every other in-flight job with it.
func safeMerge(id string, merge func([]any) (*experiments.Result, error), parts []any) (res *experiments.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("service: %s: merge panic: %v\n%s", id, p, buf)
		}
	}()
	return merge(parts)
}

// cached looks one shard up in the result cache. A NoCache flight, or a
// service without a cache, always misses.
func (s *Service) cached(f *flight, label string) (any, bool) {
	if s.opts.Cache == nil || f.spec.NoCache {
		return nil, false
	}
	data, ok := s.opts.Cache.Get(cache.Key{Experiment: f.spec.Experiment, ConfigDigest: f.digest, Shard: label})
	if !ok {
		return nil, false
	}
	v, err := cache.Gob{}.Decode(data)
	// An undecodable entry (e.g. the part type changed) is a miss: the
	// shard recomputes and its Put repairs the entry.
	return v, err == nil
}

// wrapShard layers the cache fill and event emission around one missed
// shard, and attaches the remote-execution contract: a serialized task
// descriptor naming the shard by its plan index, and an Accept hook that
// ingests a worker's gob reply with the same cache fill and event emission
// the local path performs. A NoCache job stores nothing — useful to force
// a recomputation without retiring the store's existing entries.
func (s *Service) wrapShard(f *flight, index, total int, sh engine.Shard) engine.Shard {
	run := sh.Run
	label := sh.Label
	useCache := s.opts.Cache != nil && !f.spec.NoCache
	key := cache.Key{Experiment: f.spec.Experiment, ConfigDigest: f.digest, Shard: label}
	span := f.trace.NewSpan(label)
	return engine.Shard{
		Label: label,
		// The plan's static estimate, a hint to the dispatch queue only; it
		// never reaches the result or its digest.
		Cost: sh.Cost,
		Span: span,
		Run: func(ctx context.Context) (any, error) {
			span.Record(obs.SpanExecuting, "")
			start := time.Now()
			v, err := run(ctx)
			if err != nil {
				// The span closes either way: a shard that errored is settled,
				// not stuck, and must not read as an open span in the trace.
				span.Complete("", false)
				return nil, err
			}
			elapsedMs := float64(time.Since(start)) / float64(time.Millisecond)
			if useCache {
				if data, err := (cache.Gob{}).Encode(v); err == nil {
					// Spill failures only cost future hits.
					_ = s.opts.Cache.Put(key, data)
				}
			}
			span.Complete("", false)
			f.shardDone(label, total, false, "", elapsedMs)
			return v, nil
		},
		Remote: &engine.RemoteSpec{
			Spec: dispatch.EncodeTask(dispatch.TaskSpec{
				Experiment: f.spec.Experiment,
				Config:     f.cfg,
				Shard:      index,
				Label:      label,
				TraceID:    f.spec.TraceID,
			}),
			Accept: func(from string, elapsed time.Duration, reply []byte) (any, error) {
				v, err := cache.Gob{}.Decode(reply)
				if err != nil {
					span.Complete(from, false)
					return nil, fmt.Errorf("service: %s: decode worker reply: %w", label, err)
				}
				// The dispatcher's lease→complete measurement, which includes
				// transport and worker-side queueing.
				elapsedMs := float64(elapsed) / float64(time.Millisecond)
				if useCache {
					// The reply IS the gob encoding — store it verbatim, so
					// local and remote fills are byte-identical entries.
					_ = s.opts.Cache.Put(key, reply)
				}
				span.Complete(from, false)
				f.shardDone(label, total, false, from, elapsedMs)
				return v, nil
			},
		},
	}
}

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// Spec returns the submitted spec.
func (j *Job) Spec() JobSpec { return j.spec }

// Profile returns the resolved profile name the job runs under ("small"
// when the spec named none).
func (j *Job) Profile() string { return j.profile }

// Config returns the job's resolved experiment configuration.
func (j *Job) Config() experiments.Config { return j.cfg }

// TraceID returns the job's trace identifier: the flight's, which for a
// coalesced follower is the trace minted (or propagated) by the flight's
// creator.
func (j *Job) TraceID() string { return j.f.trace.ID() }

// Trace snapshots the job's span set as the /v1/jobs/{id}/trace wire
// record, stamped with the job's current lifecycle phase.
func (j *Job) Trace() obs.TraceRecord {
	return j.f.trace.Snapshot(string(j.State()))
}

// State returns the job's current lifecycle phase.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Progress returns completed and total shard counts (total is 0 until the
// job starts).
func (j *Job) Progress() (completed, total int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.completed, j.shards
}

// CacheCounts returns how many of the job's shards hit and missed the
// result cache (both 0 when caching is disabled).
func (j *Job) CacheCounts() (hits, misses int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.hits, j.misses
}

// Elapsed returns the job's wall time: running jobs report time since
// start, finished jobs the final figure measured once at completion.
func (j *Job) Elapsed() time.Duration {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JobRunning {
		return time.Since(j.started)
	}
	return j.elapsed
}

// Cancel asks the job to stop: the job detaches from its flight and its
// stream settles with context.Canceled. The underlying computation stops
// only when its last member job leaves — coalesced followers are
// unaffected by one member's cancellation.
func (j *Job) Cancel() { j.f.drop(j) }

// Wait blocks until the job settles (or ctx is cancelled) and returns its
// result.
func (j *Job) Wait(ctx context.Context) (*experiments.Result, error) {
	select {
	case <-j.done:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.result, j.err
}

// Result returns the finished report (nil while the job is in flight or
// failed).
func (j *Job) Result() (*experiments.Result, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.terminal() {
		return nil, fmt.Errorf("service: job %s still %s", j.id, j.state)
	}
	return j.result, j.err
}

// noteSettled records a settled job for retention and retires the oldest
// settled jobs beyond Options.RetainJobs: their Job records — event
// buffers, reports, spec — leave the table entirely, so a serve process
// accepting jobs for months holds a bounded history while the most recent
// jobs keep full event replay. Retired IDs answer like unknown ones (HTTP
// 404), and the journal remembers the retirement so a restart never
// resurrects them.
func (s *Service) noteSettled(id string) {
	var retired []string
	s.mu.Lock()
	s.settled = append(s.settled, id)
	if s.opts.RetainJobs > 0 {
		for len(s.settled) > s.opts.RetainJobs {
			old := s.settled[0]
			s.settled = s.settled[1:]
			delete(s.jobs, old)
			for i, oid := range s.order {
				if oid == old {
					s.order = append(s.order[:i], s.order[i+1:]...)
					break
				}
			}
			retired = append(retired, old)
		}
	}
	s.mu.Unlock()
	for _, old := range retired {
		s.journal.retired(old)
	}
}

// Events streams the job's event history followed by live events, closing
// after the terminal event (or when ctx is cancelled). Every subscriber
// sees the full sequence from Seq 0, so late consumers replay the history.
func (j *Job) Events(ctx context.Context) <-chan Event {
	return j.EventsFrom(ctx, 0)
}

// EventsFrom is Events starting at sequence number from instead of 0: the
// replay skips events the consumer already holds, which is how a
// disconnected follower (the remote client's event stream) resumes without
// gaps or duplicates — including across a server restart, where the
// recovered job re-emits its stream and the follower waits at its old
// position until the re-run catches up. A from beyond the terminal event
// yields an empty, immediately closed stream.
func (j *Job) EventsFrom(ctx context.Context, from int) <-chan Event {
	if from < 0 {
		from = 0
	}
	ch := make(chan Event)
	go func() {
		defer close(ch)
		next := from
		for {
			j.mu.Lock()
			var batch []Event
			if next < len(j.events) {
				batch = make([]Event, len(j.events)-next)
				copy(batch, j.events[next:])
				next = len(j.events)
			}
			terminal := j.state.terminal()
			notify := j.notify
			j.mu.Unlock()
			for _, ev := range batch {
				select {
				case ch <- ev:
				case <-ctx.Done():
					return
				}
			}
			if terminal {
				return
			}
			select {
			case <-notify:
			case <-ctx.Done():
				return
			}
		}
	}()
	return ch
}

// EventHistory returns a snapshot of the events emitted so far.
func (j *Job) EventHistory() []Event {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, len(j.events))
	copy(out, j.events)
	return out
}
