// Package dispatch is the service's shard-execution backend: it routes
// every shard either to a local executor goroutine or to a remote worker
// process (`cdlab worker`) leased over the /v1 worker HTTP verbs (see
// wire.go for the protocol). `cdlab run` and `cdlab serve` both execute
// through it; a run with no worker attached is simply one whose local
// executors claim every task.
//
// The scheduling model is one pull-based task queue shared by every
// placement. A Run call enqueues its shards as tasks; local executors and
// remote lease polls both pop from the front, so placement is simply
// whichever capacity frees up first — the queue never commits a shard to a
// lost worker. The queue is first in, first out with one boost: requeued
// leases and crash-recovered runs go in front of every unboosted task
// (DESIGN.md §12). Determinism survives distribution because placement
// only decides WHERE and WHEN a shard computes, never WHAT: results land
// in the task's input slot and are collected in canonical order, and
// every shard is a pure function of (experiment, config, shard key), so a
// distributed run's merged report is byte-identical to a serial local one.
//
// Failure handling is lease-based. A worker proves liveness by
// heartbeating (and by polling for leases); a worker silent for longer
// than the lease TTL is dropped from the table and every task it held is
// requeued at the front of the queue — a shard lost to a killed worker
// re-executes elsewhere and, being deterministic, produces the identical
// partial result. A task that repeatedly dies remotely is pinned local
// (when local executors exist) so one poisonous worker loop cannot starve
// a job forever. Genuine shard errors reported by a worker fail the job,
// exactly as a local shard error would.
//
// The dispatcher never consults the result cache: the service looks every
// shard up before scheduling and hands Run only the misses, so a warm
// rerun needs no executor and no worker at all.
//
// Cancellation mirrors the engine contract: when a Run call's context dies
// its queued tasks settle with ctx.Err(), in-flight local shards finish on
// their executors, and late remote replies for settled tasks are
// discarded. A cancelled Run leaves the dispatcher fully usable for other
// callers.
package dispatch

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb/internal/engine"
	"columndisturb/internal/obs"
)

// Sentinel errors the HTTP layer maps onto status codes.
var (
	// ErrClosed reports a dispatcher that has been Closed.
	ErrClosed = errors.New("dispatch: closed")
	// ErrUnknownWorker reports a verb addressed to an unregistered (or
	// expired) worker; the worker should re-register.
	ErrUnknownWorker = errors.New("dispatch: unknown worker")
	// ErrNoLease reports a completion for a task the worker no longer
	// holds (typically requeued after the worker was presumed lost); the
	// worker just moves on.
	ErrNoLease = errors.New("dispatch: no such lease")
	// ErrBuildMismatch refuses a worker registering with another GOARCH or
	// Go toolchain than the server's (or none): the same source can round
	// floating point differently there, so its shards could break the
	// byte-identity of reports. The worker should stop, not retry.
	ErrBuildMismatch = errors.New("dispatch: worker build mismatch")
)

// Options configures a Dispatcher.
type Options struct {
	// LocalWorkers sizes the local executor set (<= 0 selects
	// runtime.GOMAXPROCS(0)). Set NoLocal to run with none.
	LocalWorkers int
	// NoLocal disables local execution entirely: every shard waits for a
	// remote worker lease. Jobs submitted with no worker attached wait in
	// the queue until one attaches (or their context dies).
	NoLocal bool
	// LeaseTTL is the worker heartbeat deadline (<= 0 selects 15s): a
	// worker silent for longer is dropped and its leases requeue.
	LeaseTTL time.Duration
	// Metrics, when non-nil, receives the dispatcher's queue/lease metrics
	// (nil creates a private registry, so recording sites never nil-check).
	// Share one registry with the service to export everything at /v1/metrics.
	Metrics *obs.Registry
	// Logger receives structured scheduling logs (worker lifecycle, lease
	// recovery). Nil discards them.
	Logger *slog.Logger
}

// maxRemoteAttempts bounds how many times a task may be requeued off lost
// workers before it is pinned to local execution. The pin only applies
// when local executors exist.
const maxRemoteAttempts = 3

// Dispatcher is the shard backend. It must be released with Close; all
// methods are goroutine-safe.
type Dispatcher struct {
	opts  Options
	local int // local executor count
	log   *slog.Logger

	// Observability (side channels only — never consulted for scheduling).
	busyLocal     atomic.Int64 // local executors currently inside a shard
	leaseWait     *obs.Histogram
	leaseComplete *obs.Histogram
	requeues      *obs.Counter
	workerTasks   *obs.CounterVec

	mu        sync.Mutex
	pending   *list.List // *task, boosted then FIFO; front = next out (see enqueueLocked)
	notify    chan struct{}
	workers   map[string]*workerState
	taskSeq   int
	workerSeq int
	closed    bool

	closeCh   chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup
}

type taskState int

const (
	taskPending taskState = iota // in the queue
	taskLocal                    // claimed by a local executor
	taskLeased                   // held by a remote worker
	taskDone                     // settled
)

// task is one shard's lifecycle through the queue. doneCh closes exactly
// once, when the task settles.
type task struct {
	id    string
	ctx   context.Context
	shard engine.Shard

	// boost and enqueuedAt are queue-scheduling state guarded by the
	// dispatcher's mu (not t.mu): boost marks requeued or crash-recovered
	// work, which goes ahead of new work; enqueuedAt anchors the
	// queue-wait latency metric.
	boost      bool
	enqueuedAt time.Time

	mu             sync.Mutex
	state          taskState
	remoteAttempts int
	localOnly      bool
	result         any
	err            error
	doneCh         chan struct{}
}

// finishLocked settles the task. Caller holds t.mu and has checked the
// state is not already taskDone.
func (t *task) finishLocked(v any, err error) {
	t.state = taskDone
	t.result, t.err = v, err
	close(t.doneCh)
}

// finish settles the task unless it already settled (late duplicate
// results — a presumed-lost worker completing after requeue — are
// discarded; first completion wins).
func (t *task) finish(v any, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.state == taskDone {
		return false
	}
	t.finishLocked(v, err)
	return true
}

// leaseEntry is one outstanding lease: the task plus its grant time, the
// anchor of the lease→complete wall-time measurement.
type leaseEntry struct {
	t         *task
	grantedAt time.Time
}

type workerState struct {
	id        string
	name      string
	capacity  int
	lastSeen  time.Time
	leases    map[string]*leaseEntry // task ID → lease
	completed int64
	busyNs    int64 // summed lease→complete wall time of completed tasks
}

// New starts a dispatcher: LocalWorkers executor goroutines (unless
// NoLocal) plus the lease janitor.
func New(opts Options) *Dispatcher {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	local := opts.LocalWorkers
	if local <= 0 {
		local = runtime.GOMAXPROCS(0)
	}
	if opts.NoLocal {
		local = 0
	}
	log := opts.Logger
	if log == nil {
		log = obs.NopLogger()
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	d := &Dispatcher{
		opts:    opts,
		local:   local,
		log:     log,
		pending: list.New(),
		notify:  make(chan struct{}),
		workers: make(map[string]*workerState),
		closeCh: make(chan struct{}),
	}
	d.leaseWait = reg.Histogram("cdlab_lease_wait_ms",
		"Queue wait from task enqueue to claim by any placement, in milliseconds.", nil)
	d.leaseComplete = reg.Histogram("cdlab_lease_to_complete_ms",
		"Remote lease grant to completion wall time, in milliseconds.", nil)
	d.requeues = reg.Counter("cdlab_dispatch_requeues_total",
		"Tasks requeued off lost workers.")
	d.workerTasks = reg.CounterVec("cdlab_worker_tasks_total",
		"Tasks completed per remote worker.", "worker")
	reg.GaugeFunc("cdlab_dispatch_queue_depth",
		"Pending tasks in the dispatch queue (settled entries pruned lazily).", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(d.pending.Len())
		})
	reg.GaugeFunc("cdlab_dispatch_workers",
		"Remote workers currently registered.", func() float64 {
			d.mu.Lock()
			defer d.mu.Unlock()
			return float64(len(d.workers))
		})
	d.wg.Add(local + 1)
	for i := 0; i < local; i++ {
		go d.localLoop()
	}
	go d.janitor()
	return d
}

// Workers reports the local parallelism bound. Remote capacity attaches
// and detaches at runtime; see RemoteWorkers.
func (d *Dispatcher) Workers() int { return d.local }

// Busy reports the dispatcher's in-flight shard count: local executors
// inside a shard plus outstanding remote leases. An instantaneous
// utilization reading for metrics exporters.
func (d *Dispatcher) Busy() int {
	n := int(d.busyLocal.Load())
	d.mu.Lock()
	for _, w := range d.workers {
		n += len(w.leases)
	}
	d.mu.Unlock()
	return n
}

// Close stops the executors and the janitor and waits for them. It must
// not be called concurrently with Run (settle or cancel jobs first — the
// service does exactly that).
func (d *Dispatcher) Close() {
	d.closeOnce.Do(func() {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		close(d.closeCh)
	})
	d.wg.Wait()
}

// wakeLocked signals every waiter (executors, lease long-polls) that the
// queue changed. Caller holds d.mu.
func (d *Dispatcher) wakeLocked() {
	close(d.notify)
	d.notify = make(chan struct{})
}

// Run executes the shards with engine.Run's semantics: results in input
// order, failures joined via engine.ShardError, and cancellation reported
// as ctx.Err() while other callers keep running. Concurrent Run calls
// interleave their tasks on the same queue. recovered marks crash-recovered
// work resubmitted after a restart: it gets a requeued lease's boost, since
// it already waited once.
func (d *Dispatcher) Run(ctx context.Context, shards []engine.Shard, recovered bool) ([]any, error) {
	if len(shards) == 0 {
		return nil, ctx.Err()
	}
	tasks := make([]*task, len(shards))
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, ErrClosed
	}
	for i, sh := range shards {
		d.taskSeq++
		tasks[i] = &task{
			id:     fmt.Sprintf("t%d", d.taskSeq),
			ctx:    ctx,
			shard:  sh,
			boost:  recovered,
			doneCh: make(chan struct{}),
		}
		d.enqueueLocked(tasks[i])
	}
	d.wakeLocked()
	d.mu.Unlock()

	// The watcher unblocks this call promptly on cancellation: tasks still
	// queued or leased settle with ctx.Err() (a lost lease's late reply is
	// discarded); tasks running on a local executor finish there.
	watchDone := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	go func() {
		defer watch.Done()
		select {
		case <-ctx.Done():
			for _, t := range tasks {
				t.mu.Lock()
				if t.state == taskPending || t.state == taskLeased {
					t.finishLocked(nil, ctx.Err())
				}
				t.mu.Unlock()
			}
			// Drop the settled tasks from the queue now rather than waiting
			// for the next pop to prune them lazily: on a pure scheduler
			// with no worker attached nobody may pop for a long time, and a
			// cancelled job's shard closures must not stay referenced until
			// then.
			d.pruneSettled()
		case <-watchDone:
		}
	}()

	out := make([]any, len(tasks))
	errs := make([]error, len(tasks))
	for i, t := range tasks {
		<-t.doneCh
		t.mu.Lock()
		out[i], errs[i] = t.result, t.err
		t.mu.Unlock()
	}
	close(watchDone)
	watch.Wait()
	return out, engine.JoinShardErrors(ctx, shards, errs)
}

// pruneSettled removes every settled task from the queue (cancellation
// cleanup; pops prune lazily, but an idle queue has no pops).
func (d *Dispatcher) pruneSettled() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for el := d.pending.Front(); el != nil; {
		next := el.Next()
		t := el.Value.(*task)
		t.mu.Lock()
		if t.state != taskPending {
			d.pending.Remove(el)
		}
		t.mu.Unlock()
		el = next
	}
}

// enqueueLocked appends the task, or inserts a boosted one in front of the
// first unboosted task, so boosted tasks stay FIFO among themselves.
// O(queue) per boosted insert, which is fine at plan scale. Caller holds
// d.mu.
func (d *Dispatcher) enqueueLocked(t *task) {
	t.enqueuedAt = time.Now()
	if t.boost {
		for el := d.pending.Front(); el != nil; el = el.Next() {
			if !el.Value.(*task).boost {
				d.pending.InsertBefore(t, el)
				return
			}
		}
	}
	d.pending.PushBack(t)
}

// popLocked removes and claims the next runnable task for a remote lease
// or a local executor, pruning settled and cancelled entries as it scans.
// The first eligible task is the next in queue order. Caller holds d.mu;
// nil means the queue holds nothing for this placement.
func (d *Dispatcher) popLocked(remote bool) *task {
	for el := d.pending.Front(); el != nil; {
		next := el.Next()
		t := el.Value.(*task)
		t.mu.Lock()
		switch {
		case t.state != taskPending:
			// Settled while queued (cancellation watcher); prune lazily.
			d.pending.Remove(el)
		case t.ctx.Err() != nil:
			// Don't start a shard whose job already died.
			d.pending.Remove(el)
			t.finishLocked(nil, t.ctx.Err())
		case remote && (t.localOnly || t.shard.Remote == nil):
			// Not remote-eligible: leave it for a local executor.
		default:
			d.pending.Remove(el)
			if remote {
				t.state = taskLeased
			} else {
				t.state = taskLocal
			}
			t.mu.Unlock()
			d.leaseWait.Observe(float64(time.Since(t.enqueuedAt)) / float64(time.Millisecond))
			return t
		}
		t.mu.Unlock()
		el = next
	}
	return nil
}

// requeueLocked pushes a lost worker's leased tasks back into the queue
// with the boost flag set (interrupted work goes ahead of new work),
// counting the failed attempt and pinning repeat offenders to
// local execution when local executors exist. Caller holds d.mu.
func (d *Dispatcher) requeueLocked(w *workerState) {
	requeued := false
	for _, le := range w.leases {
		t := le.t
		t.mu.Lock()
		if t.state != taskLeased {
			t.mu.Unlock()
			continue
		}
		if err := t.ctx.Err(); err != nil {
			t.finishLocked(nil, err)
			t.mu.Unlock()
			continue
		}
		t.remoteAttempts++
		if t.remoteAttempts >= maxRemoteAttempts && d.local > 0 {
			t.localOnly = true
		}
		t.state = taskPending
		t.mu.Unlock()
		t.shard.Span.Record(obs.SpanRequeued, w.id)
		d.requeues.Inc()
		d.log.Warn("worker lost, requeueing task",
			"worker", w.id, "worker_name", w.name, "task", t.id, "shard", t.shard.Label)
		t.boost = true
		d.enqueueLocked(t)
		requeued = true
	}
	w.leases = map[string]*leaseEntry{}
	if requeued {
		d.wakeLocked()
	}
}

// localLoop is one local executor: it pulls runnable tasks until Close.
func (d *Dispatcher) localLoop() {
	defer d.wg.Done()
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return
		}
		t := d.popLocked(false)
		notify := d.notify
		d.mu.Unlock()
		if t == nil {
			select {
			case <-notify:
			case <-d.closeCh:
				return
			}
			continue
		}
		d.busyLocal.Add(1)
		v, err := engine.RunShard(t.ctx, t.shard)
		d.busyLocal.Add(-1)
		t.finish(v, err)
	}
}

// janitor periodically drops workers whose heartbeat deadline passed and
// requeues their leases — the deadline-based recovery path for killed or
// partitioned workers.
func (d *Dispatcher) janitor() {
	defer d.wg.Done()
	tick := d.opts.LeaseTTL / 4
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-d.closeCh:
			return
		case <-ticker.C:
			d.expire(time.Now())
		}
	}
}

// expire drops every worker silent past the lease TTL and requeues its
// tasks.
func (d *Dispatcher) expire(now time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, w := range d.workers {
		if now.Sub(w.lastSeen) > d.opts.LeaseTTL {
			delete(d.workers, id)
			d.log.Warn("worker heartbeat deadline passed, evicting",
				"worker", id, "worker_name", w.name,
				"silent_ms", now.Sub(w.lastSeen).Milliseconds(),
				"leases", len(w.leases))
			d.requeueLocked(w)
		}
	}
}

// Register adds a worker to the lease table and returns its identity and
// heartbeat contract. A worker whose GOARCH or Go version differs from
// this process's, or is missing, is refused with ErrBuildMismatch.
func (d *Dispatcher) Register(req RegisterRequest) (RegisterResponse, error) {
	if req.GOARCH != runtime.GOARCH || req.GoVersion != runtime.Version() {
		return RegisterResponse{}, fmt.Errorf("%w: worker runs GOARCH %q with Go %q, server runs GOARCH %q with Go %q",
			ErrBuildMismatch, req.GOARCH, req.GoVersion, runtime.GOARCH, runtime.Version())
	}
	name, capacity := req.Name, req.Capacity
	if capacity <= 0 {
		capacity = 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return RegisterResponse{}, ErrClosed
	}
	d.workerSeq++
	id := fmt.Sprintf("w%d", d.workerSeq)
	if name == "" {
		name = id
	}
	d.workers[id] = &workerState{
		id:       id,
		name:     name,
		capacity: capacity,
		lastSeen: time.Now(),
		leases:   make(map[string]*leaseEntry),
	}
	d.log.Info("worker registered", "worker", id, "worker_name", name, "capacity", capacity)
	return RegisterResponse{
		Protocol:   ProtocolVersion,
		WorkerID:   id,
		LeaseTTLMs: d.opts.LeaseTTL.Milliseconds(),
	}, nil
}

// Heartbeat renews a worker's liveness deadline.
func (d *Dispatcher) Heartbeat(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	return nil
}

// Deregister removes a worker immediately (graceful shutdown), requeueing
// any leases it still holds.
func (d *Dispatcher) Deregister(workerID string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := d.workers[workerID]
	if w == nil {
		return ErrUnknownWorker
	}
	delete(d.workers, workerID)
	d.log.Info("worker deregistered", "worker", workerID, "worker_name", w.name, "completed", w.completed)
	d.requeueLocked(w)
	return nil
}

// Lease hands the worker its next task, long-polling up to wait for one to
// appear. A nil grant with nil error means the poll elapsed empty (HTTP
// 204); a dead ctx returns ctx.Err(), so a severed caller is never mistaken
// for a healthy empty poll. Leasing also proves liveness, so a busy worker
// that polls needs no separate heartbeat.
func (d *Dispatcher) Lease(ctx context.Context, workerID string, wait time.Duration) (*LeaseGrant, error) {
	// Cap the poll at half the lease TTL inside the dispatcher itself, not
	// just in the HTTP layer: lastSeen renews only when the loop re-enters,
	// so a caller parked in the select below proves no liveness — no single
	// park may outlast the heartbeat deadline, or a direct-backend caller
	// asking for a generous wait would be evicted mid-poll by the janitor.
	if max := d.opts.LeaseTTL / 2; wait > max {
		wait = max
	}
	deadline := time.Now().Add(wait)
	for {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return nil, ErrClosed
		}
		w := d.workers[workerID]
		if w == nil {
			d.mu.Unlock()
			return nil, ErrUnknownWorker
		}
		w.lastSeen = time.Now()
		var t *task
		if len(w.leases) < w.capacity {
			t = d.popLocked(true)
		}
		notify := d.notify
		if t != nil {
			w.leases[t.id] = &leaseEntry{t: t, grantedAt: time.Now()}
			d.mu.Unlock()
			t.shard.Span.Record(obs.SpanLeased, workerID)
			d.log.Debug("lease granted", "worker", workerID, "task", t.id, "shard", t.shard.Label)
			return &LeaseGrant{TaskID: t.id, Spec: t.shard.Remote.Spec}, nil
		}
		d.mu.Unlock()

		remain := time.Until(deadline)
		if remain <= 0 {
			return nil, nil
		}
		timer := time.NewTimer(remain)
		select {
		case <-notify:
			timer.Stop()
		case <-timer.C:
			return nil, nil
		case <-ctx.Done():
			// A dead caller context is a severed connection, not an empty
			// poll: surface it so the HTTP layer can drop the response
			// instead of sending a 204 nobody will read.
			timer.Stop()
			return nil, ctx.Err()
		case <-d.closeCh:
			timer.Stop()
			return nil, ErrClosed
		}
	}
}

// Complete settles a leased task with the worker's reply: a reported shard
// error fails the task (and so the job), a successful reply flows through
// the shard's Accept hook (decode, cache fill, events) with the observed
// lease→complete wall time. Late completions — success OR error — for
// tasks already settled elsewhere are discarded silently; a completion for
// a lease this worker no longer holds returns ErrNoLease.
func (d *Dispatcher) Complete(workerID, taskID string, result []byte, workerErr string) error {
	d.mu.Lock()
	w := d.workers[workerID]
	if w == nil {
		d.mu.Unlock()
		return ErrUnknownWorker
	}
	w.lastSeen = time.Now()
	le := w.leases[taskID]
	if le == nil {
		d.mu.Unlock()
		return ErrNoLease
	}
	delete(w.leases, taskID)
	d.mu.Unlock()
	t := le.t
	elapsed := time.Since(le.grantedAt)

	if workerErr != "" {
		if err := t.ctx.Err(); err != nil {
			// The job died while the worker computed; settle as a
			// cancellation skip, exactly as the watcher would (a no-op if
			// the watcher already did).
			t.finish(nil, err)
			return nil
		}
		d.log.Warn("worker reported shard error",
			"worker", workerID, "task", taskID, "shard", t.shard.Label, "error", workerErr)
		t.finish(nil, fmt.Errorf("dispatch: worker %s: %s", workerID, workerErr))
		return nil
	}
	t.mu.Lock()
	settled := t.state == taskDone
	t.mu.Unlock()
	if settled {
		// The task was settled while leased (job cancelled): drop the late
		// reply without Accept side effects.
		return nil
	}
	v, err := t.shard.Remote.Accept(workerID, elapsed, result)
	if err != nil {
		t.finish(nil, fmt.Errorf("dispatch: worker %s reply for %s: %w", workerID, t.shard.Label, err))
		return nil
	}
	if t.finish(v, nil) {
		d.leaseComplete.Observe(float64(elapsed) / float64(time.Millisecond))
		d.workerTasks.With(w.name).Inc()
		d.log.Debug("task completed",
			"worker", workerID, "task", taskID, "shard", t.shard.Label,
			"elapsed_ms", elapsed.Milliseconds())
		d.mu.Lock()
		if cur := d.workers[workerID]; cur == w {
			w.completed++
			w.busyNs += int64(elapsed)
		}
		d.mu.Unlock()
	}
	return nil
}

// RemoteWorkers snapshots the lease table for listings and tests, sorted
// by worker ID.
func (d *Dispatcher) RemoteWorkers() []WorkerInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(d.workers))
	for _, w := range d.workers {
		info := WorkerInfo{
			ID:         w.id,
			Name:       w.name,
			Capacity:   w.capacity,
			Inflight:   len(w.leases),
			LastSeenMs: now.Sub(w.lastSeen).Milliseconds(),
			Completed:  w.completed,
			BusyMs:     w.busyNs / 1e6,
		}
		if w.completed > 0 {
			info.AvgTaskMs = float64(w.busyNs) / 1e6 / float64(w.completed)
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
