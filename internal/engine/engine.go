// Package engine executes independent experiment shards on a bounded set
// of goroutines.
//
// The engine is the repo's scale-out scaffolding: an experiment that can
// decompose its sweep into independent units of work (shards) hands the
// engine a slice of closures and gets back their results in input order,
// regardless of how many workers ran them or in what order they finished.
// Determinism is a contract between the engine and its callers:
//
//   - The engine guarantees ordered collection: result i always comes from
//     shard i, and a serial run (Workers=1) executes shards in input order.
//   - The caller guarantees shard independence: each shard derives any
//     randomness it needs from its own key (see rng.Key) rather than from
//     state shared with other shards, and mutates no shared data.
//
// Under those two rules a parallel run is bit-identical to a serial one,
// which the experiments package exploits to make `cdlab run -j N` produce
// byte-for-byte the output of `-j 1`.
//
// Run executes one shard list on transient goroutines (direct experiment
// runs and benchmarks). The service's long-lived, shared shard queue is
// internal/dispatch, which reuses this package's Shard type and its
// RunShard, ProgressReporter and JoinShardErrors helpers so both honour
// the same contract.
//
// Cancellation is cooperative and scheduling-level: when a Run call's
// context is cancelled the engine stops handing out new shards, marks the
// not-yet-started ones with the context error, lets in-flight shards finish
// (their Run receives the context and may return early), and reports the
// cancellation via errors.Is(err, ctx.Err()).
//
// Panics inside a shard are isolated: they are captured with their stack
// and reported as that shard's error instead of tearing down the process,
// so one poisoned unit of a 1000-shard sweep fails loudly without losing
// the rest of the run.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb/internal/obs"
)

// Shard is one independent unit of work. Run must be safe to call from any
// goroutine and must not share mutable state with other shards. The context
// is the one passed to the engine's Run: long-running shards may poll it to
// bail out early after cancellation, but are not required to.
type Shard struct {
	// Label identifies the shard in progress reports and error messages.
	Label string
	// Run produces the shard's partial result.
	Run func(ctx context.Context) (any, error)
	// Remote, when non-nil, describes how the dispatch backend may execute
	// this shard on a worker process instead of invoking Run in-process
	// (see internal/dispatch). Run ignores it, so attaching a RemoteSpec
	// never changes local execution.
	Remote *RemoteSpec
	// Cost is an optional scheduling hint: the shard's expected wall time in
	// abstract units roughly comparable to milliseconds (0 = unknown). The
	// dispatch backend leases expensive shards first so one big shard
	// cannot dominate a sweep's critical path; Run ignores it. Cost
	// influences only WHERE and WHEN a shard runs, never its result, and it
	// must not enter any result digest.
	Cost float64
	// Span, when non-nil, is the shard's observability span (internal/obs).
	// The dispatch backend records scheduling transitions (lease, requeue)
	// on it; the shard's own Run closure records execution and completion.
	// Spans are a pure side channel — nil-safe, never consulted for
	// scheduling, and never part of results.
	Span *obs.Span
}

// RemoteSpec is the off-process execution contract of one shard. The
// backend sends Spec's bytes to a worker, and the worker's reply must
// yield — through Accept — exactly the value Run would have produced, so
// placement (local worker goroutine vs remote process) never changes a
// run's output.
type RemoteSpec struct {
	// Spec is the opaque task descriptor shipped to the worker (the
	// dispatch wire format's TaskSpec, serialized).
	Spec []byte
	// Accept ingests a worker's successful reply: it decodes the bytes and
	// performs whatever bookkeeping Run would have done around the
	// computation (cache fill, progress events), returning the shard's
	// value. from names the worker that executed the shard; elapsed is the
	// lease→complete wall time the backend observed (it includes queueing
	// on the worker and transport), which callers report as the shard's
	// wall time.
	Accept func(from string, elapsed time.Duration, reply []byte) (any, error)
}

// Options tunes a Run call.
type Options struct {
	// Workers bounds the number of concurrently executing shards.
	// Values <= 0 select runtime.GOMAXPROCS(0). The dispatch backend
	// ignores it: its own executor count is the bound.
	Workers int
	// OnProgress, when non-nil, is called after each shard completes with
	// the number of completed shards, the total, and the finished shard's
	// label. Calls are serialized (never concurrent) but may arrive in any
	// shard order. Shards skipped because of cancellation are not reported.
	OnProgress func(done, total int, label string)
	// Recovered marks this run as crash-recovered work resubmitted after a
	// restart. It is a scheduling hint only: the dispatch backend treats
	// the shards like requeued interrupted leases (front of the queue)
	// instead of new arrivals, so work that already waited through a crash
	// is not penalized a second time. Run ignores it.
	Recovered bool
}

// ShardError reports the failure of one shard, preserving its identity.
type ShardError struct {
	Index int
	Label string
	Err   error
}

func (e *ShardError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Index, e.Label, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Run executes every shard and returns their results in input order:
// out[i] is the value produced by shards[i]. All shards are attempted even
// if some fail; the returned error joins every per-shard failure (wrapped
// in *ShardError) and is nil only when all shards succeeded. If ctx is
// cancelled mid-run, no new shards start and the returned error satisfies
// errors.Is(err, ctx.Err()).
//
// Workers claim shard indices from one shared counter, so with Workers=1
// the single worker runs the shards in input order.
func Run(ctx context.Context, shards []Shard, opts Options) ([]any, error) {
	if len(shards) == 0 {
		return nil, ctx.Err()
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(shards))
	out := make([]any, len(shards))
	errs := make([]error, len(shards))
	report := ProgressReporter(opts, len(shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = RunShard(ctx, shards[i])
				report(shards[i].Label)
			}
		}()
	}
	wg.Wait()
	return out, JoinShardErrors(ctx, shards, errs)
}

// ProgressReporter serializes OnProgress callbacks: the counter increment
// and the callback share one critical section so OnProgress observes a
// strictly monotonic done sequence. Exported so the dispatch backend
// reports progress with exactly Run's semantics. The returned closure is
// always non-nil and safe to call whether or not OnProgress is set.
func ProgressReporter(opts Options, total int) func(label string) {
	done := 0
	var mu sync.Mutex
	return func(label string) {
		mu.Lock()
		done++
		if opts.OnProgress != nil {
			opts.OnProgress(done, total, label)
		}
		mu.Unlock()
	}
}

// JoinShardErrors folds per-shard failures into one error. Shards that
// never ran because the context was cancelled are represented by a single
// ctx.Err() (rather than one ShardError per skipped shard), so a cancelled
// 1000-shard sweep reports "context canceled" once, alongside any genuine
// shard failures. Exported so the dispatch backend reports failures with
// exactly Run's semantics.
func JoinShardErrors(ctx context.Context, shards []Shard, errs []error) error {
	var joined []error
	cancelled := false
	for i, err := range errs {
		if err == nil {
			continue
		}
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			cancelled = true
			continue
		}
		joined = append(joined, &ShardError{Index: i, Label: shards[i].Label, Err: err})
	}
	if cancelled {
		joined = append([]error{ctx.Err()}, joined...)
	}
	return errors.Join(joined...)
}

// RunShard runs one shard with panic isolation: a panicking shard yields
// an error carrying the panic value and stack instead of crashing the
// process. It is the single-shard execution primitive shared by Run's
// workers, the dispatch backend's local executors, and the remote worker
// process —
// a poisoned shard fails loudly wherever it runs, never tearing down the
// process that hosts it.
func RunShard(ctx context.Context, s Shard) (result any, err error) {
	defer func() {
		if p := recover(); p != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("panic: %v\n%s", p, buf)
		}
	}()
	return s.Run(ctx)
}
