package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"columndisturb/internal/sim/rng"
)

func intShards(n int, f func(i int) (any, error)) []Shard {
	shards := make([]Shard, n)
	for i := range shards {
		i := i
		shards[i] = Shard{Label: fmt.Sprintf("s%d", i), Run: func(context.Context) (any, error) { return f(i) }}
	}
	return shards
}

func TestOrderedCollection(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		out, err := Run(context.Background(), intShards(100, func(i int) (any, error) { return i * i, nil }),
			Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range out {
			if v.(int) != i*i {
				t.Fatalf("workers=%d: out[%d] = %v, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestEmptyAndSingleShard(t *testing.T) {
	out, err := Run(context.Background(), nil, Options{Workers: 4})
	if err != nil || len(out) != 0 {
		t.Fatalf("empty run: %v %v", out, err)
	}
	out, err = Run(context.Background(), intShards(1, func(i int) (any, error) { return "one", nil }), Options{Workers: 8})
	if err != nil || out[0].(string) != "one" {
		t.Fatalf("single shard: %v %v", out, err)
	}
}

// TestPoolHammer drives the pool with many tiny shards; run under -race it
// checks the ordered-collection slices for data races.
func TestPoolHammer(t *testing.T) {
	const n = 2000
	var ran atomic.Int64
	out, err := Run(context.Background(), intShards(n, func(i int) (any, error) {
		ran.Add(1)
		// Per-shard keyed randomness, as real experiment shards use it.
		return rng.New(rng.Key(uint64(i))).Uint64(), nil
	}), Options{Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if ran.Load() != n {
		t.Fatalf("ran %d shards, want %d", ran.Load(), n)
	}
	for i, v := range out {
		if want := rng.New(rng.Key(uint64(i))).Uint64(); v.(uint64) != want {
			t.Fatalf("out[%d] = %v, want %v", i, v, want)
		}
	}
}

// TestParallelMatchesSerial is the engine-level determinism contract: for
// shards whose randomness is keyed per shard, any worker count yields the
// same ordered results.
func TestParallelMatchesSerial(t *testing.T) {
	mk := func() []Shard {
		return intShards(64, func(i int) (any, error) {
			r := rng.New(rng.Key(42, uint64(i)))
			sum := 0.0
			for k := 0; k < 100; k++ {
				sum += r.Float64()
			}
			return sum, nil
		})
	}
	serial, err := Run(context.Background(), mk(), Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Run(context.Background(), mk(), Options{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		if serial[i].(float64) != parallel[i].(float64) {
			t.Fatalf("shard %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

func TestPanicIsolation(t *testing.T) {
	out, err := Run(context.Background(), intShards(10, func(i int) (any, error) {
		if i == 3 {
			panic("poisoned shard")
		}
		return i, nil
	}), Options{Workers: 4})
	if err == nil {
		t.Fatal("panic not reported")
	}
	if !strings.Contains(err.Error(), "poisoned shard") || !strings.Contains(err.Error(), "shard 3 (s3)") {
		t.Fatalf("panic error lacks identity/value: %v", err)
	}
	// The other shards must still have completed.
	for i, v := range out {
		if i == 3 {
			if v != nil {
				t.Fatalf("panicked shard produced a value: %v", v)
			}
			continue
		}
		if v.(int) != i {
			t.Fatalf("shard %d lost after sibling panic: %v", i, v)
		}
	}
}

func TestErrorsJoinAndWrap(t *testing.T) {
	sentinel := errors.New("sentinel")
	_, err := Run(context.Background(), intShards(8, func(i int) (any, error) {
		if i%2 == 1 {
			return nil, fmt.Errorf("unit %d: %w", i, sentinel)
		}
		return i, nil
	}), Options{Workers: 3})
	if err == nil {
		t.Fatal("errors dropped")
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("joined error does not wrap the cause: %v", err)
	}
	var se *ShardError
	if !errors.As(err, &se) {
		t.Fatalf("joined error carries no *ShardError: %v", err)
	}
	for i := 0; i < 8; i++ {
		want := i%2 == 1
		got := strings.Contains(err.Error(), fmt.Sprintf("shard %d ", i))
		if want != got {
			t.Fatalf("shard %d failure presence = %v, want %v: %v", i, got, want, err)
		}
	}
}

func TestWorkerDefaultAndClamp(t *testing.T) {
	// Workers<=0 and workers>len(shards) must both still run everything.
	for _, w := range []int{0, -3, 1000} {
		out, err := Run(context.Background(), intShards(5, func(i int) (any, error) { return i, nil }), Options{Workers: w})
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if len(out) != 5 {
			t.Fatalf("workers=%d: %d results", w, len(out))
		}
	}
}

// TestCancellationStopsScheduling is the engine's cancellation contract:
// cancelling mid-sweep stops handing out new shards, the Run call reports
// context.Canceled, and skipped shards carry no results.
func TestCancellationStopsScheduling(t *testing.T) {
	const n, workers = 50, 2
	started := make(chan int, n)
	release := make(chan struct{})
	var ran atomic.Int64
	shards := make([]Shard, n)
	for i := range shards {
		i := i
		shards[i] = Shard{Label: fmt.Sprintf("block%d", i), Run: func(ctx context.Context) (any, error) {
			ran.Add(1)
			started <- i
			select {
			case <-release:
			case <-ctx.Done():
			}
			return i, nil
		}}
	}

	ctx, cancel := context.WithCancel(context.Background())
	var runErr error
	doneRun := make(chan struct{})
	out := []any(nil)
	go func() {
		defer close(doneRun)
		out, runErr = Run(ctx, shards, Options{Workers: workers})
	}()

	// Wait until both workers hold a shard, then cancel and unblock them.
	<-started
	<-started
	cancel()
	close(release)
	<-doneRun

	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", runErr)
	}
	// Only the two in-flight shards may have started: every later claim
	// sees the cancelled context before running its shard.
	if got := ran.Load(); got != workers {
		t.Fatalf("%d shards ran, want %d (the in-flight ones)", got, workers)
	}
	nonNil := 0
	for _, v := range out {
		if v != nil {
			nonNil++
		}
	}
	if nonNil != workers {
		t.Fatalf("%d results materialized, want %d", nonNil, workers)
	}
}

// TestShardObservesContext checks the context handed to Shard.Run is the
// caller's, so long shards can return early after cancellation.
func TestShardObservesContext(t *testing.T) {
	type ctxKey struct{}
	ctx := context.WithValue(context.Background(), ctxKey{}, "marker")
	out, err := Run(ctx, []Shard{{Label: "probe", Run: func(ctx context.Context) (any, error) {
		return ctx.Value(ctxKey{}), nil
	}}}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != "marker" {
		t.Fatalf("shard saw context value %v, want marker", out[0])
	}
}
