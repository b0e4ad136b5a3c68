package engine_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"columndisturb/internal/dispatch"
	"columndisturb/internal/engine"
)

// TestSharedPoolConcurrentRuns submits several Run calls to one shared
// executor set (a dispatch.Dispatcher, the backend every service job's
// shards run on) and checks that each gets its own results in order and
// that the number of shards executing at once never exceeds the worker
// count.
func TestSharedPoolConcurrentRuns(t *testing.T) {
	const workers = 3
	pool := dispatch.New(dispatch.Options{LocalWorkers: workers, LeaseTTL: time.Second})
	defer pool.Close()

	var inFlight, peak atomic.Int64
	mkShards := func(base int) []engine.Shard {
		shards := make([]engine.Shard, 40)
		for i := range shards {
			v := base + i
			shards[i] = engine.Shard{Label: "s", Run: func(context.Context) (any, error) {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(100 * time.Microsecond)
				inFlight.Add(-1)
				return v, nil
			}}
		}
		return shards
	}

	var wg sync.WaitGroup
	results := make([][]any, 4)
	errs := make([]error, 4)
	for j := 0; j < 4; j++ {
		j := j
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[j], errs[j] = pool.Run(context.Background(), mkShards(j*1000), false)
		}()
	}
	wg.Wait()

	for j := 0; j < 4; j++ {
		if errs[j] != nil {
			t.Fatalf("job %d: %v", j, errs[j])
		}
		for i, v := range results[j] {
			if v.(int) != j*1000+i {
				t.Fatalf("job %d out[%d] = %v, want %d", j, i, v, j*1000+i)
			}
		}
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", p, workers)
	}
}
