package dram

import (
	"sync"
	"testing"
)

// Device and Bank are documented as not goroutine-safe: the parallel
// experiment engine's contract is per-shard confinement — every shard
// constructs and drives its own Device. These tests pin down that contract
// under -race: confined per-goroutine devices race-detector-clean, and a
// device's behavior is independent of which goroutine runs it.

// pressAndCount drives one full press-then-read cycle on a private device
// and returns the total bitflip count — the workload one experiment shard
// would run. It returns rather than fails on error so worker goroutines
// can surface problems to the test goroutine (t.Fatal must not be called
// off the test goroutine).
func pressAndCount(seed uint64) (int, error) {
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), seed)
	if err != nil {
		return 0, err
	}
	for row := 0; row < g.RowsPerBank(); row++ {
		if err := d.WriteRowPattern(0, row, PatFF); err != nil {
			return 0, err
		}
	}
	agg := g.RowsPerSubarray + g.RowsPerSubarray/2
	if err := d.WriteRowPattern(0, agg, Pat00); err != nil {
		return 0, err
	}
	// 569 whole press cycles fit in 40 ms.
	if err := d.Hammer(0, agg, 569, 70_200, 14); err != nil {
		return 0, err
	}
	want := make([]uint64, g.WordsPerRow())
	FillWords(want, PatFF)
	total := 0
	for row := 0; row < g.RowsPerBank(); row++ {
		if row == agg {
			continue
		}
		data, err := d.ReadRow(0, row)
		if err != nil {
			return 0, err
		}
		total += CountMismatches(data, want)
	}
	return total, nil
}

// TestConfinedDevicesConcurrently runs many goroutines, each confined to
// its own Device, half of them sharing a seed. Under -race this verifies
// that separate devices share no hidden mutable state, and the shared-seed
// pairs verify that results do not depend on goroutine scheduling.
func TestConfinedDevicesConcurrently(t *testing.T) {
	const workers = 8
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		go func() {
			defer wg.Done()
			// Workers w and w+workers/2 share a seed (w mod workers/2).
			counts[w], errs[w] = pressAndCount(uint64(w%(workers/2)) + 1)
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for w := 0; w < workers/2; w++ {
		if counts[w] != counts[w+workers/2] {
			t.Errorf("seed %d: goroutine results diverge: %d vs %d",
				w%(workers/2)+1, counts[w], counts[w+workers/2])
		}
	}
	// The serial reference must match the concurrent runs exactly.
	for w := 0; w < workers; w++ {
		want, err := pressAndCount(uint64(w%(workers/2)) + 1)
		if err != nil {
			t.Fatal(err)
		}
		if counts[w] != want {
			t.Errorf("worker %d: concurrent %d != serial %d", w, counts[w], want)
		}
	}
}

// TestDeviceConstructionDeterministic guards the property per-shard
// confinement relies on: building the same device twice yields identical
// fault behavior, so shards can cheaply rebuild rather than share.
func TestDeviceConstructionDeterministic(t *testing.T) {
	a, err := pressAndCount(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := pressAndCount(7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same-seed devices disagree: %d vs %d", a, b)
	}
	if a == 0 {
		t.Fatal("press produced no bitflips; the workload is not exercising the fault model")
	}
	if c, err := pressAndCount(8); err != nil {
		t.Fatal(err)
	} else if c == a {
		t.Logf("different seeds produced equal counts (%d); suspicious but not fatal", a)
	}
}
