package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"
)

// The host-speed probe is a fixed piece of work, independent of the program
// under test, that the benchmark runs between rounds of ops. On a shared
// machine the speed of a core moves by tens of percent within seconds, as
// neighbours load the caches and memory; the probe samples that speed, and
// every time metric is scaled by the nominal probe time over the probe time
// around it: wall times by the probe's wall time, CPU times by its CPU time,
// since a stalled vCPU stretches the one but not the other. A change to the
// program does not change the probe, so the scaled figures move only with
// the program.
//
// One probe unit runs on two goroutines at once (the workloads use two
// cores) and mixes a dependent walk over a 4 MiB table, hashed-map lookups,
// SHA-256 and transcendental math. It allocates nothing, and the collector
// is off while it runs, so the program's heap does not change its time.
const (
	probeWalkSteps = 6000
	probeMapReads  = 3000
	probeHashBytes = 8 << 10
	probeMath      = 3000
	// probeNominalS and probeNominalCPUS are one unit's wall and CPU time
	// on a quiet two-vCPU Xeon VM, so scaled figures read as seconds there.
	probeNominalS    = 0.00095
	probeNominalCPUS = 0.0019
)

var probeSink atomic.Uint64

const probeMask = 1<<20 - 1 // the walk table has 1<<20 slots

type probeTables struct {
	next []uint32          // a random cycle through every slot
	m    map[uint32]uint32 // 4096 of the walk's positions, as keys
	buf  []byte            // SHA-256 input
}

var (
	probeOnce sync.Once
	probeTab  probeTables
)

func probeInit() {
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(probeMask + 1)
	next := make([]uint32, len(perm))
	for i := range perm {
		next[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	m := make(map[uint32]uint32, 4096)
	for i := 0; i < 4096; i++ {
		m[uint32(perm[i])] = uint32(i)
	}
	buf := make([]byte, probeHashBytes)
	r.Read(buf)
	probeTab = probeTables{next: next, m: m, buf: buf}
}

// sample is the host speed one probe measured: the wall and the process CPU
// time of one unit.
type sample struct{ wall, cpu float64 }

// probe runs n probe units and returns one unit's mean wall and CPU time.
func probe(n int) sample {
	probeOnce.Do(probeInit)
	// Disabling the collector first waits out a collection the program
	// left running, which would otherwise share the cores with the probe.
	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	// Reading the whole walk table first brings it back into the caches the
	// program's last round may have evicted it from; the timed walk then
	// misses only where other tenants of the machine evicted it.
	var warm uint32
	for _, v := range probeTab.next {
		warm += v
	}
	probeSink.Add(uint64(warm))
	c0, start := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			probeSink.Add(probeUnits(n, uint32(g)*7919))
		}(g)
	}
	wg.Wait()
	return sample{time.Since(start).Seconds() / float64(n), (cpuSeconds() - c0) / float64(n)}
}

// scales are the factors that bring wall and CPU times measured between the
// probes a and b to the nominal host.
func scales(a, b sample) (wall, cpu float64) {
	return 2 * probeNominalS / (a.wall + b.wall), 2 * probeNominalCPUS / (a.cpu + b.cpu)
}

func probeUnits(n int, at uint32) uint64 {
	t := &probeTab
	var acc uint64
	x := 0.5
	for u := 0; u < n; u++ {
		for i := 0; i < probeWalkSteps; i++ {
			at = t.next[at]
		}
		for i := uint32(0); i < probeMapReads; i++ {
			acc += uint64(t.m[t.next[(at+i)&probeMask]])
		}
		off := at % (probeHashBytes / 2)
		sum := sha256.Sum256(t.buf[off : off+probeHashBytes/2])
		acc += binary.LittleEndian.Uint64(sum[:8])
		for i := 0; i < probeMath; i++ {
			x = math.Exp(-x) + math.Log1p(x)
		}
	}
	return acc + uint64(at) + math.Float64bits(x)
}
