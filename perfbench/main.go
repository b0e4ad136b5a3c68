// Command perfbench is the repository's end-to-end benchmark. One run sets
// up one named workload, measures closed-loop ops for a fixed time, checks
// every report against a SHA-256 reference and every op's work counts
// against the run's first op, and prints its metrics as the last line of
// standard output:
//
//	bash perfbench/run.sh --workload sweep-cold --seed 1 --seconds 10 --trace 0
//
// With -trace 0 the run prints the end-to-end metrics, every time scaled by
// the host-speed probe of probe.go. With -trace 1 it measures untraced ops
// first, then the same ops with timing wrappers around each layer's public
// functions, and prints the per-layer metrics. README.md lists the
// workloads and maps every layer metric to the end-to-end metric it should
// move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a timed run sets its workload up; setup_s
// is the median, and the last set-up's state serves the timed ops. Each
// set-up is scaled by probes of setupProbeUnits units before and after it.
const (
	setupRepeats    = 3
	setupProbeUnits = 50
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 0, "workload seed; it picks the experiment seeds")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics from a traced run")
	root := flag.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	flag.Parse()

	sp, ok := specs[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", *trace)
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	nproc := runtime.NumCPU()
	if sp.workers > nproc || sp.clients > nproc {
		return fmt.Errorf("refusing to run %s: it needs %d shard workers and %d clients, and nproc is %d",
			*name, sp.workers, sp.clients, nproc)
	}

	scratch := filepath.Join(*root, ".bench_build")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(scratch, "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)

	printLine("meta", map[string]any{
		"workload":    *name,
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"git_rev":     gitRev(*root),
		"go":          runtime.Version(),
		"nproc":       nproc,
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"workers":     sp.workers,
		"clients":     sp.clients,
		"probe_units": sp.probe,
	})

	probe(1) // builds the probe's tables before anything is timed
	tr := newLayers()
	w, err := sp.make(env{dir: work, seed: *seed, workers: sp.workers, tr: tr})
	if err != nil {
		return err
	}
	defer w.close()
	b := &bench{w: w, clients: sp.clients, units: sp.probe, tr: tr, guard: map[string]counts{}, book: map[string]string{}}
	ctx := context.Background()
	window := time.Duration(*seconds * float64(time.Second))
	var metrics map[string]metric
	if *trace == 0 {
		metrics, err = b.timed(ctx, window)
	} else {
		metrics, err = b.traced(ctx, window)
	}
	if err != nil {
		return err
	}

	printLine("counts", b.guard)
	printLine("hashes", b.book)
	b.info["fail_ratio"] = float64(b.failed) / float64(b.attempted)
	printLine("info", b.info)
	for _, p := range b.problems {
		fmt.Fprintln(os.Stderr, "perfbench: invalid run:", p)
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0 && len(b.problems) == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opOut is what one op produced: a SHA-256 per report and its work counts.
type opOut struct {
	hashes map[string]string // hashKey -> hex SHA-256 of the report text
	counts counts
}

// counts is the work one op did. Every op of a phase must repeat the
// phase's first op exactly: a run whose counts drift did different work,
// so its times mean nothing.
type counts struct {
	Shards   int64 `json:"shards"`
	Hits     int64 `json:"cache_hits"`
	DiskHits int64 `json:"cache_disk_hits"`
	Misses   int64 `json:"cache_misses"`
	Puts     int64 `json:"cache_puts"`
	Requests int64 `json:"http_requests"`
}

// bench drives one workload through its set-up and measured windows and
// keeps the correctness ledger: report hashes, work counts, failures.
type bench struct {
	w       workload
	clients int
	units   int // probe units run after each round
	tr      *layers

	mu        sync.Mutex
	book      map[string]string // hashKey -> first hash seen (priming sweep or first op)
	guard     map[string]counts // phase -> first op's counts
	attempted int
	failed    int
	problems  []string // run-level violations
	info      map[string]float64
}

// check records one op: it fails on an error, on a report whose hash
// differs from the first one seen for its (experiment, profile, seed), and,
// for a measured phase, on counts that differ from the phase's first op.
func (b *bench) check(phase string, out opOut, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	var bad []string
	if err != nil {
		bad = append(bad, err.Error())
	}
	for k, h := range out.hashes {
		if ref, ok := b.book[k]; !ok {
			b.book[k] = h
		} else if ref != h {
			bad = append(bad, fmt.Sprintf("report %s hashes to %.12s, want %.12s", k, h, ref))
		}
	}
	if err == nil && phase != "" {
		if ref, ok := b.guard[phase]; !ok {
			b.guard[phase] = out.counts
		} else if ref != out.counts {
			bad = append(bad, fmt.Sprintf("%s counts %+v, want %+v", phase, out.counts, ref))
		}
	}
	if len(bad) > 0 {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", strings.Join(bad, "; "))
	}
}

func (b *bench) problem(err error) {
	if err != nil {
		b.mu.Lock()
		b.problems = append(b.problems, err.Error())
		b.mu.Unlock()
	}
}

// setup runs the workload's k-th set-up between two probes and checks the
// reports it primed. It returns the set-up's wall time, raw and scaled to
// the probe's nominal host speed.
func (b *bench) setup(ctx context.Context, k int) (raw, scaled float64, err error) {
	before := probe(setupProbeUnits)
	start := time.Now()
	outs, err := b.w.setup(ctx, k)
	raw = time.Since(start).Seconds()
	if err != nil {
		return 0, 0, fmt.Errorf("set-up: %w", err)
	}
	wall, _ := scales(before, probe(setupProbeUnits))
	for _, o := range outs {
		b.check("", o, nil)
	}
	return raw, raw * wall, nil
}

// round is one op from every caller, started together; the host-speed
// probe runs after each round.
type round struct {
	walls []float64 // each caller's op wall time, seconds
	wall  float64   // from the round's start to the end of its last op
	cpu   float64   // process CPU seconds over the round
	// scale and cpuScale bring wall and CPU times to the nominal host, from
	// the probes before and after the round.
	scale, cpuScale float64
}

// loop runs rounds until d has elapsed: every caller runs one op, each
// caller's next op starts only after the whole round returned, and the
// probe runs in the gap.
func (b *bench) loop(ctx context.Context, d time.Duration, phase string) []round {
	var rounds []round
	before := probe(b.units)
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		r := round{walls: make([]float64, b.clients)}
		c0, t0 := cpuSeconds(), time.Now()
		var wg sync.WaitGroup
		for c := range r.walls {
			wg.Add(1)
			go func(c, i int) {
				defer wg.Done()
				t := time.Now()
				out, err := b.w.op(ctx, c, i)
				r.walls[c] = time.Since(t).Seconds()
				b.check(phase, out, err)
			}(c, i)
		}
		wg.Wait()
		r.wall, r.cpu = time.Since(t0).Seconds(), cpuSeconds()-c0
		after := probe(b.units)
		r.scale, r.cpuScale = scales(before, after)
		before = after
		rounds = append(rounds, r)
	}
	return rounds
}

// window is one measured window's readings.
type window struct {
	rounds  []round
	ops     float64
	allocMB float64 // Go heap allocated over the window
	peakMB  float64 // peak resident set over the window
}

// measure runs one window of rounds, traced when traced is set, and checks
// what the window did as a whole.
func (b *bench) measure(ctx context.Context, d time.Duration, phase string, traced bool) (window, error) {
	done, err := b.w.window(ctx, traced)
	if err != nil {
		return window{}, err
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return window{}, err
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.tr.on.Store(traced)
	rounds := b.loop(ctx, d, phase)
	b.tr.on.Store(false)
	runtime.ReadMemStats(&ms1)
	peak, err := peakRSSMB()
	if err != nil {
		return window{}, err
	}
	ops := len(rounds) * b.clients
	b.problem(done(ops))
	return window{rounds, float64(ops), float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20), peak}, nil
}

// walls lists the window's op wall times, scaled by their round's probe
// when scaled is set.
func (w window) walls(scaled bool) []float64 {
	var out []float64
	for _, r := range w.rounds {
		for _, t := range r.walls {
			if scaled {
				t *= r.scale
			}
			out = append(out, t)
		}
	}
	return out
}

// busy sums the window's round wall times and CPU times, each scaled by
// its round's probes.
func (w window) busy() (wall, cpu float64) {
	for _, r := range w.rounds {
		wall += r.wall * r.scale
		cpu += r.cpu * r.cpuScale
	}
	return wall, cpu
}

// timed is a -trace 0 run: set-up repeated setupRepeats times, then one
// untraced window, reported as the end-to-end metrics. Every time is scaled
// to the probe's nominal host speed; the raw figures go on the info line.
func (b *bench) timed(ctx context.Context, d time.Duration) (map[string]metric, error) {
	raws := make([]float64, setupRepeats)
	setups := make([]float64, setupRepeats)
	for k := range setups {
		var err error
		if raws[k], setups[k], err = b.setup(ctx, k); err != nil {
			return nil, err
		}
	}
	w, err := b.measure(ctx, d, "timed", false)
	if err != nil {
		return nil, err
	}
	wall, cpu := w.busy()
	var scale, cpuScale []float64
	for _, r := range w.rounds {
		scale, cpuScale = append(scale, r.scale), append(cpuScale, r.cpuScale)
	}
	b.info = map[string]float64{
		"ops":           w.ops,
		"raw_setup_s":   median(raws),
		"raw_op_p50_s":  median(w.walls(false)),
		"scale_p50":     median(scale),
		"cpu_scale_p50": median(cpuScale),
	}
	if w.ops >= 100 {
		b.info["op_p90_s"] = quantile(w.walls(true), 0.9)
	}
	return map[string]metric{
		"setup_s":         {median(setups), "s"},
		"op_p50_s":        {median(w.walls(true)), "s"},
		"ops_per_s":       {w.ops / wall, "1/s"},
		"cpu_s_per_op":    {cpu / w.ops, "s"},
		"peak_rss_mb":     {w.peakMB, "MB"},
		"alloc_mb_per_op": {w.allocMB / w.ops, "MB"},
	}, nil
}

// traced is a -trace 1 run: one set-up, an untraced window of half the
// time, then a traced window of the other half whose ops must reproduce the
// untraced ops' report hashes. Per-layer readings are per traced op.
func (b *bench) traced(ctx context.Context, d time.Duration) (map[string]metric, error) {
	if _, _, err := b.setup(ctx, 0); err != nil {
		return nil, err
	}
	plain, err := b.measure(ctx, d/2, "timed", false)
	if err != nil {
		return nil, err
	}
	w, err := b.measure(ctx, d/2, "traced", true)
	if err != nil {
		return nil, err
	}
	b.info = map[string]float64{"ops": w.ops, "untraced_ops": plain.ops}
	out := make(map[string]metric)
	for _, l := range layerMetrics() {
		out[l.name] = metric{b.tr.get(l.name) / w.ops, l.unit}
	}
	out["unattributed_s"] = metric{mean(w.walls(false)) - b.tr.get(attributed)/w.ops, "s"}
	out["trace.overhead_s"] = metric{median(w.walls(true)) - median(plain.walls(true)), "s"}
	return out, nil
}

func printLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("perfbench %s %s\n", tag, b)
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile interpolates linearly between the closest ranks.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func mean(v []float64) float64 {
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// resetPeakRSS sets the process's peak resident set to its current one
// (Linux clear_refs), so that a window's peak excludes the set-up's.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set since the last reset.
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// gitRev is the checkout's commit, or "unknown" when the checkout is not
// the root of a git work tree.
func gitRev(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
