package main

// End-to-end tests of the cdlab binary, kept to the flows that need a real
// process: exit codes and report files of the CLI itself, SIGKILL of a
// worker or of serve, a restart over on-disk state, and the SIGTERM drain.
// Everything else about the service runs in-process in the client and
// internal/service tests. Every serve binds 127.0.0.1:0 and the tests
// learn its port from the startup line; they sync by polling files and
// endpoints under a deadline, never by sleeping a fixed time.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"columndisturb/internal/service"
)

// cdlab is the binary TestMain builds once for every test.
var cdlab string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "cdlab-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	cdlab = filepath.Join(dir, "cdlab")
	code := 1
	if out, err := exec.Command("go", "build", "-o", cdlab, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building cdlab: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// deadline bounds every wait; a healthy run of any flow takes seconds.
const deadline = 2 * time.Minute

// proc is one background cdlab process with stdout and stderr in files.
type proc struct {
	cmd            *exec.Cmd
	stdout, stderr string
	done           chan struct{} // closed once the process has exited
}

// start launches cdlab with args in the background, logging to
// dir/name.out and dir/name.err; the test's cleanup kills it.
func start(t *testing.T, dir, name string, args ...string) *proc {
	t.Helper()
	p := &proc{
		cmd:    exec.Command(cdlab, args...),
		stdout: filepath.Join(dir, name+".out"),
		stderr: filepath.Join(dir, name+".err"),
		done:   make(chan struct{}),
	}
	create := func(path string) *os.File {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	p.cmd.Stdout, p.cmd.Stderr = create(p.stdout), create(p.stderr)
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { p.cmd.Wait(); close(p.done) }()
	t.Cleanup(func() { p.cmd.Process.Kill(); <-p.done })
	return p
}

// signal delivers sig and returns the exit code once the process exits.
func (p *proc) signal(t *testing.T, sig os.Signal) int {
	t.Helper()
	if err := p.cmd.Process.Signal(sig); err != nil {
		t.Fatal(err)
	}
	return p.exit(t)
}

// exit waits for the process and returns its exit code.
func (p *proc) exit(t *testing.T) int {
	t.Helper()
	select {
	case <-p.done:
		return p.cmd.ProcessState.ExitCode()
	case <-time.After(deadline):
		t.Fatalf("%s did not exit within %v; stderr:\n%s", p.cmd.Args, deadline, read(p.stderr))
		return 0
	}
}

// serveAddr waits for a serve process's startup line and returns the
// address it bound.
func serveAddr(t *testing.T, p *proc) string {
	t.Helper()
	const marker = "serving the /v1 experiment API on "
	waitFor(t, p, "serve to start listening", func() bool { return strings.Contains(read(p.stderr), marker) })
	_, rest, _ := strings.Cut(read(p.stderr), marker)
	addr, _, _ := strings.Cut(rest, " ")
	return addr
}

// waitFor polls cond until it holds, failing the test at the deadline or
// as soon as p (if not nil) exits first.
func waitFor(t *testing.T, p *proc, what string, cond func() bool) {
	t.Helper()
	for end := time.Now().Add(deadline); !cond(); time.Sleep(20 * time.Millisecond) {
		if p != nil {
			select {
			case <-p.done:
				if cond() {
					return
				}
				t.Fatalf("waiting for %s: %s exited; stderr:\n%s", what, p.cmd.Args, read(p.stderr))
			default:
			}
		}
		if time.Now().After(end) {
			t.Fatalf("waiting for %s: gave up after %v", what, deadline)
		}
	}
}

func read(path string) string {
	data, _ := os.ReadFile(path)
	return string(data)
}

// runCLI runs cdlab to completion and returns its exit code and output.
func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(cdlab, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), out.String(), errb.String()
}

// decodeEvents decodes a `run -json` stream line by line through the
// service's own decoder and checks each job's seq numbers are gap-free.
func decodeEvents(t *testing.T, stream string) []service.Event {
	t.Helper()
	var events []service.Event
	next := map[string]int{}
	sc := bufio.NewScanner(strings.NewReader(stream))
	for sc.Scan() {
		ev, err := service.DecodeEvent(sc.Bytes())
		if err != nil {
			t.Fatalf("event line %d: %v", len(events)+1, err)
		}
		if ev.Seq != next[ev.Job] {
			t.Fatalf("job %s: seq %d, want %d (gap or reorder)", ev.Job, ev.Seq, next[ev.Job])
		}
		next[ev.Job]++
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	return events
}

// checkGolden asserts dir holds exactly the reports whose SHA-256 sums
// internal/experiments/testdata/golden/small.sha256 locks.
func checkGolden(t *testing.T, dir string) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(read("../../internal/experiments/testdata/golden/small.sha256")), "\n")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(lines)-1 { // the first line is the schema header
		t.Fatalf("%s holds %d files, the golden file locks %d", dir, len(files), len(lines)-1)
	}
	for _, line := range lines[1:] {
		want, name, _ := strings.Cut(line, "  ")
		sum := sha256.Sum256([]byte(read(filepath.Join(dir, name))))
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: sha256 %s, golden %s", name, got, want)
		}
	}
}

// metric returns one sample's value from a serve's /v1/metrics export.
func metric(t *testing.T, addr, sample string) float64 {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, sample+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
	}
	t.Fatalf("metrics export has no %s sample:\n%s", sample, body)
	return 0
}

func TestUnknownIDExitsBeforeWork(t *testing.T) {
	out := filepath.Join(t.TempDir(), "out")
	code, _, stderr := runCLI(t, "run", "fig6", "no-such-experiment", "-o", out)
	if code != 2 || !strings.Contains(stderr, "no-such-experiment") {
		t.Fatalf("exit %d, stderr %q; want 2 naming the unknown ID", code, stderr)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("-o directory exists after a rejected request (stat: %v)", err)
	}
}

// TestStrayOperandsExit2: flag parsing stops at the first non-flag
// argument, so serve, worker and workers must refuse a stray operand with
// exit 2 instead of dropping every flag after it (a serve would then bind
// :8080 with no cache and run until signalled).
func TestStrayOperandsExit2(t *testing.T) {
	dir := t.TempDir()
	for name, args := range map[string][]string{
		"serve":   {"serve", "stray", "-addr", "127.0.0.1:0", "-cache-dir", filepath.Join(dir, "cache")},
		"worker":  {"worker", "stray", "-connect", "127.0.0.1:1"},
		"workers": {"workers", "stray", "-remote", "127.0.0.1:1"},
	} {
		p := start(t, dir, name, args...)
		code := p.exit(t)
		stderr := read(p.stderr)
		if code != 2 || !strings.Contains(stderr, "stray") || strings.Contains(stderr, "serving") {
			t.Errorf("cdlab %v: exit %d, stderr %q; want 2 naming the operand, no serving line", args, code, stderr)
		}
	}
}

// TestColdWarmSweep: a cold `run all` writes the golden reports, and a
// warm rerun over the same cache computes nothing and writes them again.
func TestColdWarmSweep(t *testing.T) {
	dir := t.TempDir()
	cache, cold, warm := filepath.Join(dir, "cache"), filepath.Join(dir, "cold"), filepath.Join(dir, "warm")
	if code, _, stderr := runCLI(t, "run", "all", "-j", "2", "-o", cold, "-cache-dir", cache); code != 0 {
		t.Fatalf("cold sweep: exit %d\n%s", code, stderr)
	}
	checkGolden(t, cold)

	code, stdout, stderr := runCLI(t, "run", "all", "-j", "2", "-o", warm, "-cache-dir", cache, "-json")
	if code != 0 {
		t.Fatalf("warm sweep: exit %d\n%s", code, stderr)
	}
	shards := 0
	for _, ev := range decodeEvents(t, stdout) {
		if ev.Cached != nil {
			shards++
			if !*ev.Cached {
				t.Fatalf("warm sweep recomputed shard %s", ev.Shard)
			}
		}
	}
	if shards == 0 || !strings.Contains(stderr, ", 0 misses") {
		t.Fatalf("warm sweep: %d shard events; stderr:\n%s", shards, stderr)
	}
	checkGolden(t, warm) // the golden count check makes warm ≡ cold
}

// TestWorkerKilledMidSweep: SIGKILL one of two workers under a scheduler
// that runs no shard itself; its leases requeue and the sweep still writes
// the golden reports. The scheduler requires a bearer token, so the same
// serve also shows a tokenless run is refused before any report exists.
func TestWorkerKilledMidSweep(t *testing.T) {
	const token = "e2e-secret"
	dir := t.TempDir()
	serve := start(t, dir, "serve", "serve", "-addr", "127.0.0.1:0", "-j", "2",
		"-no-local-shards", "-lease-ttl", "2s", "-auth-token", token)
	addr := serveAddr(t, serve)

	denied := filepath.Join(dir, "denied")
	code, _, stderr := runCLI(t, "run", "fig6", "-remote", addr, "-o", denied)
	if code == 0 || !strings.Contains(stderr, "bearer token") {
		t.Fatalf("tokenless run: exit %d, stderr %q; want a bearer-token refusal", code, stderr)
	}
	if _, err := os.Stat(denied); !os.IsNotExist(err) {
		t.Fatalf("tokenless run created its -o directory (stat: %v)", err)
	}

	w1 := start(t, dir, "w1", "worker", "-connect", addr, "-j", "2", "-name", "e2e-w1", "-token", token)
	start(t, dir, "w2", "worker", "-connect", addr, "-j", "2", "-name", "e2e-w2", "-token", token)
	out := filepath.Join(dir, "out")
	sweep := start(t, dir, "sweep", "run", "all", "-remote", addr, "-token", token, "-no-cache", "-json", "-o", out)
	// Which process registered as w1 is a race, so wait until both
	// dispatcher identities have completed shards: then the kill below
	// lands on a worker that is taking part.
	waitFor(t, sweep, "both workers to complete shards", func() bool {
		events := read(sweep.stdout)
		return strings.Contains(events, `"worker":"w1"`) && strings.Contains(events, `"worker":"w2"`)
	})
	if code, stdout, _ := runCLI(t, "workers", "-remote", addr); code != 0 ||
		!strings.Contains(stdout, "e2e-w1") || !strings.Contains(stdout, "e2e-w2") {
		t.Fatalf("workers listing: exit %d\n%s", code, stdout)
	}
	select {
	case <-sweep.done:
		t.Fatal("sweep finished before a worker could be killed")
	default:
	}
	w1.signal(t, syscall.SIGKILL)

	if code := sweep.exit(t); code != 0 {
		t.Fatalf("sweep after a worker kill: exit %d\n%s", code, read(sweep.stderr))
	}
	checkGolden(t, out)
	events := decodeEvents(t, read(sweep.stdout))
	for _, ev := range events {
		if ev.Type == service.EventShardDone && ev.Worker == "" {
			t.Fatalf("shard %s computed without a worker under -no-local-shards", ev.Shard)
		}
	}
	code, stdout, stderr := runCLI(t, "trace", events[0].Job, "-remote", addr)
	if code != 0 || !strings.Contains(stdout, "critical path:") {
		t.Fatalf("trace %s: exit %d\n%s%s", events[0].Job, code, stdout, stderr)
	}
}

// TestServeKilledRestartedAndDrained: SIGKILL serve mid-sweep, restart it
// on the same port and cache directory, and the client rides its
// reconnect loop to the golden reports while the restarted serve recovers
// the journaled jobs from the cache. SIGTERM then drains that serve, and
// the next start finds the clean-shutdown record.
func TestServeKilledRestartedAndDrained(t *testing.T) {
	dir := t.TempDir()
	cache, out := filepath.Join(dir, "cache"), filepath.Join(dir, "out")
	first := start(t, dir, "serve1", "serve", "-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", cache)
	addr := serveAddr(t, first)
	sweep := start(t, dir, "sweep", "run", "all", "-remote", addr, "-retries", "200", "-json", "-o", out)
	waitFor(t, sweep, "3 computed shards", func() bool {
		return strings.Count(read(sweep.stdout), `"cached":false`) >= 3
	})
	first.signal(t, syscall.SIGKILL)

	second := start(t, dir, "serve2", "serve", "-addr", addr, "-j", "2", "-cache-dir", cache)
	if got := serveAddr(t, second); got != addr {
		t.Fatalf("restarted serve bound %s, want %s", got, addr)
	}
	if code := sweep.exit(t); code != 0 {
		t.Fatalf("sweep across a serve restart: exit %d\n%s", code, read(sweep.stderr))
	}
	checkGolden(t, out)
	decodeEvents(t, read(sweep.stdout))
	if n := metric(t, addr, "cdlab_jobs_recovered_total"); n < 1 {
		t.Fatalf("cdlab_jobs_recovered_total = %g after a crash restart", n)
	}
	if n := metric(t, addr, `cdlab_shards_total{source="cache"}`); n < 1 {
		t.Fatalf("restarted serve served %g shards from the cache, want ≥ 1", n)
	}

	code := second.signal(t, syscall.SIGTERM)
	if log := read(second.stderr); code != 0 || !strings.Contains(log, "cdlab: clean shutdown complete") {
		t.Fatalf("SIGTERM drain: exit %d\n%s", code, log)
	}
	third := start(t, dir, "serve3", "serve", "-addr", "127.0.0.1:0", "-j", "2", "-cache-dir", cache)
	waitFor(t, third, "the clean-shutdown record", func() bool {
		return strings.Contains(read(third.stderr), "clean_shutdown=true")
	})
}
