// Command cdlab runs the ColumnDisturb reproduction experiments: it can
// list the catalog of simulated DRAM modules, enumerate the paper's tables
// and figures, and regenerate any of them — locally or against a running
// `cdlab serve` process — through the typed Request/Profile/Runner API.
//
// A run is one Request: experiment IDs, a named configuration profile
// (-profile small|full|..., see `cdlab profiles`), per-run overrides
// (-set key=value, repeatable), and execution options. Locally the request
// executes on one shared shard dispatcher with optional result caching;
// with -remote it is submitted to a server over the /v1 HTTP API and the
// report comes back byte-identical to the same request run locally —
// config resolution is shared, so both sides even agree on cache keys.
// -json exposes the service's versioned JSONL event stream either way.
//
// Usage:
//
//	cdlab catalog                             # Table 1's chip population
//	cdlab list                                # every reproducible artifact
//	cdlab profiles                            # named profiles + override keys
//	cdlab run <id>...|all [flags]             # regenerate one or more artifacts
//	cdlab serve -addr :8080 [flags]           # HTTP experiment service (/v1)
//	cdlab worker -connect addr [flags]        # remote shard executor for a serve
//	cdlab workers -remote addr                # list a serve's attached workers
//	cdlab trace <job> -remote addr            # shard-span timeline of one job
//
// Run flags: -profile p, -set k=v (repeatable), -remote addr, -token t,
// -retries N, -j N, -o dir, -progress, -json, -cache-dir d,
// -cache-entries N, -cache-bytes N, -no-cache.
// Serve flags: -addr, -j, -max-active, -cache-dir, -cache-entries,
// -cache-bytes, -wal, -no-wal, -auth-token, -no-local-shards, -lease-ttl,
// -retain, -log-level, -pprof.
// Worker flags: -connect addr, -token t, -j N, -name s, -log-level.
//
// Durability: with -cache-dir (or an explicit -wal dir) a serve process
// keeps a write-ahead job journal next to the cache. A submission is
// acknowledged only after it is durable; if the process crashes — even
// SIGKILL mid-run — the next serve on the same directories replays the
// journal, re-runs interrupted jobs under their original IDs (settled
// shards return as cache hits), and reconnecting clients resume their
// event streams where they left off, ending with byte-identical reports.
// SIGTERM/SIGINT trigger a graceful shutdown instead: in-flight work is
// suspended, the WAL is fsynced, and a clean-shutdown record lets the
// next start skip crash scans. -auth-token (or CDLAB_AUTH_TOKEN) gates
// every mutating /v1 verb behind a bearer token; `cdlab run -remote` and
// `cdlab worker -connect` pass it with -token (or CDLAB_TOKEN). Reads —
// reports, event streams, /v1/metrics — stay open.
//
// Observability: a serve process exports Prometheus-text metrics at
// GET /v1/metrics, per-job span records at GET /v1/jobs/<id>/trace (the
// artifact `cdlab trace` renders, with per-worker utilization and the
// job's critical path), and — with -pprof — the net/http/pprof profiles
// under /debug/pprof/. Serve and worker log structured lines (log/slog)
// to stderr at the -log-level threshold.
//
// A serve process is a distributed scheduler: any number of `cdlab worker
// -connect` processes (same binary, any machine) register with it and
// lease shards over the /v1 worker API; results are reassembled in
// canonical shard order, so a distributed run's reports are byte-identical
// to a serial local run. Workers that die mid-shard are detected by missed
// heartbeats and their shards requeue transparently; the shard-result
// cache stays server-side, so a warm re-run recomputes nothing no matter
// where the cold run's shards executed.
//
// Exit status: 0 on success, 1 when any experiment fails (a multi-ID
// sweep keeps going and reports every failure), 2 on usage errors —
// including any unknown experiment ID, which is rejected up front before
// any work starts.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"columndisturb"
	"columndisturb/client"
	"columndisturb/internal/obs"
	"columndisturb/internal/service"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	if len(args) < 1 {
		usage()
		return 2
	}
	switch args[0] {
	case "catalog":
		catalog()
		return 0
	case "list":
		list()
		return 0
	case "profiles":
		profiles()
		return 0
	case "run":
		return runExperiments(args[1:])
	case "serve":
		return serve(args[1:])
	case "worker":
		return worker(args[1:])
	case "workers":
		return workers(args[1:])
	case "trace":
		return trace(args[1:])
	default:
		usage()
		return 2
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: cdlab catalog
       cdlab list
       cdlab profiles
       cdlab run <id>...|all [-profile p] [-set k=v]... [-remote addr] [-token t]
                 [-j N] [-progress] [-json] [-o dir] [-cache-dir d] [-cache-entries N]
                 [-cache-bytes N] [-no-cache]
       cdlab serve [-addr a] [-j N] [-max-active N] [-cache-dir d] [-cache-entries N]
                 [-cache-bytes N] [-wal d] [-no-wal] [-auth-token t] [-no-local-shards]
                 [-lease-ttl d] [-retain N] [-log-level l] [-pprof]
       cdlab worker -connect addr [-token t] [-j N] [-name s] [-log-level l]
       cdlab workers -remote addr
       cdlab trace <job> -remote addr`)
}

func catalog() {
	fmt.Printf("%-6s %-10s %-5s %-6s %-8s %-7s %s\n",
		"ID", "Mfr", "Type", "Chips", "Die Rev.", "Density", "Org")
	for _, c := range columndisturb.Catalog() {
		fmt.Printf("%-6s %-10s %-5s %-6d %-8s %-7s %s\n",
			c.ID, c.Manufacturer, c.Type, c.Chips, orNA(c.DieRevision), orNA(c.Density), orNA(c.Org))
	}
}

func orNA(s string) string {
	if s == "" {
		return "N/A"
	}
	return s
}

func list() {
	for _, e := range columndisturb.ListExperiments() {
		fmt.Printf("%-18s %-28s %s\n", e.ID, e.Paper, e.Title)
	}
}

func profiles() {
	fmt.Println("profiles (select with `cdlab run -profile <name>`):")
	for _, p := range columndisturb.Profiles() {
		fmt.Printf("  %-10s %s\n", p.Name, p.Description)
	}
	fmt.Println("\noverride keys (apply with `cdlab run -set key=value`):")
	for _, k := range columndisturb.OverrideKeys() {
		key, doc, _ := strings.Cut(k, "\t")
		fmt.Printf("  %-22s %s\n", key, doc)
	}
}

// kvFlags collects repeatable -set key=value flags.
type kvFlags map[string]string

func (f kvFlags) String() string {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + f[k]
	}
	return strings.Join(parts, ",")
}

func (f kvFlags) Set(s string) error {
	k, v, ok := strings.Cut(s, "=")
	if !ok || k == "" {
		return fmt.Errorf("want key=value, got %q", s)
	}
	f[k] = v
	return nil
}

// eventPrinter serializes the runner's event subscription onto the CLI's
// two channels: raw JSONL on stdout (-json) and human shard progress on
// stderr (-progress).
func eventPrinter(jsonOut, progress bool) func(columndisturb.Event) {
	var mu sync.Mutex
	return func(ev columndisturb.Event) {
		mu.Lock()
		defer mu.Unlock()
		if jsonOut {
			os.Stdout.Write(ev.EncodeJSONL())
		}
		if progress && ev.Type == columndisturb.EventShardDone {
			suffix := ""
			if ev.Cached != nil && *ev.Cached {
				suffix = " (cached)"
			}
			fmt.Fprintf(os.Stderr, "cdlab: %s [%d/%d] %s%s\n", ev.Experiment, ev.Done, ev.Total, ev.Shard, suffix)
		}
	}
}

func runExperiments(args []string) int {
	// Leading non-flag arguments are experiment IDs: `run fig6 table1 -j 4`.
	var ids []string
	rest := args
	for len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		ids = append(ids, rest[0])
		rest = rest[1:]
	}
	if len(ids) == 0 {
		usage()
		return 2
	}

	overrides := kvFlags{}
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	profile := fs.String("profile", "", "named configuration profile (default small; see `cdlab profiles`)")
	fs.Var(overrides, "set", "configuration override `key=value` (repeatable; see `cdlab profiles`)")
	remote := fs.String("remote", "", "run against a `cdlab serve` server at this address instead of locally")
	token := fs.String("token", "", "bearer token for a server started with -auth-token (default $CDLAB_TOKEN)")
	retries := fs.Int("retries", 0, "consecutive fruitless reconnect attempts tolerated per event stream (0 = default of 5; raise to ride through a server restart)")
	outDir := fs.String("o", "", "write each result to <dir>/<id>.txt instead of stdout")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker bound for the local shared pool (1 = serial; ignored with -remote)")
	progress := fs.Bool("progress", false, "report per-shard progress on stderr")
	jsonOut := fs.Bool("json", false, "stream the service's JSONL events on stdout (reports go to -o or are suppressed)")
	cacheDir := fs.String("cache-dir", "", "enable the shard-result cache, persisted in this directory (local only)")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory cache capacity in shard results (0 = default)")
	cacheBytes := fs.Int64("cache-bytes", 0, "per-level cache capacity in payload bytes (0 = unbounded)")
	noCache := fs.Bool("no-cache", false, "bypass the shard-result cache for this run")
	if err := fs.Parse(rest); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h: the flag set already printed its defaults
		}
		return 2
	}
	if fs.NArg() > 0 {
		// flag.Parse stops at the first non-flag operand; anything left
		// over would be a silently dropped experiment ID.
		fmt.Fprintf(os.Stderr, "cdlab: unexpected arguments after flags: %s (experiment IDs go before flags)\n",
			strings.Join(fs.Args(), " "))
		return 2
	}
	if *workers < 1 {
		fmt.Fprintln(os.Stderr, "cdlab: -j must be at least 1")
		return 2
	}

	// `all` expands to the catalog and cannot be mixed with explicit IDs.
	for _, id := range ids {
		if id == "all" && len(ids) > 1 {
			fmt.Fprintln(os.Stderr, "cdlab: `all` cannot be combined with explicit experiment IDs")
			return 2
		}
	}

	// Build the runner: local dispatcher execution, or the /v1 client.
	var runner columndisturb.Runner
	if *remote != "" {
		if *cacheDir != "" || *cacheEntries != 0 || *cacheBytes != 0 {
			fmt.Fprintln(os.Stderr, "cdlab: -cache-dir/-cache-entries/-cache-bytes configure the local cache; with -remote the server owns the cache (see `cdlab serve`)")
			return 2
		}
		if *token == "" {
			*token = os.Getenv("CDLAB_TOKEN")
		}
		c, err := client.New(*remote, client.Options{AuthToken: *token, StreamRetries: *retries})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdlab:", err)
			return 2
		}
		runner = c
	} else {
		local, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
			Workers:       *workers,
			CacheDir:      *cacheDir,
			CacheEntries:  *cacheEntries,
			CacheMaxBytes: *cacheBytes,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdlab:", err)
			return 1
		}
		defer local.Close()
		runner = local
	}

	ctx := context.Background()
	if ids[0] == "all" {
		known, err := runner.Experiments(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cdlab:", err)
			return 1
		}
		ids = ids[:0]
		for _, e := range known {
			ids = append(ids, e.ID)
		}
	}

	if *jsonOut || *progress {
		stop := runner.Subscribe(eventPrinter(*jsonOut, *progress))
		defer stop()
	}

	res, runErr := runner.Run(ctx, columndisturb.Request{
		Experiments: ids,
		Profile:     *profile,
		Overrides:   overrides,
		NoCache:     *noCache,
	})
	if res == nil {
		// Whole-request failure: nothing ran. Both runners reject unknown
		// IDs before any work starts, which is a usage error.
		fmt.Fprintln(os.Stderr, "cdlab:", runErr)
		var unknown *columndisturb.UnknownExperimentError
		if errors.As(runErr, &unknown) {
			return 2
		}
		return 1
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "cdlab:", err)
			return 1
		}
	}

	// Human status lines go to stderr in -json mode to keep stdout pure
	// JSONL.
	human := os.Stdout
	if *jsonOut {
		human = os.Stderr
	}
	failed := 0
	for i, id := range ids {
		if err := res.Errors[i]; err != nil {
			// Keep sweeping: one broken artifact must not hide the rest,
			// but the process still exits non-zero.
			fmt.Fprintf(os.Stderr, "cdlab: %v\n", err)
			failed++
			continue
		}
		rep := res.Reports[i]
		elapsed := rep.Elapsed.Round(time.Millisecond)
		if *outDir != "" {
			// Report files carry only the deterministic report text (no
			// timing trailer), so warm-cache and remote re-runs are
			// byte-identical.
			path := filepath.Join(*outDir, id+".txt")
			if err := os.WriteFile(path, []byte(rep.Text), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "cdlab:", err)
				failed++
				continue
			}
			fmt.Fprintf(human, "wrote %s (%s)\n", path, elapsed)
		} else if !*jsonOut {
			fmt.Fprintf(human, "%s(%s in %s)\n\n", rep.Text, id, elapsed)
		}
	}
	if local, ok := runner.(*columndisturb.LocalRunner); ok && (*cacheDir != "" || *cacheEntries != 0 || *cacheBytes != 0) {
		st := local.CacheStats()
		fmt.Fprintf(os.Stderr, "cdlab: cache: %d hits (%d from disk), %d misses\n", st.Hits, st.DiskHits, st.Misses)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "cdlab: %d of %d experiments failed\n", failed, len(ids))
		return 1
	}
	return 0
}

// workers lists the remote workers attached to a `cdlab serve` process,
// with each one's completed tasks, busy time and average task time.
func workers(args []string) int {
	fs := flag.NewFlagSet("workers", flag.ContinueOnError)
	remote := fs.String("remote", "", "`cdlab serve` address to query (required)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *remote == "" {
		fmt.Fprintln(os.Stderr, "cdlab: workers requires -remote <addr>")
		return 2
	}
	r, err := client.New(*remote)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ws, err := r.Workers(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	if len(ws) == 0 {
		fmt.Println("no workers attached (server runs shards in-process)")
		return 0
	}
	fmt.Printf("%-14s %-12s %3s %8s %9s %9s %9s %11s\n",
		"ID", "Name", "Cap", "Inflight", "LastSeen", "Done", "Busy", "Avg/Task")
	for _, w := range ws {
		avg := "-"
		if w.Completed > 0 {
			avg = fmt.Sprintf("%.1fms", w.AvgTaskMs)
		}
		fmt.Printf("%-14s %-12s %3d %8d %8dms %9d %7dms %11s\n",
			w.ID, orNA(w.Name), w.Capacity, w.Inflight, w.LastSeenMs,
			w.Completed, w.BusyMs, avg)
	}
	return 0
}

func serve(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("j", runtime.GOMAXPROCS(0), "worker bound for the shared experiment pool (local shard executors)")
	maxActive := fs.Int("max-active", 0, "max concurrently running jobs (0 = unlimited)")
	cacheDir := fs.String("cache-dir", "", "enable the shard-result cache, persisted in this directory")
	cacheEntries := fs.Int("cache-entries", 0, "in-memory cache capacity in shard results (0 = default)")
	cacheBytes := fs.Int64("cache-bytes", 0, "per-level cache capacity in payload bytes (0 = unbounded)")
	noLocal := fs.Bool("no-local-shards", false, "run no shards in-process; every shard waits for a `cdlab worker` lease")
	leaseTTL := fs.Duration("lease-ttl", 0, "worker heartbeat deadline before its shards requeue (0 = 15s)")
	retain := fs.Int("retain", 512, "settled jobs kept for event replay/report fetch; older ones are retired (0 = keep all; keep this well above the largest multi-ID batch clients submit)")
	walDir := fs.String("wal", "", "job journal directory for crash recovery (default <cache-dir>/wal when -cache-dir is set)")
	noWAL := fs.Bool("no-wal", false, "disable the job journal even with -cache-dir")
	authToken := fs.String("auth-token", "", "require `Authorization: Bearer <token>` on mutating /v1 verbs (default $CDLAB_AUTH_TOKEN; reads and /v1/metrics stay open)")
	logLevel := fs.String("log-level", "info", "structured-log threshold on stderr: debug, info, warn or error")
	pprofOn := fs.Bool("pprof", false, "also serve the net/http/pprof profiles under /debug/pprof/")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 2
	}
	if *authToken == "" {
		*authToken = os.Getenv("CDLAB_AUTH_TOKEN")
	}
	// The journal defaults on next to the cache because recovery leans on
	// it: a WAL without the shard cache still recovers jobs, it just
	// recomputes their shards.
	switch {
	case *noWAL:
		if *walDir != "" {
			fmt.Fprintln(os.Stderr, "cdlab: -no-wal conflicts with -wal")
			return 2
		}
		*walDir = ""
	case *walDir == "" && *cacheDir != "":
		*walDir = filepath.Join(*cacheDir, "wal")
	}
	// Shards run on the runner's dispatcher: its local executors (unless
	// -no-local-shards) and any `cdlab worker -connect` that attaches at
	// runtime. Cache hits never reach it.
	runner, err := columndisturb.NewLocalRunner(columndisturb.LocalOptions{
		Workers:       *workers,
		MaxActiveJobs: *maxActive,
		NoLocalShards: *noLocal,
		LeaseTTL:      *leaseTTL,
		RetainJobs:    *retain,
		CacheDir:      *cacheDir,
		CacheEntries:  *cacheEntries,
		CacheMaxBytes: *cacheBytes,
		WALDir:        *walDir,
		AuthToken:     *authToken,
		Logger:        obs.NewTextLogger(os.Stderr, level),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	handler, err := runner.Handler()
	if err != nil {
		runner.Close()
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	// The /v1 API handler stays self-contained; the pprof routes mount on a
	// wrapper mux only when asked for, so a production serve exposes no
	// profiling surface by default.
	mux := http.NewServeMux()
	mux.Handle("/", handler)
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	// Listen before announcing, so the startup line names the bound
	// address (the real port when -addr asks for :0).
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		runner.Close()
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "cdlab: serving the /v1 experiment API on %s (cache=%s, wal=%s, local shards=%v, auth=%v, pprof=%v)\n",
		ln.Addr(), orNA(*cacheDir), orNA(*walDir), !*noLocal, *authToken != "", *pprofOn)

	srv := &http.Server{Handler: mux}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	select {
	case err := <-serveErr:
		runner.Close()
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	case <-ctx.Done():
	}
	// Graceful shutdown, ordered so clients resume instead of erroring:
	// first drain (then close) the listener — severed streams reconnect
	// and see connection-refused, which the client retries — and only THEN
	// suspend the runner, so no client ever observes a spurious canceled
	// terminal event. The runner's Shutdown fsyncs the WAL and records a
	// clean shutdown; the next serve on the same directories resumes the
	// interrupted jobs.
	fmt.Fprintln(os.Stderr, "cdlab: signal received, shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	_ = srv.Shutdown(shutdownCtx)
	cancel()
	_ = srv.Close()
	runner.Shutdown()
	fmt.Fprintln(os.Stderr, "cdlab: clean shutdown complete")
	return 0
}

// trace fetches one job's span record from a `cdlab serve` process and
// renders its shard timeline: queued→leased→executing→completed transitions
// per shard with worker attribution, the job's critical path, and
// per-worker utilization. Exits non-zero if a settled job has spans that
// never closed — the observable symptom of a stranded shard.
func trace(args []string) int {
	// Leading non-flag argument is the job ID: `cdlab trace j17 -remote addr`.
	var jobID string
	rest := args
	if len(rest) > 0 && !strings.HasPrefix(rest[0], "-") {
		jobID = rest[0]
		rest = rest[1:]
	}
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	remote := fs.String("remote", "", "`cdlab serve` address to query (required)")
	if err := fs.Parse(rest); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if jobID == "" && fs.NArg() > 0 {
		jobID = fs.Arg(0)
	}
	if jobID == "" || *remote == "" {
		fmt.Fprintln(os.Stderr, "cdlab: trace requires a job ID and -remote <addr>")
		return 2
	}
	r, err := client.New(*remote)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rec, err := r.Trace(ctx, jobID)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	os.Stdout.WriteString(obs.RenderTrace(rec))
	settled := rec.State != string(service.JobQueued) && rec.State != string(service.JobRunning)
	if open := rec.Incomplete(); settled && len(open) > 0 {
		fmt.Fprintf(os.Stderr, "cdlab: job %s settled as %s with %d unclosed span(s): %s\n",
			jobID, rec.State, len(open), strings.Join(open, ", "))
		return 1
	}
	return 0
}

// worker attaches this process to a `cdlab serve` scheduler as a remote
// shard executor: leased shards run here through the same experiment
// registry the server uses, and results return gob-encoded. Runs until
// interrupted; if the server drops us (restart, missed heartbeats) the
// loop re-registers automatically.
func worker(args []string) int {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	connect := fs.String("connect", "", "`cdlab serve` address to register with (required)")
	token := fs.String("token", "", "bearer token for a server started with -auth-token (default $CDLAB_TOKEN)")
	capacity := fs.Int("j", runtime.GOMAXPROCS(0), "shards to execute concurrently")
	name := fs.String("name", "", "worker label in the server's /v1/workers listing")
	logLevel := fs.String("log-level", "info", "structured-log threshold on stderr: debug, info, warn or error")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *connect == "" {
		fmt.Fprintln(os.Stderr, "cdlab: worker requires -connect <addr>")
		return 2
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *token == "" {
		*token = os.Getenv("CDLAB_TOKEN")
	}
	err = client.RunWorker(ctx, *connect, client.WorkerOptions{
		Name:     *name,
		Capacity: *capacity,
		Token:    *token,
		Logger:   obs.NewTextLogger(os.Stderr, level),
	})
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "cdlab: worker: interrupted, deregistered")
		return 0
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cdlab:", err)
		return 1
	}
	return 0
}
