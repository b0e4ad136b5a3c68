package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb"
	"columndisturb/client"
	"columndisturb/internal/cache"
	"columndisturb/internal/dispatch"
	"columndisturb/internal/engine"
	"columndisturb/internal/experiments"
	"columndisturb/internal/obs"
	"columndisturb/internal/service"
)

// workload is one named benchmark workload. A bench sets it up, then runs
// closed-loop ops from each caller through measured windows.
type workload interface {
	// setup does everything before the first timed op, replacing the state
	// of any earlier set-up; k counts set-ups from 0. It returns the ops it
	// ran, whose reports become the hash references.
	setup(ctx context.Context, k int) ([]opOut, error)
	// window prepares a measured window, traced when traced is set. It
	// returns a function, called after the window with its op count, that
	// checks what the window did as a whole and records the readings only a
	// whole window gives.
	window(ctx context.Context, traced bool) (done func(ops int) error, err error)
	// op runs caller c's i-th op of a window, on the traced path while the
	// env's layers are on.
	op(ctx context.Context, c, i int) (opOut, error)
	close()
}

// env is what every workload is made from.
type env struct {
	dir     string // scratch directory for cache directories
	seed    uint64 // workload seed
	workers int    // shard workers
	tr      *layers
}

// expSeed is the workload seed's j-th experiment seed (j is 0 or 1).
func (e env) expSeed(j int) uint64 { return e.seed*2 + uint64(j) + 1 }

// spec is a workload's shape: shard workers, closed-loop callers, and the
// host-speed probe units run after each round (about a twentieth of a
// round's time).
type spec struct {
	workers, clients, probe int
	make                    func(env) (workload, error)
}

var specs = map[string]spec{
	"sweep-cold": {2, 1, 200, func(e env) (workload, error) {
		return newSweep(e, request{"small", allIDs()})
	}},
	"sweep-full-cell": {2, 1, 200, func(e env) (workload, error) {
		return newSweep(e, request{"full", []string{"fig2", "fig21", "fig22", "fig23", "prvr-sim"}})
	}},
	"replay-disk": {2, 1, 2, func(e env) (workload, error) {
		shards, err := planShards(request{"small", allIDs()}, e.expSeed(0))
		return &replay{env: e, req: request{"small", allIDs()}, shards: shards}, err
	}},
	"serve-warm": {2, 2, 6, func(e env) (workload, error) {
		shards, err := planShards(request{"small", allIDs()}, e.expSeed(0))
		return &serve{env: e, req: request{"small", allIDs()}, shards: shards}, err
	}},
}

func workloadNames() []string {
	var out []string
	for name := range specs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// request is what every op of a workload asks for, at some seed.
type request struct {
	profile string
	ids     []string
}

func (r request) at(seed uint64) columndisturb.Request {
	return columndisturb.Request{
		Experiments: r.ids,
		Profile:     r.profile,
		Overrides:   map[string]string{"seed": strconv.FormatUint(seed, 10)},
	}
}

// allIDs is `run all`: every registered experiment.
func allIDs() []string {
	var ids []string
	for _, e := range columndisturb.ListExperiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// planShards counts the shards the request's plans hold at seed.
func planShards(r request, seed uint64) (int64, error) {
	cfg, err := experiments.ResolveConfig(r.profile, r.at(seed).Overrides)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, id := range r.ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return 0, fmt.Errorf("unknown experiment %q", id)
		}
		shards, _, err := experiments.BuildShards(e, cfg)
		if err != nil {
			return 0, err
		}
		n += int64(len(shards))
	}
	return n, nil
}

func hashKey(id, profile string, seed uint64) string {
	return fmt.Sprintf("%s@%s/seed=%d", id, profile, seed)
}

func hashText(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

func reportHashes(res *columndisturb.Result, r request, seed uint64) map[string]string {
	out := make(map[string]string, len(res.Reports))
	for _, rep := range res.Reports {
		out[hashKey(rep.ID, r.profile, seed)] = hashText(rep.Text)
	}
	return out
}

// localRun is one invocation of `cdlab run`: a new LocalRunner with the
// given options runs the request and is closed.
func localRun(ctx context.Context, opts columndisturb.LocalOptions, r request, seed uint64) (opOut, error) {
	lr, err := columndisturb.NewLocalRunner(opts)
	if err != nil {
		return opOut{}, err
	}
	defer lr.Close()
	res, err := lr.Run(ctx, r.at(seed))
	if err != nil {
		return opOut{}, err
	}
	st := lr.CacheStats()
	return opOut{
		hashes: reportHashes(res, r, seed),
		counts: counts{Shards: st.Hits + st.Misses, Hits: st.Hits, DiskHits: st.DiskHits, Misses: st.Misses, Puts: st.Puts},
	}, nil
}

// tracedRun is localRun rebuilt from the layers' public functions, each
// call timed into tr: open the cache, plan every experiment, run all shards
// on engine.Run with the cache probe and fill the service wraps around each
// shard, then merge and render each report.
func tracedRun(ctx context.Context, tr *layers, dir string, r request, seed uint64, workers int) (opOut, error) {
	t := time.Now()
	store, err := cache.New(cache.Options{Dir: dir})
	path := tr.since("cache.open_s", t)
	if err != nil {
		return opOut{}, err
	}
	cfg, err := experiments.ResolveConfig(r.profile, r.at(seed).Overrides)
	if err != nil {
		return opOut{}, err
	}
	digest := cfg.Digest()

	type planned struct {
		id    string
		n     int
		merge func([]any) (*experiments.Result, error)
	}
	var (
		plans    []planned
		shards   []engine.Shard
		mu       sync.Mutex
		busy     float64
		maxShard float64
	)
	for _, id := range r.ids {
		e, ok := experiments.ByID(id)
		if !ok {
			return opOut{}, fmt.Errorf("unknown experiment %q", id)
		}
		t := time.Now()
		sh, merge, err := experiments.BuildShards(e, cfg)
		path += tr.since("experiments.plan_s", t)
		if err != nil {
			return opOut{}, err
		}
		plans = append(plans, planned{id, len(sh), merge})
		for _, s := range sh {
			key := cache.Key{Experiment: id, ConfigDigest: digest, Shard: s.Label}
			run, exp, tier := s.Run, "exp."+id+".shard_s", tierOf(id)
			shards = append(shards, engine.Shard{Label: s.Label, Run: func(ctx context.Context) (any, error) {
				task := time.Now()
				defer func() {
					d := time.Since(task).Seconds()
					mu.Lock()
					busy += d
					mu.Unlock()
				}()
				t := time.Now()
				data, ok := store.Get(key)
				tr.since("cache.get_s", t)
				if ok {
					tr.add("cache.get_bytes", float64(len(data)))
					t = time.Now()
					v, err := cache.Gob{}.Decode(data)
					tr.since("cache.decode_s", t)
					if err == nil {
						return v, nil
					}
				}
				t = time.Now()
				v, err := run(ctx)
				d := time.Since(t).Seconds()
				if err != nil {
					return nil, err
				}
				tr.add(exp, d)
				tr.add("engine.shard_s", d)
				if tier != "" {
					tr.add(tier, d)
				}
				mu.Lock()
				maxShard = max(maxShard, d)
				mu.Unlock()
				t = time.Now()
				data, err = cache.Gob{}.Encode(v)
				tr.since("cache.encode_s", t)
				if err == nil {
					t = time.Now()
					_ = store.Put(key, data) // as in the service, a failed spill only costs future hits
					tr.since("cache.put_s", t)
					tr.add("cache.put_bytes", float64(len(data)))
				}
				return v, nil
			}})
		}
	}

	t = time.Now()
	parts, err := engine.Run(ctx, shards, engine.Options{Workers: workers})
	wall := time.Since(t).Seconds()
	path += wall
	if err != nil {
		return opOut{}, err
	}
	tr.add("engine.busy_ratio", busy/(float64(workers)*wall))
	tr.add("engine.max_shard_s", maxShard)

	out := opOut{hashes: make(map[string]string, len(plans))}
	off := 0
	for _, p := range plans {
		t := time.Now()
		res, err := p.merge(parts[off : off+p.n])
		path += tr.since("experiments.merge_s", t)
		off += p.n
		if err != nil {
			return opOut{}, fmt.Errorf("%s: merge: %w", p.id, err)
		}
		t = time.Now()
		text := res.String()
		path += tr.since("experiments.render_s", t)
		out.hashes[hashKey(p.id, r.profile, seed)] = hashText(text)
	}
	tr.add(attributed, path)

	st := store.Stats()
	out.counts = counts{Shards: int64(len(shards)), Hits: st.Hits, DiskHits: st.DiskHits, Misses: st.Misses, Puts: st.Puts}
	tr.add("experiments.shards", float64(len(shards)))
	tr.add("cache.hits", float64(st.Hits))
	tr.add("cache.disk_hits", float64(st.DiskHits))
	tr.add("cache.misses", float64(st.Misses))
	tr.add("cache.puts", float64(st.Puts))
	return out, nil
}

func noCheck(int) error { return nil }

// sweep is sweep-cold and sweep-full-cell: each op opens a LocalRunner on a
// new, empty cache directory and runs the whole request at the workload's
// first experiment seed, so every shard computes, is gob-encoded and is
// written to disk, and every op does the same work. Set-up is one such op.
type sweep struct {
	env
	req    request
	shards int64
	dirs   int
}

func newSweep(e env, r request) (*sweep, error) {
	shards, err := planShards(r, e.expSeed(0))
	return &sweep{env: e, req: r, shards: shards}, err
}

func (s *sweep) setup(ctx context.Context, k int) ([]opOut, error) {
	out, err := s.op(ctx, 0, k)
	return []opOut{out}, err
}

func (s *sweep) window(context.Context, bool) (func(int) error, error) { return noCheck, nil }

func (s *sweep) op(ctx context.Context, _, _ int) (opOut, error) {
	dir := filepath.Join(s.dir, fmt.Sprintf("sweep-%d", s.dirs))
	s.dirs++
	var out opOut
	var err error
	if s.tr.on.Load() {
		out, err = tracedRun(ctx, s.tr, dir, s.req, s.expSeed(0), s.workers)
	} else {
		out, err = localRun(ctx, columndisturb.LocalOptions{Workers: s.workers, CacheDir: dir}, s.req, s.expSeed(0))
	}
	if c := out.counts; err == nil && (c.Shards != s.shards || c.Misses != s.shards || c.Puts != s.shards) {
		err = fmt.Errorf("cold sweep counts %+v, want %d shards, all computed and stored", c, s.shards)
	}
	return out, err
}

func (s *sweep) close() {}

// replay is replay-disk: set-up primes a cache directory with one cold
// sweep, and each op opens a new LocalRunner over it and replays the sweep,
// so every shard is a disk hit and nothing computes.
type replay struct {
	env
	req    request
	shards int64
	primed string
}

func (r *replay) setup(ctx context.Context, k int) ([]opOut, error) {
	if r.primed != "" {
		_ = os.RemoveAll(r.primed) // the previous set-up's state
	}
	r.primed = filepath.Join(r.dir, fmt.Sprintf("primed-%d", k))
	out, err := localRun(ctx, columndisturb.LocalOptions{Workers: r.workers, CacheDir: r.primed}, r.req, r.expSeed(0))
	if c := out.counts; err == nil && (c.Shards != r.shards || c.Puts != r.shards) {
		err = fmt.Errorf("priming sweep counts %+v, want %d shards stored", c, r.shards)
	}
	return []opOut{out}, err
}

func (r *replay) window(context.Context, bool) (func(int) error, error) { return noCheck, nil }

func (r *replay) op(ctx context.Context, _, _ int) (opOut, error) {
	var out opOut
	var err error
	if r.tr.on.Load() {
		out, err = tracedRun(ctx, r.tr, r.primed, r.req, r.expSeed(0), r.workers)
	} else {
		out, err = localRun(ctx, columndisturb.LocalOptions{Workers: r.workers, CacheDir: r.primed}, r.req, r.expSeed(0))
	}
	if c := out.counts; err == nil && (c.Shards != r.shards || c.DiskHits != r.shards || c.Misses != 0 || c.Puts != 0) {
		err = fmt.Errorf("replay counts %+v, want %d shards, all disk hits", c, r.shards)
	}
	return out, err
}

func (r *replay) close() {}

// Serve planes keep every shard in memory and retire settled jobs as
// `cdlab serve` does by default.
const (
	serveCacheEntries = 4096
	serveRetainJobs   = 512
)

// serve is serve-warm: an in-process serve plane (the service with the
// dispatch backend, as LocalRunner{Dispatch: true} builds it, with a memory
// cache only and no WAL, behind Handler() on a loopback listener) and two
// closed-loop client.New callers. Each caller requests the whole small sweep
// at its own seed, so no two concurrent jobs coalesce, whatever the timing.
// Set-up primes the cache with both seeds, so every op is all cache hits.
// The plane's cache, handler and client transports carry timing wrappers
// that record only while the env's layers are on, so the timed and the
// traced windows share one plane.
type serve struct {
	env
	req    request
	shards int64
	store  *cache.Store
	plane  *stack
}

func (s *serve) setup(ctx context.Context, _ int) ([]opOut, error) {
	if s.plane != nil {
		s.plane.close() // the previous set-up's state
		s.plane = nil
	}
	store, err := cache.New(cache.Options{MaxEntries: serveCacheEntries})
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	svc := service.New(service.Options{
		Workers:    s.workers,
		Dispatcher: dispatch.New(dispatch.Options{LocalWorkers: s.workers, Metrics: reg}),
		RetainJobs: serveRetainJobs,
		Cache:      timedCache{store, s.tr},
		Metrics:    reg,
	})
	s.store = store
	if s.plane, err = s.newStack(timedHandler(svc.Handler(), s.tr), svc.Close); err != nil {
		return nil, err
	}
	return s.prime(ctx)
}

// window scrapes the serve plane's metrics around the window.
func (s *serve) window(ctx context.Context, traced bool) (func(int) error, error) {
	st := s.plane
	before, err := scrape(ctx, st.scrapes, st.base)
	if err != nil {
		return nil, err
	}
	cache0 := s.store.Stats()
	return func(ops int) error {
		after, err := scrape(ctx, st.scrapes, st.base)
		if err != nil {
			return err
		}
		delta := func(series string) float64 { return after[series] - before[series] }
		cached := delta(`cdlab_shards_total{source="cache"}`)
		computed := delta(`cdlab_shards_total{source="local"}`) + delta(`cdlab_shards_total{source="remote"}`)
		coalesced := delta("cdlab_jobs_coalesced_total")
		if traced {
			s.tr.add("service.job_s", delta("cdlab_job_ms_sum")/1000)
			s.tr.add("service.shards_cached", cached)
			s.tr.add("service.shards_computed", computed)
			s.tr.add("service.coalesced", coalesced)
			c := s.store.Stats()
			s.tr.add("cache.hits", float64(c.Hits-cache0.Hits))
			s.tr.add("cache.disk_hits", float64(c.DiskHits-cache0.DiskHits))
			s.tr.add("cache.misses", float64(c.Misses-cache0.Misses))
			s.tr.add("cache.puts", float64(c.Puts-cache0.Puts))
		}
		if want := float64(ops) * float64(s.shards); cached != want || computed != 0 || coalesced != 0 {
			return fmt.Errorf("serve plane served %v cached shards (want %v), computed %v and coalesced %v (want 0)",
				cached, want, computed, coalesced)
		}
		return nil
	}, nil
}

func (s *serve) op(ctx context.Context, c, _ int) (opOut, error) {
	out, err := s.plane.callers[c].run(ctx, s.req)
	if k := out.counts; err == nil && (k.Shards != s.shards || k.Hits != s.shards) {
		err = fmt.Errorf("serve counts %+v, want %d shards, all cache hits", k, s.shards)
	}
	if err == nil && s.tr.on.Load() {
		s.tr.add("experiments.shards", float64(out.counts.Shards))
	}
	return out, err
}

// prime runs one op from every caller at once on the cold serve plane; each
// computes its seed's whole sweep.
func (s *serve) prime(ctx context.Context) ([]opOut, error) {
	callers := s.plane.callers
	outs := make([]opOut, len(callers))
	errs := make([]error, len(callers))
	var wg sync.WaitGroup
	for i, c := range callers {
		i, c := i, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[i], errs[i] = c.run(ctx, s.req)
			if k := outs[i].counts; errs[i] == nil && (k.Shards != s.shards || k.Misses != s.shards) {
				errs[i] = fmt.Errorf("priming counts %+v, want %d shards, all computed", k, s.shards)
			}
		}()
	}
	wg.Wait()
	return outs, errors.Join(errs...)
}

func (s *serve) close() {
	if s.plane != nil {
		s.plane.close()
	}
}

// stack is one running serve plane and its callers.
type stack struct {
	base    string
	srv     *http.Server
	served  chan struct{}
	release func()
	callers []*caller
	scrapes *http.Client
}

// newStack serves h on a loopback port and makes one caller per
// experiment seed, each over a timed transport.
func (s *serve) newStack(h http.Handler, release func()) (*stack, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		release()
		return nil, err
	}
	st := &stack{
		base:    "http://" + ln.Addr().String(),
		srv:     &http.Server{Handler: h},
		served:  make(chan struct{}),
		release: release,
		scrapes: &http.Client{Transport: &http.Transport{}},
	}
	go func() {
		defer close(st.served)
		_ = st.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	for j := 0; j < 2; j++ {
		c := &caller{seed: s.expSeed(j), transport: &http.Transport{}}
		c.timed = &timedTransport{base: c.transport, tr: s.tr}
		if c.rn, err = client.New(st.base, client.Options{HTTPClient: &http.Client{Transport: c.timed}}); err != nil {
			st.close()
			return nil, err
		}
		c.rn.Subscribe(c.observe)
		st.callers = append(st.callers, c)
	}
	return st, nil
}

func (st *stack) close() {
	_ = st.srv.Close()
	<-st.served
	st.release()
	for _, c := range st.callers {
		c.transport.CloseIdleConnections()
	}
	st.scrapes.CloseIdleConnections()
}

// caller is one closed-loop client: it runs one request at a time at its
// own seed and counts the shard events of its current op.
type caller struct {
	rn        *client.Runner
	seed      uint64
	transport *http.Transport
	timed     *timedTransport
	cached    atomic.Int64
	computed  atomic.Int64
}

func (c *caller) observe(ev columndisturb.Event) {
	if ev.Type != columndisturb.EventShardDone {
		return
	}
	if ev.Cached != nil && *ev.Cached {
		c.cached.Add(1)
	} else {
		c.computed.Add(1)
	}
}

func (c *caller) run(ctx context.Context, r request) (opOut, error) {
	c.cached.Store(0)
	c.computed.Store(0)
	c.timed.requests.Store(0)
	res, err := c.rn.Run(ctx, r.at(c.seed))
	if err != nil {
		return opOut{}, err
	}
	out := opOut{hashes: reportHashes(res, r, c.seed)}
	out.counts.Hits, out.counts.Misses = c.cached.Load(), c.computed.Load()
	out.counts.Shards = out.counts.Hits + out.counts.Misses
	out.counts.Requests = c.timed.requests.Load()
	return out, nil
}
