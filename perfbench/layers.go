package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"columndisturb/internal/cache"
	"columndisturb/internal/experiments"
)

// attributed sums the layer time on each traced op's blocking path: the
// sequential calls of a rebuilt sweep, or a caller's HTTP round trips.
// unattributed_s is the op wall time minus it.
const attributed = "attributed"

type layerMetric struct{ name, unit string }

// layerMetrics lists the per-layer metrics of a -trace 1 run, except
// unattributed_s and trace.overhead_s, which come from op wall times.
// Workloads that do not exercise a layer report it as 0.
func layerMetrics() []layerMetric {
	var out []layerMetric
	for _, e := range experiments.All() {
		out = append(out, layerMetric{"exp." + e.ID + ".shard_s", "s"})
	}
	return append(out,
		layerMetric{"tier.core_s", "s"},
		layerMetric{"tier.cell_s", "s"},
		layerMetric{"tier.memsim_s", "s"},
		layerMetric{"engine.shard_s", "s"},
		layerMetric{"engine.busy_ratio", "ratio"},
		layerMetric{"engine.max_shard_s", "s"},
		layerMetric{"cache.open_s", "s"},
		layerMetric{"cache.get_s", "s"},
		layerMetric{"cache.get_bytes", "bytes"},
		layerMetric{"cache.decode_s", "s"},
		layerMetric{"cache.encode_s", "s"},
		layerMetric{"cache.put_s", "s"},
		layerMetric{"cache.put_bytes", "bytes"},
		layerMetric{"cache.hits", "count"},
		layerMetric{"cache.disk_hits", "count"},
		layerMetric{"cache.misses", "count"},
		layerMetric{"cache.puts", "count"},
		layerMetric{"experiments.plan_s", "s"},
		layerMetric{"experiments.merge_s", "s"},
		layerMetric{"experiments.render_s", "s"},
		layerMetric{"experiments.shards", "count"},
		layerMetric{"http.submit_s", "s"},
		layerMetric{"http.events_s", "s"},
		layerMetric{"http.report_s", "s"},
		layerMetric{"http.requests", "count"},
		layerMetric{"service.handler_s", "s"},
		layerMetric{"service.job_s", "s"},
		layerMetric{"service.shards_cached", "count"},
		layerMetric{"service.shards_computed", "count"},
		layerMetric{"service.coalesced", "count"},
	)
}

// tierOf names the model tier an experiment's shards run in: the
// statistical tier (internal/core), the cell-explicit tier (internal/dram,
// bender, charz, ecc) or the memory-system simulator (internal/memsim).
// table1 and sec61 compute in none of them.
func tierOf(id string) string {
	switch id {
	case "fig2", "fig21":
		return "tier.cell_s"
	case "fig22", "fig23", "prvr-sim":
		return "tier.memsim_s"
	case "table1", "sec61":
		return ""
	}
	return "tier.core_s"
}

// layers sums per-layer readings over one window's traced ops.
type layers struct {
	// on gates the wrappers around the serve stack, so that priming it and
	// scraping its metrics outside the traced window never count.
	on atomic.Bool

	mu  sync.Mutex
	sum map[string]float64
}

func newLayers() *layers { return &layers{sum: make(map[string]float64)} }

func (l *layers) add(name string, v float64) {
	l.mu.Lock()
	l.sum[name] += v
	l.mu.Unlock()
}

// since adds the seconds elapsed since t under name and returns them.
func (l *layers) since(name string, t time.Time) float64 {
	d := time.Since(t).Seconds()
	l.add(name, d)
	return d
}

func (l *layers) get(name string) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sum[name]
}

// timedCache wraps the serve stack's cache backend. The dispatch backend
// pins the service's codec to cache.Gob, so the service's own decode cannot
// be wrapped; instead Get decodes each hit once more and times that, which
// costs the same. The duplicate decode shows in trace.overhead_s.
type timedCache struct {
	*cache.Store
	tr *layers
}

func (c timedCache) Get(k cache.Key) ([]byte, bool) {
	if !c.tr.on.Load() {
		return c.Store.Get(k)
	}
	t := time.Now()
	data, ok := c.Store.Get(k)
	c.tr.since("cache.get_s", t)
	if ok {
		c.tr.add("cache.get_bytes", float64(len(data)))
		t = time.Now()
		_, _ = cache.Gob{}.Decode(data) // the service decodes and checks the same bytes
		c.tr.since("cache.decode_s", t)
	}
	return data, ok
}

func (c timedCache) Put(k cache.Key, data []byte) error {
	if !c.tr.on.Load() {
		return c.Store.Put(k, data)
	}
	t := time.Now()
	err := c.Store.Put(k, data)
	c.tr.since("cache.put_s", t)
	c.tr.add("cache.put_bytes", float64(len(data)))
	return err
}

// timedHandler times every request the service's handler serves.
func timedHandler(h http.Handler, tr *layers) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !tr.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		t := time.Now()
		h.ServeHTTP(w, r)
		tr.since("service.handler_s", t)
	})
}

// timedTransport times a caller's round trips from request to body close,
// by route, and counts the requests of the caller's current op.
type timedTransport struct {
	base     http.RoundTripper
	tr       *layers
	requests atomic.Int64
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.tr.on.Load() {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	name := route(req)
	t.requests.Add(1)
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		t.record(name, start)
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { t.record(name, start) }}
	return resp, nil
}

func (t *timedTransport) record(name string, start time.Time) {
	t.tr.add(attributed, t.tr.since(name, start))
	t.tr.add("http.requests", 1)
}

// route names the layer metric a client request's round trip counts under.
func route(req *http.Request) string {
	switch p := req.URL.Path; {
	case req.Method == http.MethodPost && p == "/v1/jobs":
		return "http.submit_s"
	case strings.HasSuffix(p, "/events"):
		return "http.events_s"
	case strings.HasSuffix(p, "/report"):
		return "http.report_s"
	}
	return "http.other_s"
}

// timedBody calls done once, when the client closes the response body.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// scrape reads a serve plane's GET /v1/metrics into series -> value, the
// series keyed as printed (name plus any label set).
func scrape(ctx context.Context, hc *http.Client, base string) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape metrics: %s", resp.Status)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if i < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}
