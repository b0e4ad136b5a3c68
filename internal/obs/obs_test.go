package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// checkExposition validates a Prometheus text export structurally: every
// family declares # HELP then # TYPE before its samples, no sample line
// (name plus labels) repeats, and every histogram's cumulative buckets are
// monotone up to a +Inf bucket that equals its _count.
func checkExposition(text string) error {
	kinds := map[string]string{} // family → declared type
	helped := map[string]bool{}
	seen := map[string]bool{}
	lastBucket := map[string]float64{} // histogram → previous cumulative count
	inf := map[string]float64{}        // histogram → +Inf bucket
	for i, line := range strings.Split(text, "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0:
			continue
		case strings.HasPrefix(line, "# HELP ") && len(fields) >= 3:
			helped[fields[2]] = true
			continue
		case strings.HasPrefix(line, "# TYPE ") && len(fields) == 4:
			if !helped[fields[2]] {
				return fmt.Errorf("line %d: # TYPE %s before its # HELP", i+1, fields[2])
			}
			kinds[fields[2]] = fields[3]
			continue
		case len(fields) != 2:
			return fmt.Errorf("line %d: malformed line %q", i+1, line)
		}
		key := fields[0]
		if seen[key] {
			return fmt.Errorf("line %d: duplicate sample %s", i+1, key)
		}
		seen[key] = true
		value, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return fmt.Errorf("line %d: unparseable value in %q", i+1, line)
		}
		name, labels, _ := strings.Cut(key, "{")
		histogram := func(suffix string) bool {
			return kinds[strings.TrimSuffix(name, suffix)] == "histogram"
		}
		switch {
		case kinds[name] == "counter" || kinds[name] == "gauge":
		case histogram("_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			if value < lastBucket[base] {
				return fmt.Errorf("line %d: histogram %s buckets not cumulative", i+1, base)
			}
			lastBucket[base] = value
			if labels == `le="+Inf"}` {
				inf[base] = value
			}
		case histogram("_sum"):
		case histogram("_count"):
			base := strings.TrimSuffix(name, "_count")
			if got, ok := inf[base]; !ok || got != value {
				return fmt.Errorf("line %d: histogram %s _count %g but +Inf bucket %g", i+1, base, value, got)
			}
		default:
			return fmt.Errorf("line %d: sample %s has no preceding # TYPE", i+1, name)
		}
	}
	return nil
}

// TestCheckExpositionRejects pins the checker itself: each export breaks
// exactly one rule.
func TestCheckExpositionRejects(t *testing.T) {
	const head = "# HELP h x\n# TYPE h histogram\n"
	for name, text := range map[string]string{
		"undeclared": "c 1\n",
		"no help":    "# TYPE c counter\nc 1\n",
		"duplicate":  "# HELP c x\n# TYPE c counter\nc 1\nc 1\n",
		"decreasing": head + "h_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 1\n",
		"bad count":  head + "h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
	} {
		if checkExposition(text) == nil {
			t.Errorf("%s: export accepted:\n%s", name, text)
		}
	}
}

func TestCounterAndGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-10) // dropped: counters only go up
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Gauges are callbacks read at export; re-registering replaces one.
	r := NewRegistry()
	r.GaugeFunc("g", "help", func() float64 { return 7 })
	r.GaugeFunc("g", "help", func() float64 { return -2.5 })
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\ng -2.5\n") {
		t.Fatalf("gauge export:\n%s", b.String())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 10, 11} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 25.5 {
		t.Fatalf("sum = %g, want 25.5", h.Sum())
	}
	// le semantics: bucket i counts v <= bounds[i].
	want := []int64{2, 1, 1, 1} // (<=1)=2{0.5,1}, (<=5)=1{3}, (<=10)=1{10}, +Inf=1{11}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "help")
	b := r.Counter("x_total", "help")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering as a different type did not panic")
		}
	}()
	r.GaugeFunc("x_total", "help", func() float64 { return 0 })
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Counter("cd_jobs_total", "jobs\nwith newline").Add(3)
	r.GaugeFunc("cd_active", "active", func() float64 { return 2 })
	r.Histogram("cd_ms", "latency", []float64{1, 10}).Observe(4)
	r.CounterVec("cd_tasks_total", "per worker", "worker").With(`w"1\x`).Inc()
	r.GaugeFunc("cd_depth", "queue depth", func() float64 { return 1.5 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cd_jobs_total jobs\\nwith newline\n",
		"# TYPE cd_jobs_total counter\n",
		"cd_jobs_total 3\n",
		"cd_active 2\n",
		"# TYPE cd_ms histogram\n",
		`cd_ms_bucket{le="1"} 0` + "\n",
		`cd_ms_bucket{le="10"} 1` + "\n",
		`cd_ms_bucket{le="+Inf"} 1` + "\n",
		"cd_ms_sum 4\n",
		"cd_ms_count 1\n",
		`cd_tasks_total{worker="w\"1\\x"} 1` + "\n",
		"cd_depth 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("export missing %q in:\n%s", want, out)
		}
	}
	// Families sorted by name for stable diffs.
	if strings.Index(out, "cd_active") > strings.Index(out, "cd_jobs_total") {
		t.Fatal("families not sorted by name")
	}
	if err := checkExposition(out); err != nil {
		t.Fatalf("%v in:\n%s", err, out)
	}
}

// TestRegistryRaceStress hammers one registry from many goroutines —
// increments, observations, vec-child creation, and concurrent exports —
// and relies on -race (ci.sh runs the suite race-enabled) to flag any
// unsynchronized access. Every export taken mid-write must still be
// well-formed.
func TestRegistryRaceStress(t *testing.T) {
	r := NewRegistry()
	const writers = 8
	const iters = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := r.Counter("stress_total", "")
			r.GaugeFunc("stress_gauge", "", func() float64 { return float64(id) })
			h := r.Histogram("stress_ms", "", nil)
			v := r.CounterVec("stress_tasks_total", "", "worker")
			for i := 0; i < iters; i++ {
				c.Inc()
				h.Observe(float64(i % 97))
				v.With(string(rune('a' + id))).Inc()
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WritePrometheus(&b); err != nil {
				t.Error(err)
				return
			}
			if err := checkExposition(b.String()); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if got := r.Counter("stress_total", "").Value(); got != writers*iters {
		t.Fatalf("stress_total = %d, want %d", got, writers*iters)
	}
	if got := r.Histogram("stress_ms", "", nil).Count(); got != writers*iters {
		t.Fatalf("stress_ms count = %d, want %d", got, writers*iters)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"": "INFO", "debug": "DEBUG", "Warn": "WARN", "ERROR": "ERROR",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Fatalf("ParseLevel(%q) = %s, want %s", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("unknown level accepted")
	}
}
