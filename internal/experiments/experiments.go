// Package experiments maps every table and figure of the paper's
// evaluation to a runnable experiment: each runner reproduces the workload
// behind one artifact (Table 1, Figs 2 and 6–23, the §6.1 mitigation
// numbers, plus two model ablations) and renders the same rows/series the
// paper reports, with the headline observation statistics attached as
// notes. The same runners back `go test -bench` and `cmd/cdlab`, both at
// the small profile by default; `cdlab run -profile full` selects the
// paper-breadth config.
package experiments

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"columndisturb/internal/cache"
	"columndisturb/internal/engine"
	"columndisturb/internal/sim/rng"
)

// Config scales an experiment run. Small configs keep every experiment in
// benchmark territory on a laptop; the full config matches the paper's
// sweep breadth (within the simulator's scaled geometry, see DESIGN.md §5).
type Config struct {
	// SubarraysPerModule is how many subarrays the statistical sweeps
	// sample per module.
	SubarraysPerModule int
	// TTFSamples is the number of order-statistic samples per
	// time-to-first-bitflip distribution point.
	TTFSamples int
	// Mixes is the number of four-core workload mixes for memsim-based
	// experiments.
	Mixes int
	// MeasureInstr is the per-core measured instruction count in memsim.
	MeasureInstr int64
	// CellRows/CellCols scale the cell-explicit experiments (Fig 2, 21).
	CellRows, CellCols int
	// MaxShardShare bounds one shard's share of its plan's total estimated
	// cost: plan builders subdivide any shard whose summed atom costs would
	// exceed MaxShardShare × the plan total (see split.go). 0 selects the default
	// (defaultMaxShardShare); 1 disables splitting. Purely a decomposition
	// knob — split and unsplit plans render byte-identical Results — but it
	// participates in Digest like every field, so differently split runs
	// never share cache entries.
	MaxShardShare float64
	// Seed decorrelates full runs; every experiment is deterministic for a
	// given config.
	Seed uint64
}

// Small returns the benchmark-scale configuration.
func Small() Config {
	return Config{
		SubarraysPerModule: 4,
		TTFSamples:         40,
		Mixes:              3,
		MeasureInstr:       40_000,
		CellRows:           128,
		CellCols:           256,
		Seed:               1,
	}
}

// Full returns the paper-breadth configuration, the "full" profile
// (`cdlab run -profile full`; cmd/cdlab defaults to Small).
func Full() Config {
	return Config{
		SubarraysPerModule: 16,
		TTFSamples:         200,
		Mixes:              20,
		MeasureInstr:       100_000,
		CellRows:           512,
		CellCols:           512,
		Seed:               1,
	}
}

// resultSchemaVersion tags Config.Digest so persisted shard-cache entries
// invalidate when the *meaning* of cached results changes. Bump it whenever
// a change would make previously cached shard results wrong for the same
// Config — a changed shard computation, renamed/renumbered part fields, a
// different merge contract. The cache cannot detect such changes itself:
// gob silently decodes old bytes into new structs (missing fields zero),
// so without this tag a warm -cache-dir would serve stale results across
// binary versions.
//
// Generation 2: every experiment is a multi-shard Plan (the legacy whole-
// *Result pseudo-shard entries of generation 1 no longer decode to any
// registered part type) and shard labels moved to the canonical
// "id/key=value" scheme.
//
// Generation 3: memsim moved from per-access interval arithmetic to the
// cycle-accurate per-bank command core (and fixed its measurement-boundary
// bugs), so every memsim-backed shard result (fig23, prvr-sim) computed
// under generation 2 is numerically stale for the same Config.
//
// Generation 4: the dominant plans (fig11/13/15, fig23, ttf) decompose into
// cost-budgeted sub-shards (see split.go): part types changed shape (raw
// per-atom value lists instead of pre-reduced summaries), shard labels
// gained range coordinates, and RNG streams are keyed per atom instead of
// per grid cell, so every sampled value from those experiments moved.
//
// Generation 5: the split plans share one split helper (split.go), and a
// sub-shard's part is just its atoms' values ([]T) with no start offset, so
// part types changed shape again; every report stayed byte-identical.
//
// Generation 6: a cache.Gob entry is the part's type name and a gob stream
// of the concrete value, not an interface-wrapped stream, so no generation
// 5 entry decodes; every report stayed byte-identical.
const resultSchemaVersion = "cd-shards/6"

// Digest returns a stable content digest of the configuration, used as the
// config component of shard cache keys (cache.Key.ConfigDigest). It hashes
// the JSON encoding of the struct, so every exported field — including ones
// added later — participates: any config change changes every shard key,
// and a warm cache can never serve results computed under different inputs.
// The digest also folds in resultSchemaVersion, pinning entries to the
// result-encoding generation that produced them.
func (c Config) Digest() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a flat struct of scalars; Marshal cannot fail.
		panic("experiments: config digest: " + err.Error())
	}
	h := sha256.New()
	h.Write([]byte(resultSchemaVersion))
	h.Write([]byte{0})
	h.Write(b)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

func (c Config) rand(stream uint64) *rng.Rand {
	return rng.New(rng.Key(c.Seed, stream))
}

// shardRand derives the RNG stream for one shard of an experiment: a pure
// function of (Seed, experiment stream, shard coordinates). Shards keyed
// this way are decorrelated from each other yet bit-reproducible no matter
// which worker runs them or in what order — the property the parallel
// engine's determinism guarantee rests on.
func (c Config) shardRand(stream uint64, shard ...uint64) *rng.Rand {
	parts := append([]uint64{c.Seed, stream}, shard...)
	return rng.New(rng.Key(parts...))
}

// Result is one experiment's rendered output.
type Result struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Result) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// AddNote appends an observation-level statistic.
func (r *Result) AddNote(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as an aligned text table with notes.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s — %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	if len(r.Headers) > 0 {
		writeRow(r.Headers)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", w))
		}
		b.WriteByte('\n')
	}
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Shard is one independent unit of an experiment's work (an alias of
// engine.Shard, so plans feed engine.Run directly). Its Run closure must
// derive all randomness from per-shard keys (Config.shardRand) and touch
// no state shared with sibling shards, so the engine can execute it on
// any worker without changing the experiment's output.
type Shard = engine.Shard

// Plan is the sharded decomposition of one experiment: independent shards
// plus a merge step that reassembles their partial results — delivered in
// canonical shard order — into the final Result. Merge runs once, on the
// caller's goroutine.
type Plan struct {
	Shards []Shard
	Merge  func(parts []any) (*Result, error)
}

// shardLabel renders the canonical shard label: the experiment ID followed
// by /key=value coordinate pairs, e.g. "fig21/module=M8/iv=512ms". Labels
// are load-bearing identifiers, not just display strings — they name the
// shard in cache keys (cache.Key.Shard), shard_done events and the dispatch
// wire's registry-skew guard — so they must be stable across builds, unique
// within a plan (TestShardLabelsCanonical enforces both) and readable in
// event streams.
func shardLabel(id string, kv ...string) string {
	if len(kv)%2 != 0 {
		panic("experiments: shardLabel needs key/value pairs")
	}
	var b strings.Builder
	b.WriteString(id)
	for i := 0; i < len(kv); i += 2 {
		b.WriteByte('/')
		b.WriteString(kv[i])
		b.WriteByte('=')
		b.WriteString(kv[i+1])
	}
	return b.String()
}

// Experiment couples a paper artifact with its sharded runner. Plan is the
// ONE execution contract: every registered experiment decomposes into
// independent shards with per-shard keyed RNG streams and a canonical-order
// merge, so serial, `-j N` and distributed runs are byte-identical by
// construction. (The legacy serial `Run func(Config)` contract and its
// single-pseudo-shard fold are gone; see DESIGN.md §11.)
type Experiment struct {
	ID    string
	Paper string // which table/figure this regenerates
	Title string
	Plan  func(Config) (*Plan, error)
}

// RunWith executes the experiment with the given worker bound (<=0 selects
// GOMAXPROCS, 1 is the serial reference path).
// Parallel output is bit-identical to serial output: shards are keyed-RNG
// independent and merged in canonical order. Cancelling ctx stops
// scheduling new shards and returns an error satisfying
// errors.Is(err, ctx.Err()).
func (e Experiment) RunWith(ctx context.Context, cfg Config, workers int) (*Result, error) {
	plan, err := e.Plan(cfg)
	if err != nil {
		return nil, err
	}
	parts, err := engine.Run(ctx, plan.Shards, engine.Options{Workers: workers})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	return plan.Merge(parts)
}

// BuildShards decomposes an experiment into engine shards plus a merge
// step. This is THE decomposition path — the service's scheduler and the
// remote worker process both call it, so a shard index means the same unit
// of work on every machine (the distributed determinism contract rests on
// it: plans are pure functions of (ID, Config), so both sides enumerate
// identical shard lists).
func BuildShards(e Experiment, cfg Config) ([]Shard, func(parts []any) (*Result, error), error) {
	plan, err := e.Plan(cfg)
	if err != nil {
		return nil, nil, err
	}
	return plan.Shards, plan.Merge, nil
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("experiments: duplicate ID " + e.ID)
	}
	if e.Plan == nil {
		panic("experiments: " + e.ID + " registered without a Plan (the legacy Run contract is gone)")
	}
	registry[e.ID] = e
}

// Register adds an experiment to the registry. The paper's own artifacts
// register themselves from init; this exported hook exists for extensions
// and service tests that need synthetic experiments (e.g. a controllable
// sweep for cancellation coverage). A nil Plan or duplicate ID panics, as
// in init.
func Register(e Experiment) { register(e) }

// registerShardType records the concrete Go type an experiment's shards
// return with the result cache's codec, giving the experiment an
// encode/decode path for shard-level caching and remote dispatch (see
// internal/cache). Every experiment registers its part type(s) in init,
// next to register; part types must be exported-field structs (or plain
// exported types) so gob can round-trip them — TestShardPartsGobEncodable
// fails the registry otherwise.
func registerShardType(v any) { cache.RegisterType(v) }

func init() {
	// Two shard-result shapes are shared across experiments: plain string
	// rows ([]string), used by table1 and the service tests' synthetic
	// experiments, and the value-list atoms of the split plans fig11,
	// fig13, fig15 and fig23 ([][]float64; see split.go). (Whole *Results
	// are no longer cached — the legacy single-pseudo-shard fold is gone.)
	registerShardType([]string(nil))
	registerShardType([][]float64(nil))
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// fmtMs renders a duration in ms with sensible precision.
func fmtMs(ms float64) string { return fmt.Sprintf("%.1f", ms) }

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v < 0.001:
		return fmt.Sprintf("%.2e", v)
	case v < 1:
		return fmt.Sprintf("%.4f", v)
	case v < 100:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
