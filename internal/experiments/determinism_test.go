package experiments

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestEveryExperimentHasPlan pins the single-contract invariant: the
// registry holds no Run-only experiments — every artifact decomposes into
// shards (most into several; see TestShardLabelsCanonical for the label
// contract).
func TestEveryExperimentHasPlan(t *testing.T) {
	all := All()
	if len(all) < 20 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	for _, e := range all {
		if e.Plan == nil {
			t.Errorf("%s: registered without a Plan", e.ID)
		}
	}
}

var update = flag.Bool("update", false, "rewrite the golden files of the tests that ran from the current output")

// The golden files hold one SHA-256 per report, in sha256sum format
// ("<hex>  <id>.txt"), after a "# resultSchemaVersion" header line. The
// hashed bytes are exactly what `cdlab run all -o dir` writes to
// <dir>/<id>.txt, so the cmd/cdlab end-to-end tests check the CLI's files
// against the small profile's lines.
const (
	smallGoldenPath  = "testdata/golden/small.sha256"
	fullGoldenPath   = "testdata/golden/full.sha256"
	labelsGoldenPath = "testdata/golden/labels.txt"
)

const goldenHeader = "# resultSchemaVersion " + resultSchemaVersion

// readGolden parses a golden file into its header line and an id → hash
// map.
func readGolden(t *testing.T, path string) (string, map[string]string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("golden report hashes: %v (generate with -update)", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		t.Fatalf("%s: empty file", path)
	}
	header := sc.Text()
	want := map[string]string{}
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		id, isTxt := strings.CutSuffix(name, ".txt")
		if !ok || !isTxt || len(sum) != sha256.Size*2 {
			t.Fatalf("%s: malformed line %q", path, sc.Text())
		}
		want[id] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return header, want
}

func writeGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	var b strings.Builder
	b.WriteString(goldenHeader + "\n")
	for _, e := range All() {
		sum, ok := got[e.ID]
		if !ok {
			t.Fatalf("-update needs every experiment's report; %s did not run", e.ID)
		}
		fmt.Fprintf(&b, "%s  %s.txt\n", sum, e.ID)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// reportsHowTo is how a change that means to move report bytes updates
// the golden files.
const reportsHowTo = "if the change is intended, bump resultSchemaVersion in experiments.go " +
	"and regenerate both golden files in the same change: " +
	"go test ./internal/experiments -run 'TestSerialParallelBitIdentical|TestFullProfileGolden' -update"

// checkGolden compares the hashes of the reports that ran against the
// committed golden file: reports must stay byte-identical from one
// revision to the next unless the change means them to move.
func checkGolden(t *testing.T, path string, got map[string]string) {
	t.Helper()
	if *update {
		writeGolden(t, path, got)
		return
	}
	header, want := readGolden(t, path)
	if header != goldenHeader {
		t.Errorf("%s header is %q, want %q; %s", path, header, goldenHeader, reportsHowTo)
	}
	registered := map[string]bool{}
	for _, e := range All() {
		registered[e.ID] = true
		golden, ok := want[e.ID]
		switch sum, ran := got[e.ID]; {
		case !ok:
			t.Errorf("%s: no golden hash for %s; %s", path, e.ID, reportsHowTo)
		case ran && sum != golden:
			t.Errorf("%s report moved: sha256 %s, golden %s (%s); %s", e.ID, sum, golden, path, reportsHowTo)
		}
	}
	for id := range want {
		if !registered[id] {
			t.Errorf("%s: golden hash for unregistered experiment %s; %s", path, id, reportsHowTo)
		}
	}
}

// smallMemo holds one serial run of each experiment at Small(), shared by
// the tests that need the small profile's reports (smallSerial).
var smallMemo struct {
	sync.Mutex
	res    map[string]*Result
	golden map[string]string // small.sha256, read at first use
}

// smallSerial returns e's serial report at Small(), computed once per test
// binary and shared by the tests that sweep the small profile. The run is
// checked against small.sha256 when it is made (except under -update), so
// a test that compares another mode with it — a parallel, split or fresh
// run — checks that mode against the golden file too.
func smallSerial(t *testing.T, e Experiment) *Result {
	t.Helper()
	smallMemo.Lock()
	defer smallMemo.Unlock()
	if r, ok := smallMemo.res[e.ID]; ok {
		return r
	}
	r, err := e.RunWith(context.Background(), Small(), 1)
	if err != nil {
		t.Fatalf("%s at Small(), serial: %v", e.ID, err)
	}
	if !*update {
		if smallMemo.golden == nil {
			_, smallMemo.golden = readGolden(t, smallGoldenPath)
		}
		if sum, golden := reportHash(r), smallMemo.golden[e.ID]; sum != golden {
			t.Fatalf("%s report moved: sha256 %s, golden %q (%s); %s", e.ID, sum, golden, smallGoldenPath, reportsHowTo)
		}
	}
	if smallMemo.res == nil {
		smallMemo.res = map[string]*Result{}
	}
	smallMemo.res[e.ID] = r
	return r
}

// checkGoldenLines compares got, one entry per line, against the
// committed golden file at path, naming the first line that differs;
// -update rewrites the file instead.
func checkGoldenLines(t *testing.T, path, got, howTo string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(raw), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s:%d is %q, want %q (%d lines now, %d golden); %s",
				path, i+1, g, w, len(gotLines), len(wantLines), howTo)
		}
	}
}

// reportHash is the hex SHA-256 of a rendered report.
func reportHash(r fmt.Stringer) string {
	sum := sha256.Sum256([]byte(r.String()))
	return hex.EncodeToString(sum[:])
}

// TestSerialParallelBitIdentical is the engine's end-to-end determinism
// regression: for every registered experiment, the serial reference path
// (workers=1, the shared smallSerial run) and a 4-worker parallel run must
// render byte-identical output. The formerly-serial experiments
// (fig21–fig23, sec61, ttf, the ablations) are covered by the registry
// sweep like everything else. The serial renders are then hashed against
// the committed goldens, which pins the same bytes across revisions
// (-update rewrites them).
func TestSerialParallelBitIdentical(t *testing.T) {
	cfg := Small()
	got := map[string]string{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			serial := smallSerial(t, e)
			parallel, err := e.RunWith(context.Background(), cfg, 4)
			if err != nil {
				t.Fatal(err)
			}
			if s, p := serial.String(), parallel.String(); s != p {
				t.Fatalf("serial and -j 4 output differ for %s:\n--- serial ---\n%s\n--- parallel ---\n%s", e.ID, s, p)
			}
			got[e.ID] = reportHash(serial)
		})
	}
	checkGolden(t, smallGoldenPath, got)
}

// TestFullProfileGolden locks the paper-breadth profile's report bytes the
// way TestSerialParallelBitIdentical locks the small profile's: a change
// that moves only full-profile output must bump resultSchemaVersion too,
// or stale full-profile cache entries would stay valid. One run per
// experiment on GOMAXPROCS workers; worker-count independence is the
// small profile's check.
func TestFullProfileGolden(t *testing.T) {
	cfg := Full()
	got := map[string]string{}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			r, err := e.RunWith(context.Background(), cfg, runtime.GOMAXPROCS(0))
			if err != nil {
				t.Fatal(err)
			}
			got[e.ID] = reportHash(r)
		})
	}
	checkGolden(t, fullGoldenPath, got)
}

// TestShardLabelsCanonical pins the shard-label contract for the whole
// registry: every label is "<id>/key=value[/key=value...]", unique within
// its plan, and free of surrounding whitespace. Labels are cache-key and
// dispatch-wire components, so a drifting or colliding label silently
// aliases cache entries and breaks shard_done event attribution.
func TestShardLabelsCanonical(t *testing.T) {
	cfg := Small()
	for _, e := range All() {
		plan, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", e.ID, err)
		}
		if len(plan.Shards) == 0 {
			t.Fatalf("%s: empty shard list", e.ID)
		}
		if plan.Merge == nil {
			t.Fatalf("%s: nil merge", e.ID)
		}
		seen := map[string]bool{}
		for i, s := range plan.Shards {
			if s.Run == nil {
				t.Fatalf("%s: shard %d has no runner", e.ID, i)
			}
			label := s.Label
			if label == "" {
				t.Fatalf("%s: shard %d has no label", e.ID, i)
			}
			if seen[label] {
				t.Fatalf("%s: duplicate shard label %q", e.ID, label)
			}
			seen[label] = true
			if label != strings.TrimSpace(label) {
				t.Errorf("%s: shard label %q has surrounding whitespace", e.ID, label)
			}
			if !strings.HasPrefix(label, e.ID+"/") {
				t.Errorf("%s: shard label %q does not start with %q", e.ID, label, e.ID+"/")
				continue
			}
			for _, coord := range strings.Split(strings.TrimPrefix(label, e.ID+"/"), "/") {
				key, _, ok := strings.Cut(coord, "=")
				if !ok || key == "" {
					t.Errorf("%s: shard label %q coordinate %q is not key=value", e.ID, label, coord)
				}
			}
		}
	}
}

// TestShardPlansStable verifies a plan is a pure function of (ID, Config):
// two Plan calls enumerate identical shard lists (count and labels). The
// distributed dispatch contract rests on this — the server and a remote
// worker each call Plan and must address the same closure by index.
func TestShardPlansStable(t *testing.T) {
	cfg := Small()
	for _, e := range All() {
		a, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", e.ID, err)
		}
		b, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: second plan: %v", e.ID, err)
		}
		if len(a.Shards) != len(b.Shards) {
			t.Fatalf("%s: plan size changed between calls: %d vs %d", e.ID, len(a.Shards), len(b.Shards))
		}
		for i := range a.Shards {
			if a.Shards[i].Label != b.Shards[i].Label {
				t.Fatalf("%s: shard %d label changed between calls: %q vs %q",
					e.ID, i, a.Shards[i].Label, b.Shards[i].Label)
			}
		}
	}
}

// TestShardLabelsGolden pins every registered experiment's shard labels
// at both named profiles, in plan order, one "profile<TAB>label" line each
// (labels contain spaces). Labels are cache keys and the dispatch wire's
// registry-skew guard, so a label that moves orphans cache entries and
// splits a fleet running mixed builds; a change that means to move them
// says so by regenerating this file.
func TestShardLabelsGolden(t *testing.T) {
	var b strings.Builder
	for _, p := range []struct {
		name string
		cfg  Config
	}{{"small", Small()}, {"full", Full()}} {
		for _, e := range All() {
			plan, err := e.Plan(p.cfg)
			if err != nil {
				t.Fatalf("%s at %s: plan: %v", e.ID, p.name, err)
			}
			for _, s := range plan.Shards {
				fmt.Fprintf(&b, "%s\t%s\n", p.name, s.Label)
			}
		}
	}
	checkGoldenLines(t, labelsGoldenPath, b.String(),
		"if the change is intended, regenerate it: go test ./internal/experiments -run TestShardLabelsGolden -update")
}

// TestFormerlySerialExperimentsMultiShard pins the tentpole of the
// Plan-everywhere refactor: the experiments that used to run through the
// legacy serial Run path as one opaque pseudo-shard now decompose into
// real multi-shard plans, so the engine, cache and dispatcher see them as
// independently schedulable units.
func TestFormerlySerialExperimentsMultiShard(t *testing.T) {
	cfg := Small()
	want := map[string]int{ // minimum shard counts
		"fig21":            5, // 2 modules × 2 intervals + ECC
		"fig22":            4, // strong-RT points
		"fig23":            4, // Small().Mixes + markers
		"sec61":            3, // mechanisms
		"ttf":              6, // 3 mfrs × 2 temperatures
		"ablation-f":       2, // coupling-law variants
		"ablation-bitline": 3, // column classes
	}
	for id, min := range want {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s missing", id)
		}
		plan, err := e.Plan(cfg)
		if err != nil {
			t.Fatalf("%s: plan: %v", id, err)
		}
		if len(plan.Shards) < min {
			t.Errorf("%s: %d shards, want at least %d", id, len(plan.Shards), min)
		}
	}
}
