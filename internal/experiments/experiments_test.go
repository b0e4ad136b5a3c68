package experiments

import (
	"context"
	"strings"
	"testing"
)

func TestRegistryCoversEveryPaperArtifact(t *testing.T) {
	want := []string{
		"table1", "fig2", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "fig22", "fig23", "sec61", "ttf",
		"prvr-sim", "ablation-f", "ablation-bitline",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Errorf("experiment %s missing from registry", id)
		}
	}
	if len(All()) != len(want) {
		t.Errorf("registry has %d experiments, want %d", len(All()), len(want))
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown ID resolved")
	}
}

func TestAllExperimentsRunAtSmallScale(t *testing.T) {
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res := smallSerial(t, e)
			if res.ID != e.ID {
				t.Fatalf("result ID %q, want %q", res.ID, e.ID)
			}
			if len(res.Rows) == 0 {
				t.Fatal("no data rows produced")
			}
			if len(res.Notes) == 0 {
				t.Fatal("no observation notes produced")
			}
			out := res.String()
			if !strings.Contains(out, e.ID) || len(out) < 50 {
				t.Fatalf("rendering looks broken:\n%s", out)
			}
		})
	}
}

// TestExperimentsDeterministic reruns experiments from scratch and
// compares each fresh report with the shared smallSerial one.
func TestExperimentsDeterministic(t *testing.T) {
	cfg := Small()
	for _, id := range []string{"fig6", "fig11", "fig23"} {
		e, _ := ByID(id)
		a := smallSerial(t, e)
		b, err := e.RunWith(context.Background(), cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if a.String() != b.String() {
			t.Fatalf("%s not deterministic for a fixed config", id)
		}
	}
}

func TestConfigScales(t *testing.T) {
	s, f := Small(), Full()
	if s.SubarraysPerModule >= f.SubarraysPerModule {
		t.Fatal("full config must sweep more subarrays")
	}
	if s.Mixes >= f.Mixes {
		t.Fatal("full config must run more mixes")
	}
	if f.Mixes != 20 {
		t.Fatal("the paper evaluates 20 workload mixes")
	}
}

func TestResultRendering(t *testing.T) {
	r := &Result{ID: "x", Title: "t", Headers: []string{"a", "bb"}}
	r.AddRow("1", "2")
	r.AddNote("hello %d", 5)
	out := r.String()
	for _, want := range []string{"== x — t ==", "a  bb", "1  2", "note: hello 5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendering missing %q:\n%s", want, out)
		}
	}
}

// Observation-level regression checks: the headline shapes the reproduction
// must preserve (loose bands — each report's `(paper: …)` notes and
// DESIGN.md §5 give the exact factors).
func TestHeadlineShapes(t *testing.T) {
	t.Run("fig6-scaling", func(t *testing.T) {
		e, _ := ByID("fig6")
		res := smallSerial(t, e)
		joined := strings.Join(res.Notes, "\n")
		if !strings.Contains(joined, "Obs 2") {
			t.Fatal("missing die-scaling note")
		}
	})

	t.Run("sec61-anchors", func(t *testing.T) {
		e, _ := ByID("sec61")
		res := smallSerial(t, e)
		joined := strings.Join(res.Notes, " ")
		if !strings.Contains(joined, "PRVR reduces") {
			t.Fatal("missing PRVR comparison")
		}
	})

	t.Run("fig21-miscorrection", func(t *testing.T) {
		e, _ := ByID("fig21")
		res := smallSerial(t, e)
		joined := strings.Join(res.Notes, " ")
		if !strings.Contains(joined, "miscorrects 88") {
			t.Fatalf("SEC miscorrection should land near the paper's 88.5%%: %s", joined)
		}
	})
}
