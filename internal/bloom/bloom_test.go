package bloom

import (
	"math"
	"testing"
	"testing/quick"

	"columndisturb/internal/sim/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(32, 6); err == nil {
		t.Fatal("tiny filter accepted")
	}
	if _, err := New(8192, 0); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := New(8192, 64); err == nil {
		t.Fatal("absurd k accepted")
	}
	f, err := New(8192, 6)
	if err != nil {
		t.Fatal(err)
	}
	if f.M() != 8192 || f.K() != 6 {
		t.Fatal("parameters not stored")
	}
}

func TestNoFalseNegatives(t *testing.T) {
	f, _ := New(8192, 6)
	keys := func(n int) []uint64 {
		r := rng.New(1)
		out := make([]uint64, n)
		for i := range out {
			out[i] = r.Uint64() >> 1 // stay out of the probe tag space
		}
		return out
	}(500)
	for _, k := range keys {
		f.Add(k)
	}
	if f.Count() != 500 {
		t.Fatalf("count %d", f.Count())
	}
	for _, k := range keys {
		if !f.Test(k) {
			t.Fatalf("false negative for %d — structurally impossible", k)
		}
	}
}

func TestFalseNegativeProperty(t *testing.T) {
	f, _ := New(4096, 4)
	check := func(key uint64) bool {
		f.Add(key)
		return f.Test(key)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyFilterRejectsEverything(t *testing.T) {
	f, _ := New(8192, 6)
	r := rng.New(2)
	for i := 0; i < 1000; i++ {
		if f.Test(r.Uint64()) {
			t.Fatal("empty filter must reject all keys")
		}
	}
}

func TestFalsePositiveRateNearTheory(t *testing.T) {
	// The paper's RAIDR configuration: 8 Kbit, 6 hashes. Verify empirical
	// FPR tracks the analytic estimate across fill levels.
	for _, n := range []int{100, 500, 1500} {
		f, _ := New(8192, 6)
		r := rng.New(uint64(n))
		for i := 0; i < n; i++ {
			f.Add(r.Uint64() >> 1)
		}
		emp := f.FalsePositiveRate(30000, r)
		theory := f.TheoreticalFPR(n)
		if math.Abs(emp-theory) > 0.02+theory*0.35 {
			t.Errorf("n=%d: empirical FPR %.4f vs theory %.4f", n, emp, theory)
		}
	}
}

func TestFPRGrowsWithLoad(t *testing.T) {
	f, _ := New(8192, 6)
	prev := -1.0
	for _, n := range []int{0, 200, 800, 3200} {
		got := f.TheoreticalFPR(n)
		if got < prev {
			t.Fatal("FPR must grow with inserted keys")
		}
		prev = got
	}
	if f.TheoreticalFPR(0) != 0 {
		t.Fatal("empty filter has zero theoretical FPR")
	}
}

func TestFalsePositiveRateEdge(t *testing.T) {
	f, _ := New(8192, 6)
	if f.FalsePositiveRate(0, rng.New(1)) != 0 {
		t.Fatal("zero probes should yield zero rate")
	}
}
