package ecc

import (
	"testing"
	"testing/quick"

	"columndisturb/internal/sim/rng"
)

func TestCodeShapes(t *testing.T) {
	cases := []struct{ data, n int }{
		{4, 7},     // (7,4)
		{64, 71},   // (71,64)
		{128, 136}, // (136,128) on-die ECC
	}
	for _, c := range cases {
		code, err := NewSEC(c.data)
		if err != nil {
			t.Fatal(err)
		}
		if code.N != c.n || code.K != c.data {
			t.Errorf("NewSEC(%d) = (%d,%d), want (%d,%d)", c.data, code.N, code.K, c.n, c.data)
		}
	}
	if _, err := NewSEC(0); err == nil {
		t.Fatal("zero data bits must fail")
	}
}

func randData(r *rng.Rand, k int) []byte {
	d := make([]byte, k)
	for i := range d {
		d[i] = byte(r.Uint64() & 1)
	}
	return d
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rng.New(1)
	for _, k := range []int{4, 64, 128} {
		c, err := NewSEC(k)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			data := randData(r, k)
			cw, err := c.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			got, res, err := c.Decode(cw)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusClean {
				t.Fatalf("clean codeword decoded as %v", res.Status)
			}
			if !bytesEqual(got, data) {
				t.Fatal("round trip corrupted data")
			}
		}
	}
}

func TestSingleErrorCorrection(t *testing.T) {
	r := rng.New(2)
	for _, k := range []int{4, 64, 128} {
		c, _ := NewSEC(k)
		for trial := 0; trial < 100; trial++ {
			data := randData(r, k)
			cw, _ := c.Encode(data)
			pos := r.Intn(c.N)
			cw[pos] ^= 1
			got, res, err := c.Decode(cw)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != StatusCorrected {
				t.Fatalf("single error not corrected: %v", res.Status)
			}
			if res.FlippedPos != pos+1 {
				t.Fatalf("corrected position %d, want %d", res.FlippedPos, pos+1)
			}
			if !bytesEqual(got, data) {
				t.Fatal("single-error correction returned wrong data")
			}
		}
	}
}

func TestEncodeValidatesLength(t *testing.T) {
	c, _ := NewSEC(4)
	if _, err := c.Encode(make([]byte, 5)); err == nil {
		t.Fatal("wrong data length accepted")
	}
	if _, _, err := c.Decode(make([]byte, 3)); err == nil {
		t.Fatal("wrong codeword length accepted")
	}
}

func TestParityBitsPowerOfTwoProperty(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := int(kRaw%120) + 4
		c, err := NewSEC(k)
		if err != nil {
			return false
		}
		for _, p := range c.parityPos {
			if p&(p-1) != 0 {
				return false
			}
		}
		return len(c.parityPos)+len(c.dataPos) == c.N
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestOverhead(t *testing.T) {
	// Obs 26: a (7,4) code costs 75% storage overhead.
	if got := Overhead(7, 4); got != 0.75 {
		t.Fatalf("(7,4) overhead %v, want 0.75", got)
	}
	if got := Overhead(136, 128); got != 0.0625 {
		t.Fatalf("(136,128) overhead %v", got)
	}
}

func TestMiscorrectionRate136(t *testing.T) {
	// Obs 27: the (136,128) SEC code miscorrects ≈88.5% of random
	// double-error codewords (the paper's 10K-codeword experiment).
	c, _ := NewSEC(128)
	res := MiscorrectionExperiment(c, 10000, rng.New(42))
	if res.Trials != 10000 {
		t.Fatal("trial bookkeeping wrong")
	}
	rate := res.MiscorrectionRate()
	if rate < 0.85 || rate < 0.80 || rate > 0.93 {
		t.Fatalf("miscorrection rate %.3f, paper reports ≈0.885", rate)
	}
	if res.Miscorrected+res.Detected+res.LuckyData != res.Trials {
		t.Fatal("classification does not partition trials")
	}
}

// TestMiscorrectionExperimentReusesBuffers checks that the experiment's
// reused codeword and data buffers give the same classification as fresh
// Encode/Decode slices per trial, and that its allocations do not grow
// with the trial count.
func TestMiscorrectionExperimentReusesBuffers(t *testing.T) {
	fresh := func(c *SEC, trials int, r *rng.Rand) MiscorrectionResult {
		res := MiscorrectionResult{Trials: trials}
		for trial := 0; trial < trials; trial++ {
			data := make([]byte, c.K)
			for i := range data {
				data[i] = byte(r.Uint64() & 1)
			}
			cw, _ := c.Encode(data)
			i := r.Intn(c.N)
			j := r.Intn(c.N - 1)
			if j >= i {
				j++
			}
			cw[i] ^= 1
			cw[j] ^= 1
			got, dres, _ := c.Decode(cw)
			switch {
			case dres.Status == StatusDetected:
				res.Detected++
			case dres.Status == StatusCorrected && bytesEqual(got, data):
				res.LuckyData++
			default:
				res.Miscorrected++
			}
		}
		return res
	}
	for _, k := range []int{4, 64, 128} {
		c, _ := NewSEC(k)
		if got, want := MiscorrectionExperiment(c, 2000, rng.New(7)), fresh(c, 2000, rng.New(7)); got != want {
			t.Fatalf("SEC(%d): reused buffers give %+v, fresh slices %+v", k, got, want)
		}
	}

	c, _ := NewSEC(128)
	r := rng.New(1)
	allocs := func(trials int) float64 {
		return testing.AllocsPerRun(5, func() { MiscorrectionExperiment(c, trials, r) })
	}
	if few, many := allocs(1), allocs(1000); many != few || many > 3 {
		t.Fatalf("allocs per experiment: %v at 1 trial, %v at 1000 trials; want the same, at most 3", few, many)
	}
}

// TestEncodeIntoOverwritesBuffer checks that encoding into a reused
// codeword buffer ignores whatever the previous codeword left there.
func TestEncodeIntoOverwritesBuffer(t *testing.T) {
	c, _ := NewSEC(128)
	r := rng.New(3)
	cw := make([]byte, c.N)
	for trial := 0; trial < 100; trial++ {
		for i := range cw {
			cw[i] = byte(r.Uint64() & 1)
		}
		data := randData(r, c.K)
		c.encodeInto(cw, data)
		want, _ := c.Encode(data)
		if !bytesEqual(cw, want) {
			t.Fatalf("trial %d: encodeInto over a used buffer differs from Encode", trial)
		}
	}
}

func TestMiscorrectionAddsThirdFlip(t *testing.T) {
	// A miscorrection turns a 2-error codeword into a 3-error one: verify
	// the Hamming distance to the original codeword grows.
	c, _ := NewSEC(128)
	r := rng.New(5)
	sawMiscorrection := false
	for trial := 0; trial < 200 && !sawMiscorrection; trial++ {
		data := randData(r, 128)
		orig, _ := c.Encode(data)
		cw := append([]byte(nil), orig...)
		i, j := 0, 1
		cw[i] ^= 1
		cw[j] ^= 1
		_, res, _ := c.Decode(cw)
		if res.Status == StatusCorrected && res.FlippedPos != i+1 && res.FlippedPos != j+1 {
			dist := 0
			for b := range cw {
				if cw[b] != orig[b] {
					dist++
				}
			}
			if dist != 3 {
				t.Fatalf("miscorrected codeword at distance %d, want 3", dist)
			}
			sawMiscorrection = true
		}
		// vary the injected pair
		i = r.Intn(c.N)
	}
}

func TestSEC74AlwaysActsOnDoubleErrors(t *testing.T) {
	// The full-length (7,4) code has no invalid syndromes: every double
	// error is miscorrected, never detected (why SEC alone is dangerous).
	c, _ := NewSEC(4)
	res := MiscorrectionExperiment(c, 2000, rng.New(6))
	if res.Detected != 0 {
		t.Fatalf("(7,4) has no invalid syndromes, got %d detections", res.Detected)
	}
}
