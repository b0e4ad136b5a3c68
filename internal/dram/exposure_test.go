package dram

import (
	"testing"
	"testing/quick"
)

// TestHammerSplitEquivalence: issuing N+M activations in one campaign must
// equal two back-to-back campaigns of N and M — exposure integration is
// additive over epochs.
func TestHammerSplitEquivalence(t *testing.T) {
	g := SmallGeometry()
	p := testParams(g)
	run := func(split bool) []uint64 {
		d, err := NewDevice(g, p, DDR4Timing(), 99)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		agg := g.SubarrayBase(1) + 10
		if err := d.WriteRowPattern(0, agg, Pat00); err != nil {
			t.Fatal(err)
		}
		if split {
			if err := d.Hammer(0, agg, 120, 70200, 14); err != nil {
				t.Fatal(err)
			}
			if err := d.Hammer(0, agg, 80, 70200, 14); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := d.Hammer(0, agg, 200, 70200, 14); err != nil {
				t.Fatal(err)
			}
		}
		var all []uint64
		for r := 0; r < g.RowsPerBank(); r++ {
			got, err := d.ReadRow(0, r)
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, got...)
		}
		return all
	}
	whole, split := run(false), run(true)
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatal("split hammer campaigns must equal one combined campaign")
		}
	}
}

// TestRefreshIdempotence: a read commits the row's pending faults and
// restores it, so a second read at the same instant returns exactly what
// the first one did.
func TestRefreshIdempotence(t *testing.T) {
	d := newTestDevice(t, 101)
	g := d.Geometry()
	for r := 0; r < g.RowsPerBank(); r++ {
		if err := d.WriteRowPattern(0, r, PatFF); err != nil {
			t.Fatal(err)
		}
	}
	d.AdvanceNs(200 * msNs)
	ones := make([]uint64, g.WordsPerRow())
	FillWords(ones, PatFF)
	flips := 0
	for r := 0; r < g.RowsPerBank(); r++ {
		first, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		second, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if CountMismatches(first, second) != 0 {
			t.Fatalf("second immediate read changed row %d", r)
		}
		flips += CountMismatches(first, ones)
	}
	if flips == 0 {
		t.Fatal("no cell flipped in 200 ms: the reads compare nothing")
	}
}

// TestBitflipsMonotoneInTime: letting a device decay longer can only add
// bitflips, never remove them (for any idle duration pair).
func TestBitflipsMonotoneInTime(t *testing.T) {
	g := SmallGeometry()
	p := testParams(g)
	flipsAfter := func(ms float64) int {
		d, err := NewDevice(g, p, DDR4Timing(), 103)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		d.AdvanceNs(ms * msNs)
		ones := make([]uint64, g.WordsPerRow())
		FillWords(ones, PatFF)
		n := 0
		for r := 0; r < g.RowsPerBank(); r++ {
			got, err := d.ReadRow(0, r)
			if err != nil {
				t.Fatal(err)
			}
			n += CountMismatches(got, ones)
		}
		return n
	}
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%2000) + 1
		b := float64(bRaw%2000) + 1
		if a > b {
			a, b = b, a
		}
		return flipsAfter(a) <= flipsAfter(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestTemperatureMonotonicity: a hotter device accumulates at least as many
// bitflips over the same interval.
func TestTemperatureMonotonicity(t *testing.T) {
	g := SmallGeometry()
	p := testParams(g)
	flipsAt := func(tempC float64) int {
		d, err := NewDevice(g, p, DDR4Timing(), 104)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.SetTemperature(tempC); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		agg := g.SubarrayBase(1) + 7
		hammerFor(t, d, agg, 20*msNs, 70200, 14)
		ones := make([]uint64, g.WordsPerRow())
		FillWords(ones, PatFF)
		n := 0
		for r := 0; r < g.RowsPerBank(); r++ {
			got, err := d.ReadRow(0, r)
			if err != nil {
				t.Fatal(err)
			}
			n += CountMismatches(got, ones)
		}
		return n
	}
	c45, c85, c95 := flipsAt(45), flipsAt(85), flipsAt(95)
	if !(c45 <= c85 && c85 <= c95) {
		t.Fatalf("bitflips must be monotone in temperature: %d %d %d", c45, c85, c95)
	}
	if c95 == 0 {
		t.Fatal("expected bitflips at 95 °C")
	}
}
