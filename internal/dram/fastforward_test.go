package dram

import (
	"math"
	"testing"
)

// literalHammer issues the single-aggressor pattern one command at a
// time: n cycles of ACT row, tAggOn, PRE, tRP.
func literalHammer(d *Device, bank, row, n int, tAggOnNs, tRPNs float64) error {
	for i := 0; i < n; i++ {
		if err := d.Activate(bank, row); err != nil {
			return err
		}
		d.AdvanceNs(tAggOnNs)
		if err := d.Precharge(bank); err != nil {
			return err
		}
		d.AdvanceNs(tRPNs)
	}
	return nil
}

// literalTwoAggressor issues the two-aggressor pattern one command at a
// time: n pairs of ACT row1, tAggOn, PRE, tRP, ACT row2, tAggOn, PRE, tRP.
func literalTwoAggressor(d *Device, bank, row1, row2, n int, tAggOnNs, tRPNs float64) error {
	for i := 0; i < n; i++ {
		if err := literalHammer(d, bank, row1, 1, tAggOnNs, tRPNs); err != nil {
			return err
		}
		if err := literalHammer(d, bank, row2, 1, tAggOnNs, tRPNs); err != nil {
			return err
		}
	}
	return nil
}

// hammerPattern is one access pattern of bank 0: n cycles of the
// single-aggressor pattern on row.
type hammerPattern struct {
	row, n          int
	tAggOnNs, tRPNs float64
}

// runPattern issues p fast-forwarded or literally.
func runPattern(d *Device, p hammerPattern, literal bool) error {
	if literal {
		return literalHammer(d, 0, p.row, p.n, p.tAggOnNs, p.tRPNs)
	}
	return d.Hammer(0, p.row, p.n, p.tAggOnNs, p.tRPNs)
}

// hammerReadback opens a fresh device at tempC, fills every row with
// all-1 victims, writes all-0 into the first pattern's aggressor, runs
// the patterns back to back with fast-forward or literal commands, and
// returns every row of the bank as read back afterwards.
func hammerReadback(t testing.TB, seed uint64, tempC float64, pats []hammerPattern, literal bool) [][]uint64 {
	t.Helper()
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), seed)
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
	if err := d.WriteRowPattern(0, pats[0].row, Pat00); err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		if err := runPattern(d, p, literal); err != nil {
			t.Fatal(err)
		}
	}
	rows := make([][]uint64, g.RowsPerBank())
	for r := range rows {
		if rows[r], err = d.ReadRow(0, r); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// checkMatchesLiteral is checkMatchesLiteralAt the reference temperature,
// 85 °C.
func checkMatchesLiteral(t testing.TB, seed uint64, pats ...hammerPattern) ([][]uint64, int) {
	t.Helper()
	return checkMatchesLiteralAt(t, seed, testParams(SmallGeometry()).RefTempC, pats...)
}

// checkMatchesLiteralAt requires the fast-forwarded patterns to leave every
// row of the bank bit for bit as literal command-by-command execution
// does at tempC. It returns the fast-forward's read-back rows and the
// number of cells that differ from the initial fill, so callers can make
// sure the comparison was not vacuous.
func checkMatchesLiteralAt(t testing.TB, seed uint64, tempC float64, pats ...hammerPattern) ([][]uint64, int) {
	t.Helper()
	fast := hammerReadback(t, seed, tempC, pats, false)
	lit := hammerReadback(t, seed, tempC, pats, true)
	flipped := 0
	for r := range fast {
		if mism := CountMismatches(fast[r], lit[r]); mism != 0 {
			t.Fatalf("seed %d, %v °C, patterns %+v: row %d differs in %d bits between fast-forward and literal execution",
				seed, tempC, pats, r, mism)
		}
		want := make([]uint64, len(fast[r]))
		pat := PatFF
		if r == pats[0].row {
			pat = Pat00
		}
		FillWords(want, pat)
		flipped += CountMismatches(fast[r], want)
	}
	return fast, flipped
}

func TestLoopFastForwardMatchesLiteral(t *testing.T) {
	g := SmallGeometry()
	base := g.SubarrayBase(1)
	for _, c := range []struct {
		name   string
		n      int
		tAggOn float64
	}{
		{"single/press", 150, 70_200},
		{"single/hammer", 3000, 36},
		{"single/refresh-interval", 400, 7_800},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := hammerPattern{row: base + 7, n: c.n, tAggOnNs: c.tAggOn, tRPNs: 14}
			if _, flipped := checkMatchesLiteral(t, 2, p); c.tAggOn == 70_200 && flipped == 0 {
				t.Fatal("no cell flipped: the pressing case compares nothing")
			}
		})
	}
}

// An ACT issued right when a pattern ends follows the last PRE by a full
// tRP, so it opens its own row: it must not RowClone the aggressor into it,
// after a fast-forward or after literal execution.
func TestActivateAfterHammerIsNoRowClone(t *testing.T) {
	base := SmallGeometry().SubarrayBase(1)
	victim := base + 12
	for _, literal := range []bool{false, true} {
		d := newTestDevice(t, 3)
		if err := d.WriteRowPattern(0, base+7, Pat00); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteRowPattern(0, victim, PatFF); err != nil {
			t.Fatal(err)
		}
		p := hammerPattern{row: base + 7, n: 10, tAggOnNs: 36, tRPNs: 14}
		if err := runPattern(d, p, literal); err != nil {
			t.Fatal(err)
		}
		if err := literalHammer(d, 0, victim, 1, 36, 14); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadRow(0, victim)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]uint64, len(got))
		FillWords(want, PatFF)
		if n := CountMismatches(got, want); n != 0 {
			t.Errorf("literal=%v: ACT after the pattern changed %d bits of the opened row", literal, n)
		}
	}
}

// A pattern's first ACT is an ordinary ACT: issued inside the RowClone
// window of the previous pattern's last PRE, it copies that row into its
// own. Row 40 holds all-0 and row 50 all-1, so the copy shows in every bit
// of row 50.
func TestHammerFirstActRowClones(t *testing.T) {
	first := hammerPattern{row: 40, n: 10, tAggOnNs: 7_800, tRPNs: 2}
	second := hammerPattern{row: 50, n: 10, tAggOnNs: 7_800, tRPNs: 14}
	rows, _ := checkMatchesLiteral(t, 5, first, second)
	zeros := make([]uint64, len(rows[50]))
	if n := CountMismatches(rows[50], zeros); n != 0 {
		t.Errorf("row 50 differs from the copied all-0 row 40 in %d bits", n)
	}
}

// fuzzShape packs one fuzzed pattern's row, count and tAggOn scale into
// a uint64: the row in bits 0–15, the count in bits 16–31 and the scale
// in bits 32–39.
func fuzzShape(row, n uint16, scale uint8) uint64 {
	return uint64(row) | uint64(n)<<16 | uint64(scale)<<32
}

// FuzzHammerMatchesLiteral runs one to three patterns back to back on one
// device and compares the fast-forwards with literal execution over the
// seed, the temperature (0 to 95 °C), the aggressor rows, the cycle counts
// and the timings. Every row lands in the subarray of the first pattern's
// aggressor, so a pattern's first ACT can RowClone the previous pattern's
// last row. tRP spans [0, 100 µs]. tAggOn is a value in [0, 100 µs] times
// 2^k, with k in 0–19 drawn from the shape's scale, so its magnitude is
// log-uniform up to about 52 s. The count is capped at max(3000>>k, 4),
// which keeps a pattern to about a second of simulated time up to k = 9
// and to at most four cycles beyond, so every case stays cheap. Powers of
// two scale exactly, so a seed written at k = 0 keeps its exact tAggOn.
// Every pattern must leave every row bit for bit as literal execution
// does.
func FuzzHammerMatchesLiteral(f *testing.F) {
	f.Add(uint64(2), uint8(0), 85.0, fuzzShape(39, 150, 0), 70_200.0, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(3), uint8(0), 85.0, fuzzShape(39, 3000, 0), 36.0, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(4), uint8(0), 85.0, fuzzShape(70, 400, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(5), uint8(0), 85.0, fuzzShape(0, 2000, 0), 0.0, 6.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	// A pattern's first ACT inside the RowClone window of the last PRE.
	f.Add(uint64(5), uint8(1), 85.0, fuzzShape(40, 10, 0), 7_800.0, 2.0, fuzzShape(50, 10, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0)
	// An aggressor that idled since its write, about 210 ms under the first
	// pattern's RowPress: its first ACT latches its retention and
	// ColumnDisturb flips.
	f.Add(uint64(2), uint8(1), 85.0, fuzzShape(40, 3000, 0), 70_200.0, 14.0, fuzzShape(50, 10, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0)
	// One aggressor open for 10 s (76,293.9453125 ns × 2^17) at 25 °C.
	f.Add(uint64(3), uint8(0), 25.0, fuzzShape(39, 2, 17), 76_293.9453125, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, count uint8, tempC float64,
		shape1 uint64, on1, rp1 float64,
		shape2 uint64, on2, rp2 float64,
		shape3 uint64, on3, rp3 float64) {
		g := SmallGeometry()
		base := g.SubarrayBase(g.SubarrayOf(int(uint16(shape1)) % g.RowsPerBank()))
		const maxNs = 100_000.0
		shapes := [...]uint64{shape1, shape2, shape3}
		ons := [...]float64{on1, on2, on3}
		rps := [...]float64{rp1, rp2, rp3}
		pats := make([]hammerPattern, 1+int(count)%3)
		for i := range pats {
			s := shapes[i]
			k := int(uint8(s>>32)) % 20
			pats[i] = hammerPattern{
				row:      base + int(uint16(s))%g.RowsPerSubarray,
				n:        int(uint16(s>>16)) % (max(3000>>k, 4) + 1),
				tAggOnNs: math.Ldexp(foldInto(ons[i], 0, maxNs), k),
				tRPNs:    foldInto(rps[i], 0, maxNs),
			}
		}
		checkMatchesLiteralAt(t, seed, foldInto(tempC, 0, 95), pats...)
	})
}
