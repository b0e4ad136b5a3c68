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

// literalHammerTwo issues the two-aggressor pattern one command at a
// time: n pairs of ACT row1, tAggOn, PRE, tRP, ACT row2, tAggOn, PRE, tRP.
func literalHammerTwo(d *Device, bank, row1, row2, n int, tAggOnNs, tRPNs float64) error {
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
// single-aggressor pattern on row1 (row2 < 0), or n pairs of the
// two-aggressor pattern on row1 and row2.
type hammerPattern struct {
	row1, row2, n   int
	tAggOnNs, tRPNs float64
}

// runPattern issues p fast-forwarded or literally.
func runPattern(d *Device, p hammerPattern, literal bool) error {
	switch {
	case p.row2 < 0 && literal:
		return literalHammer(d, 0, p.row1, p.n, p.tAggOnNs, p.tRPNs)
	case p.row2 < 0:
		return d.Hammer(0, p.row1, p.n, p.tAggOnNs, p.tRPNs)
	case literal:
		return literalHammerTwo(d, 0, p.row1, p.row2, p.n, p.tAggOnNs, p.tRPNs)
	default:
		return d.HammerTwo(0, p.row1, p.row2, p.n, p.tAggOnNs, p.tRPNs)
	}
}

// hammerReadback opens a fresh device at tempC, fills every row with
// all-1 victims, writes all-0 into the first pattern's first aggressor
// (its second aggressor keeps all-1: the complementary pair of §5.3),
// runs the patterns back to back with fast-forward or literal commands,
// and returns every row of the bank as read back afterwards.
//
// A two-aggressor pattern whose tRP is inside the RowClone window is one
// HammerTwo must refuse: the fast-forward side requires the error, and
// neither side issues the pattern.
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
	if err := d.WriteRowPattern(0, pats[0].row1, Pat00); err != nil {
		t.Fatal(err)
	}
	for _, p := range pats {
		if p.row2 >= 0 && p.tRPNs < d.timing.RowCloneViolationNs {
			if !literal {
				if err := runPattern(d, p, false); err == nil {
					t.Fatalf("HammerTwo accepted %+v: tRP is inside the %v ns RowClone window", p, d.timing.RowCloneViolationNs)
				}
			}
			continue
		}
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
		if r == pats[0].row1 {
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
		name    string
		row2, n int
		tAggOn  float64
	}{
		{"single/press", -1, 150, 70_200},
		{"single/hammer", -1, 3000, 36},
		{"single/refresh-interval", -1, 400, 7_800},
		{"two/press", base + 12, 150, 70_200},
		{"two/hammer", base + 12, 3000, 36},
		{"two/refresh-interval", base + 12, 400, 7_800},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := hammerPattern{row1: base + 7, row2: c.row2, n: c.n, tAggOnNs: c.tAggOn, tRPNs: 14}
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
	for _, agg2 := range []int{-1, base + 9} {
		for _, literal := range []bool{false, true} {
			d := newTestDevice(t, 3)
			if err := d.WriteRowPattern(0, base+7, Pat00); err != nil {
				t.Fatal(err)
			}
			if err := d.WriteRowPattern(0, victim, PatFF); err != nil {
				t.Fatal(err)
			}
			p := hammerPattern{row1: base + 7, row2: agg2, n: 10, tAggOnNs: 36, tRPNs: 14}
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
				t.Errorf("second aggressor %d, literal=%v: ACT after the pattern changed %d bits of the opened row", agg2, literal, n)
			}
		}
	}
}

// A pattern's first ACT is an ordinary ACT: issued inside the RowClone
// window of the previous pattern's last PRE, it copies that row into its
// own. Row 40 holds all-0 and row 50 all-1, so the copy shows in every bit
// of row 50.
func TestHammerFirstActRowClones(t *testing.T) {
	first := hammerPattern{row1: 40, row2: -1, n: 10, tAggOnNs: 7_800, tRPNs: 2}
	for _, second := range []hammerPattern{
		{row1: 50, row2: -1, n: 10, tAggOnNs: 7_800, tRPNs: 14},
		{row1: 50, row2: 53, n: 10, tAggOnNs: 7_800, tRPNs: 14},
	} {
		rows, _ := checkMatchesLiteral(t, 5, first, second)
		zeros := make([]uint64, len(rows[50]))
		if n := CountMismatches(rows[50], zeros); n != 0 {
			t.Errorf("second pattern %+v: row 50 differs from the copied all-0 row 40 in %d bits", second, n)
		}
	}
}

// fuzzShape packs one fuzzed pattern's rows, count and tAggOn scale into
// a uint64: row1 in bits 0–15, row2 in bits 16–31, the count in bits
// 32–47 and the scale in bits 48–55.
func fuzzShape(row1, row2, n uint16, scale uint8) uint64 {
	return uint64(row1) | uint64(row2)<<16 | uint64(n)<<32 | uint64(scale)<<48
}

// FuzzHammerMatchesLiteral runs one to three patterns back to back on one
// device and compares the fast-forwards with literal execution over the
// seed, the temperature (0 to 95 °C), the aggressor rows, the cycle counts
// and the timings. Every row lands in the subarray of the first pattern's
// first aggressor, so a pattern's first ACT can RowClone the previous
// pattern's last row; a pattern whose second row equals its first is
// single-aggressor. tRP spans [0, 100 µs]. tAggOn is a value in
// [0, 100 µs] times 2^k, with k in 0–19 drawn from the shape's scale, so
// its magnitude is log-uniform up to about 52 s. The count is capped at
// max(3000>>k, 4), which keeps a pattern to about a second of simulated
// time up to k = 9 and to at most four cycles beyond, so every case stays
// cheap. Powers of two scale exactly, so a seed written at k = 0 keeps its
// exact tAggOn.
// HammerTwo must fail exactly when tRP is inside the RowClone window;
// every other pattern must leave every row bit for bit as literal
// execution does.
func FuzzHammerMatchesLiteral(f *testing.F) {
	f.Add(uint64(2), uint8(0), 85.0, fuzzShape(39, 44, 150, 0), 70_200.0, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(3), uint8(0), 85.0, fuzzShape(39, 39, 3000, 0), 36.0, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(4), uint8(0), 85.0, fuzzShape(70, 65, 400, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(5), uint8(0), 85.0, fuzzShape(0, 31, 2000, 0), 0.0, 6.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	// HammerTwo with tRP inside the RowClone window.
	f.Add(uint64(1), uint8(0), 85.0, fuzzShape(40, 44, 150, 0), 70_200.0, 2.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	// A pattern's first ACT inside the RowClone window of the last PRE.
	f.Add(uint64(5), uint8(1), 85.0, fuzzShape(40, 40, 10, 0), 7_800.0, 2.0, fuzzShape(50, 50, 10, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0)
	// A two-aggressor tRP of exactly the RowClone window: issued literally,
	// ACT row2 lands at the rounded clock PRE + tRP, a gap that measured
	// 5.999999999999999 ns from the PRE and so copied row 42 into row 50.
	f.Add(uint64(32), uint8(0), 85.0, fuzzShape(42, 50, 10, 0), 7.738095238095237, 6.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	// Aggressors that idled since their write, about 210 ms under the first
	// pattern's RowPress: each one's first ACT latches its retention and
	// ColumnDisturb flips.
	f.Add(uint64(2), uint8(1), 85.0, fuzzShape(40, 40, 3000, 0), 70_200.0, 14.0, fuzzShape(50, 50, 10, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0)
	f.Add(uint64(2), uint8(1), 85.0, fuzzShape(40, 40, 3000, 0), 70_200.0, 14.0, fuzzShape(50, 53, 10, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0)
	// Adjacent aggressors over many pairs: each ACT restores its row, so
	// row1 carries only row2's last open interval of RowPress, not one per
	// pair.
	f.Add(uint64(2), uint8(1), 85.0, fuzzShape(39, 40, 3000, 0), 70_200.0, 14.0, fuzzShape(32, 50, 10, 0), 7_800.0, 14.0, uint64(0), 0.0, 0.0)
	// All-1 aggressors open for 1 s (61,035.15625 ns × 2^14): each decays
	// while the other is open, and row1 also after its last PRE.
	f.Add(uint64(2), uint8(1), 85.0, fuzzShape(40, 40, 1, 0), 36.0, 14.0, fuzzShape(35, 50, 3, 14), 61_035.15625, 14.0, uint64(0), 0.0, 0.0)
	// Aggressors open for 0.5 s (61,035.15625 ns × 2^13) whose first pair
	// flips neither of them while a later pair does: the first pair's
	// ACTs commit different intervals, so it cannot show a steady state.
	f.Add(uint64(2), uint8(1), 85.0, fuzzShape(40, 40, 1, 0), 36.0, 14.0, fuzzShape(48, 53, 4, 13), 61_035.15625, 14.0, uint64(0), 0.0, 0.0)
	// One aggressor open for 10 s (76,293.9453125 ns × 2^17) at 25 °C.
	f.Add(uint64(3), uint8(0), 25.0, fuzzShape(39, 39, 2, 17), 76_293.9453125, 14.0, uint64(0), 0.0, 0.0, uint64(0), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, seed uint64, count uint8, tempC float64,
		shape1 uint64, on1, rp1 float64,
		shape2 uint64, on2, rp2 float64,
		shape3 uint64, on3, rp3 float64) {
		g := SmallGeometry()
		base := g.SubarrayBase(g.SubarrayOf(int(uint16(shape1)) % g.RowsPerBank()))
		row := func(x uint64) int { return base + int(uint16(x))%g.RowsPerSubarray }
		const maxNs = 100_000.0
		shapes := [...]uint64{shape1, shape2, shape3}
		ons := [...]float64{on1, on2, on3}
		rps := [...]float64{rp1, rp2, rp3}
		pats := make([]hammerPattern, 1+int(count)%3)
		for i := range pats {
			s := shapes[i]
			k := int(uint8(s>>48)) % 20
			p := hammerPattern{
				row1:     row(s),
				row2:     row(s >> 16),
				n:        int(uint16(s>>32)) % (max(3000>>k, 4) + 1),
				tAggOnNs: math.Ldexp(foldInto(ons[i], 0, maxNs), k),
				tRPNs:    foldInto(rps[i], 0, maxNs),
			}
			if p.row2 == p.row1 {
				p.row2 = -1
			}
			pats[i] = p
		}
		checkMatchesLiteralAt(t, seed, foldInto(tempC, 0, 95), pats...)
	})
}

// HammerTwo's second aggressor idles from its write until its first ACT,
// which follows the first aggressor's first open interval. Literal
// commands commit it against that interval's column drive and, when the
// rows are adjacent, its RowPress. A tAggOn of milliseconds makes the
// column drive flip all-1 cells of row2; one of 10 s at 0 °C makes
// RowPress flip all-0 cells of an adjacent row2 while retention stays too
// slow to undo them during row2's own open interval.
func TestHammerTwoSecondAggressorSeesFirstOpen(t *testing.T) {
	g := SmallGeometry()
	base := g.SubarrayBase(1)
	t.Run("column-disturb", func(t *testing.T) {
		p := hammerPattern{row1: base + 7, row2: base + 12, n: 1, tAggOnNs: 20 * msNs, tRPNs: 14}
		rows, _ := checkMatchesLiteral(t, 2, p)
		ones := make([]uint64, len(rows[p.row2]))
		FillWords(ones, PatFF)
		if CountMismatches(rows[p.row2], ones) == 0 {
			t.Fatal("row2 kept every bit: the comparison is vacuous")
		}
	})
	t.Run("rowpress", func(t *testing.T) {
		p := hammerPattern{row1: base + 7, row2: base + 8, n: 1, tAggOnNs: 10_000 * msNs, tRPNs: 14}
		readAll := func(literal bool) [][]uint64 {
			d := newTestDevice(t, 2)
			if err := d.SetTemperature(0); err != nil {
				t.Fatal(err)
			}
			for r := 0; r < g.RowsPerBank(); r++ {
				if err := d.WriteRowPattern(0, r, Pat00); err != nil {
					t.Fatal(err)
				}
			}
			if err := runPattern(d, p, literal); err != nil {
				t.Fatal(err)
			}
			rows := make([][]uint64, g.RowsPerBank())
			for r := range rows {
				var err error
				if rows[r], err = d.ReadRow(0, r); err != nil {
					t.Fatal(err)
				}
			}
			return rows
		}
		fast, lit := readAll(false), readAll(true)
		for r := range fast {
			if n := CountMismatches(fast[r], lit[r]); n != 0 {
				t.Fatalf("row %d differs in %d bits between fast-forward and literal execution", r, n)
			}
		}
		if CountMismatches(fast[p.row2], make([]uint64, len(fast[p.row2]))) == 0 {
			t.Fatal("row2 kept every bit: the comparison is vacuous")
		}
	})
}
