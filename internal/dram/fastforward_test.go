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

// runPattern issues the single-aggressor pattern on row1 (row2 < 0) or the
// two-aggressor pattern on row1 and row2, fast-forwarded or literally.
func runPattern(d *Device, row1, row2, n int, tAggOnNs, tRPNs float64, literal bool) error {
	switch {
	case row2 < 0 && literal:
		return literalHammer(d, 0, row1, n, tAggOnNs, tRPNs)
	case row2 < 0:
		return d.Hammer(0, row1, n, tAggOnNs, tRPNs)
	case literal:
		return literalHammerTwo(d, 0, row1, row2, n, tAggOnNs, tRPNs)
	default:
		return d.HammerTwo(0, row1, row2, n, tAggOnNs, tRPNs)
	}
}

// hammerReadback opens a fresh device, fills every row with all-1 victims,
// writes all-0 into the first aggressor and all-1 into the second (the
// complementary pair of §5.3; row2 < 0 means a single aggressor), runs
// the pattern with fast-forward or literal commands, and returns every
// row of the bank as read back afterwards.
func hammerReadback(t testing.TB, seed uint64, row1, row2, n int, tAggOnNs, tRPNs float64, literal bool) [][]uint64 {
	t.Helper()
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), seed)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.RowsPerBank(); r++ {
		if err := d.WriteRowPattern(0, r, PatFF); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.WriteRowPattern(0, row1, Pat00); err != nil {
		t.Fatal(err)
	}
	if err := runPattern(d, row1, row2, n, tAggOnNs, tRPNs, literal); err != nil {
		t.Fatal(err)
	}
	rows := make([][]uint64, g.RowsPerBank())
	for r := range rows {
		if rows[r], err = d.ReadRow(0, r); err != nil {
			t.Fatal(err)
		}
	}
	return rows
}

// checkMatchesLiteral requires the fast-forwarded pattern to leave every
// row of the bank bit for bit as literal command-by-command execution
// does. It returns the number of cells that flipped, so callers can make
// sure the comparison was not vacuous.
func checkMatchesLiteral(t testing.TB, seed uint64, row1, row2, n int, tAggOnNs, tRPNs float64) int {
	t.Helper()
	fast := hammerReadback(t, seed, row1, row2, n, tAggOnNs, tRPNs, false)
	lit := hammerReadback(t, seed, row1, row2, n, tAggOnNs, tRPNs, true)
	flipped := 0
	for r := range fast {
		if mism := CountMismatches(fast[r], lit[r]); mism != 0 {
			t.Fatalf("seed %d, rows %d/%d, n=%d, tAggOn=%v ns, tRP=%v ns: row %d differs in %d bits between fast-forward and literal execution",
				seed, row1, row2, n, tAggOnNs, tRPNs, r, mism)
		}
		want := make([]uint64, len(fast[r]))
		pat := PatFF
		if r == row1 {
			pat = Pat00
		}
		FillWords(want, pat)
		flipped += CountMismatches(fast[r], want)
	}
	return flipped
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
			if flipped := checkMatchesLiteral(t, 2, base+7, c.row2, c.n, c.tAggOn, 14); c.tAggOn == 70_200 && flipped == 0 {
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
			if err := runPattern(d, base+7, agg2, 10, 36, 14, literal); err != nil {
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

// FuzzHammerMatchesLiteral compares both fast-forwards with literal
// execution over the seed, the aggressor rows, the cycle count and the
// timings. The second row is folded into the first one's subarray; when
// it lands on the first row the case is single-aggressor. tAggOn spans
// [0, 100 µs]. tRP spans [RowCloneViolationNs, 100 µs]: a shorter gap
// turns the two-aggressor pattern's second ACT into a RowClone copy, a
// different command sequence from the one HammerTwo models.
func FuzzHammerMatchesLiteral(f *testing.F) {
	f.Add(uint64(2), uint16(39), uint16(44), uint16(150), 70_200.0, 14.0)
	f.Add(uint64(3), uint16(39), uint16(39), uint16(3000), 36.0, 14.0)
	f.Add(uint64(4), uint16(70), uint16(65), uint16(400), 7_800.0, 14.0)
	f.Add(uint64(5), uint16(0), uint16(31), uint16(2000), 0.0, 6.0)
	f.Fuzz(func(t *testing.T, seed uint64, row1, row2, n uint16, tAggOnNs, tRPNs float64) {
		g := SmallGeometry()
		tim := DDR4Timing()
		r1 := int(row1) % g.RowsPerBank()
		r2 := g.SubarrayBase(g.SubarrayOf(r1)) + int(row2)%g.RowsPerSubarray
		if r2 == r1 {
			r2 = -1
		}
		const maxNs = 100_000.0
		if math.IsNaN(tAggOnNs) || math.IsNaN(tRPNs) {
			return
		}
		on := math.Mod(math.Abs(tAggOnNs), maxNs)
		off := tim.RowCloneViolationNs + math.Mod(math.Abs(tRPNs), maxNs-tim.RowCloneViolationNs)
		if math.IsNaN(on) || math.IsNaN(off) {
			return // ±Inf inputs
		}
		checkMatchesLiteral(t, seed, r1, r2, int(n)%3001, on, off)
	})
}
