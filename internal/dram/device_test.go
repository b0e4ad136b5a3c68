package dram

import (
	"math"
	"testing"

	"columndisturb/internal/faultmodel"
)

// testParams builds an aggressively vulnerable parameter set so that small
// geometries show statistically solid effects in milliseconds of simulated
// time: first CD bitflip ≈ 5 ms, first retention failure ≈ 50 ms.
func testParams(g Geometry) *faultmodel.Params {
	p := faultmodel.Default()
	p.VRTProb = 0 // keep unit tests noise-free; VRT has its own tests
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  5,
		TimeToFirstRETms: 50,
		PopulationCells:  g.TotalCells(),
	})
	return &p
}

func newTestDevice(t *testing.T, seed uint64) *Device {
	t.Helper()
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), seed)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const msNs = 1e6 // nanoseconds per millisecond

// hammerFor issues as many whole single-aggressor cycles on (0, row) as
// fit in durNs.
func hammerFor(t testing.TB, d *Device, row int, durNs, tAggOnNs, tRPNs float64) {
	t.Helper()
	if err := d.Hammer(0, row, int(durNs/(tAggOnNs+tRPNs)), tAggOnNs, tRPNs); err != nil {
		t.Fatal(err)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newTestDevice(t, 1)
	if err := d.WriteRowPattern(0, 3, PatAA); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, d.Geometry().WordsPerRow())
	FillWords(want, PatAA)
	if CountMismatches(got, want) != 0 {
		t.Fatal("immediate read must return written data unchanged")
	}
}

func TestBankAndRowBounds(t *testing.T) {
	d := newTestDevice(t, 1)
	if err := d.Activate(99, 0); err == nil {
		t.Fatal("bank out of range must fail")
	}
	if err := d.Activate(0, 10_000); err == nil {
		t.Fatal("row out of range must fail")
	}
	if _, err := d.ReadRow(0, -1); err == nil {
		t.Fatal("negative row must fail")
	}
}

func TestCommandStateMachine(t *testing.T) {
	d := newTestDevice(t, 1)
	if err := d.Precharge(0); err == nil {
		t.Fatal("PRE on precharged bank must fail")
	}
	if err := d.Activate(0, 5); err != nil {
		t.Fatal(err)
	}
	if d.banks[0].openRow != 5 {
		t.Fatal("open row not tracked")
	}
	if err := d.Activate(0, 6); err == nil {
		t.Fatal("ACT on open bank must fail")
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	if d.banks[0].openRow != -1 {
		t.Fatal("bank should be precharged")
	}
}

func TestRetentionFlipsOnlyChargedCells(t *testing.T) {
	d := newTestDevice(t, 2)
	g := d.Geometry()
	// Half the rows store all-1 (charged), half all-0 (uncharged).
	for r := 0; r < g.RowsPerBank(); r++ {
		p := PatFF
		if r%2 == 1 {
			p = Pat00
		}
		if err := d.WriteRowPattern(0, r, p); err != nil {
			t.Fatal(err)
		}
	}
	d.AdvanceNs(400 * msNs) // idle well past the 50 ms first retention failure

	ones := make([]uint64, g.WordsPerRow())
	zeros := make([]uint64, g.WordsPerRow())
	FillWords(ones, PatFF)
	FillWords(zeros, Pat00)
	flips1, flips0 := 0, 0
	for r := 0; r < g.RowsPerBank(); r++ {
		got, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if r%2 == 0 {
			flips1 += CountMismatches(got, ones)
		} else {
			flips0 += CountMismatches(got, zeros)
		}
	}
	if flips1 == 0 {
		t.Fatal("expected retention failures in charged (all-1) rows")
	}
	if flips0 != 0 {
		t.Fatalf("uncharged (all-0) cells must never flip by retention, got %d", flips0)
	}
}

func TestColumnDisturbSpansThreeSubarraysWithParity(t *testing.T) {
	d := newTestDevice(t, 3)
	g := d.Geometry()
	for r := 0; r < g.RowsPerBank(); r++ {
		if err := d.WriteRowPattern(0, r, PatFF); err != nil {
			t.Fatal(err)
		}
	}
	// Aggressor: middle row of the middle subarray, all-0 data so every
	// column it drives goes to GND.
	agg := g.SubarrayBase(1) + g.RowsPerSubarray/2
	if err := d.WriteRowPattern(0, agg, Pat00); err != nil {
		t.Fatal(err)
	}
	// Press for ~15 ms: ColumnDisturb bitflips appear (first at ~5 ms) but
	// retention failures (first at ~50 ms) do not.
	hammerFor(t, d, agg, 15*msNs, 70200, 14)

	ones := make([]uint64, g.WordsPerRow())
	FillWords(ones, PatFF)
	// Count flips per (subarray, column parity), excluding the aggressor
	// row and its ±1 neighbours (RowHammer/RowPress filtering, §3.2).
	flips := make(map[[2]int]int)
	for r := 0; r < g.RowsPerBank(); r++ {
		if r >= agg-1 && r <= agg+1 {
			continue
		}
		got, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		sub := g.SubarrayOf(r)
		for c := 0; c < g.Cols; c++ {
			if WordBit(got, c) != WordBit(ones, c) {
				flips[[2]int{sub, c % 2}]++
			}
		}
	}
	// Aggressor subarray: both parities disturbed.
	if flips[[2]int{1, 0}] == 0 || flips[[2]int{1, 1}] == 0 {
		t.Fatalf("aggressor subarray should flip on both parities: %v", flips)
	}
	// Upper neighbour: only odd columns; lower neighbour: only even.
	if flips[[2]int{0, 1}] == 0 {
		t.Fatalf("upper neighbour odd columns should flip: %v", flips)
	}
	if flips[[2]int{0, 0}] != 0 {
		t.Fatalf("upper neighbour even columns are not shared, got %d flips", flips[[2]int{0, 0}])
	}
	if flips[[2]int{2, 0}] == 0 {
		t.Fatalf("lower neighbour even columns should flip: %v", flips)
	}
	if flips[[2]int{2, 1}] != 0 {
		t.Fatalf("lower neighbour odd columns are not shared, got %d flips", flips[[2]int{2, 1}])
	}
}

func TestColumnDisturbDirectionIsOneToZero(t *testing.T) {
	d := newTestDevice(t, 4)
	g := d.Geometry()
	// Victims all-0: ColumnDisturb cannot flip an uncharged true cell.
	for r := 0; r < g.RowsPerBank(); r++ {
		if err := d.WriteRowPattern(0, r, Pat00); err != nil {
			t.Fatal(err)
		}
	}
	agg := g.SubarrayBase(1) + 5
	hammerFor(t, d, agg, 30*msNs, 70200, 14)
	zeros := make([]uint64, g.WordsPerRow())
	for r := 0; r < g.RowsPerBank(); r++ {
		if r >= agg-1 && r <= agg+1 {
			continue // RowHammer can flip 0→1; exclude neighbours
		}
		got, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		if n := CountMismatches(got, zeros); n != 0 {
			t.Fatalf("row %d: %d 0→1 flips; ColumnDisturb must be 1→0 only", r, n)
		}
	}
}

func TestAllOneAggressorGentlerThanRetention(t *testing.T) {
	// Obs 10: with an all-1 aggressor the perturbed columns sit at VDD,
	// below even the precharge disturbance, so a pressed all-1 subarray
	// accumulates fewer flips than an idle one.
	g := SmallGeometry()
	p := testParams(g)

	countFlips := func(seed uint64, aggPattern DataPattern, press bool) int {
		d, err := NewDevice(g, p, DDR4Timing(), seed)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		agg := g.SubarrayBase(1) + 7
		if err := d.WriteRowPattern(0, agg, aggPattern); err != nil {
			t.Fatal(err)
		}
		if press {
			hammerFor(t, d, agg, 200*msNs, 70200, 14)
		} else {
			d.AdvanceNs(200 * msNs)
		}
		ones := make([]uint64, g.WordsPerRow())
		FillWords(ones, PatFF)
		flips := 0
		base := g.SubarrayBase(1)
		for r := base; r < base+g.RowsPerSubarray; r++ {
			if r >= agg-1 && r <= agg+1 {
				continue
			}
			got, err := d.ReadRow(0, r)
			if err != nil {
				t.Fatal(err)
			}
			flips += CountMismatches(got, ones)
		}
		return flips
	}

	all0 := countFlips(5, Pat00, true)
	idle := countFlips(5, PatFF, false)
	all1 := countFlips(5, PatFF, true)
	if !(all0 > idle && idle > all1) {
		t.Fatalf("expected all0 (%d) > retention (%d) > all1 (%d)", all0, idle, all1)
	}
}

func TestAggressorRowDoesNotFlipItself(t *testing.T) {
	d := newTestDevice(t, 6)
	g := d.Geometry()
	agg := g.SubarrayBase(1) + 3
	if err := d.WriteRowPattern(0, agg, PatFF); err != nil {
		t.Fatal(err)
	}
	hammerFor(t, d, agg, 100*msNs, 70200, 14)
	got, err := d.ReadRow(0, agg)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, g.WordsPerRow())
	FillWords(want, PatFF)
	if CountMismatches(got, want) != 0 {
		t.Fatal("every activation restores the aggressor row; it must not flip")
	}
}

func TestRowHammerAffectsOnlyImmediateNeighbors(t *testing.T) {
	g := SmallGeometry()
	p := faultmodel.Default()
	p.VRTProb = 0
	// Isolate RowHammer: make leakage negligible and thresholds low.
	p.MuKappa, p.MuBase = -40, -40
	p.MuHC, p.SigmaHC = math.Log(1000), 0.5
	d, err := NewDevice(g, &p, DDR4Timing(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < g.RowsPerBank(); r++ {
		if err := d.WriteRowPattern(0, r, PatFF); err != nil {
			t.Fatal(err)
		}
	}
	agg := g.SubarrayBase(1) + 8
	if err := d.Hammer(0, agg, 100000, 36, 14); err != nil {
		t.Fatal(err)
	}
	ones := make([]uint64, g.WordsPerRow())
	FillWords(ones, PatFF)
	for r := 0; r < g.RowsPerBank(); r++ {
		got, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		n := CountMismatches(got, ones)
		switch {
		case r == agg-1 || r == agg+1:
			if n == 0 {
				t.Fatalf("neighbour row %d should have RowHammer flips", r)
			}
		case r == agg:
			if n != 0 {
				t.Fatalf("aggressor row flipped: %d", n)
			}
		default:
			if n != 0 {
				t.Fatalf("distant row %d has %d flips; RowHammer is ±1 only", r, n)
			}
		}
	}
}

func TestRowHammerFlipsBothDirections(t *testing.T) {
	g := SmallGeometry()
	p := faultmodel.Default()
	p.VRTProb = 0
	p.MuKappa, p.MuBase = -40, -40
	p.MuHC, p.SigmaHC = math.Log(1000), 0.5
	d, err := NewDevice(g, &p, DDR4Timing(), 8)
	if err != nil {
		t.Fatal(err)
	}
	agg := g.SubarrayBase(1) + 8
	// Victims carry 0xAA so both 0→1 and 1→0 flips are possible.
	for _, r := range []int{agg - 1, agg + 1} {
		if err := d.WriteRowPattern(0, r, PatAA); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Hammer(0, agg, 100000, 36, 14); err != nil {
		t.Fatal(err)
	}
	var up, down int
	for _, r := range []int{agg - 1, agg + 1} {
		got, err := d.ReadRow(0, r)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < g.Cols; c++ {
			want := PatAA.Bit(c)
			if bit := WordBit(got, c); bit != want {
				if want == 0 {
					up++
				} else {
					down++
				}
			}
		}
	}
	if up == 0 || down == 0 {
		t.Fatalf("RowHammer should flip both directions (§4.3): up=%d down=%d", up, down)
	}
}

func TestActivationRestoresVictim(t *testing.T) {
	d := newTestDevice(t, 9)
	g := d.Geometry()
	row := g.SubarrayBase(0) + 4
	if err := d.WriteRowPattern(0, row, PatFF); err != nil {
		t.Fatal(err)
	}
	// Let it decay close to (but not past) failure, then restore it with
	// an ACT–tRAS–PRE.
	d.AdvanceNs(40 * msNs)
	if err := d.Activate(0, row); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(d.Timing().TRASns)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	// Another 40 ms idle: without the activation this would be 80 ms > the
	// 50 ms first-failure point; with it, the row should survive in the
	// common case. (Use the device determinism: compare to no activation.)
	d.AdvanceNs(40 * msNs)
	withAct, err := d.ReadRow(0, row)
	if err != nil {
		t.Fatal(err)
	}

	d2 := newTestDevice(t, 9)
	if err := d2.WriteRowPattern(0, row, PatFF); err != nil {
		t.Fatal(err)
	}
	d2.AdvanceNs(80 * msNs)
	noAct, err := d2.ReadRow(0, row)
	if err != nil {
		t.Fatal(err)
	}
	ones := make([]uint64, g.WordsPerRow())
	FillWords(ones, PatFF)
	if CountMismatches(withAct, ones) > CountMismatches(noAct, ones) {
		t.Fatal("activating mid-way must never increase bitflips")
	}
}

// An ACT latches the faults pending on its row before it restores the
// row: after 400 ms idle, opening and closing each all-1 row right before
// reading it finds the retention flips a plain read finds, bit for bit.
func TestActivateCommitsPendingFaults(t *testing.T) {
	readAll := func(actFirst bool) [][]uint64 {
		d := newTestDevice(t, 2)
		g := d.Geometry()
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		d.AdvanceNs(400 * msNs)
		rows := make([][]uint64, g.RowsPerBank())
		for r := range rows {
			if actFirst {
				if err := literalHammer(d, 0, r, 1, 36, 14); err != nil {
					t.Fatal(err)
				}
			}
			got, err := d.ReadRow(0, r)
			if err != nil {
				t.Fatal(err)
			}
			rows[r] = got
		}
		return rows
	}
	plain, acted := readAll(false), readAll(true)
	ones := make([]uint64, len(plain[0]))
	FillWords(ones, PatFF)
	flips := 0
	for r := range plain {
		if n := CountMismatches(acted[r], plain[r]); n != 0 {
			t.Fatalf("row %d: ACT–PRE before the read changed %d bits of what a plain read returns", r, n)
		}
		flips += CountMismatches(plain[r], ones)
	}
	if flips == 0 {
		t.Fatal("no retention flips after 400 ms: the comparison is vacuous")
	}
}

// TestOpenRowHoldsCharge: the sense amplifiers hold an open row at full
// charge until its PRE. A row written, held open for T, precharged and
// read U later reads bit for bit like the same row written at the PRE's
// time and read U later. Each row takes its turn on one device, so the
// clocks of both devices agree at every command.
func TestOpenRowHoldsCharge(t *testing.T) {
	const openNs, idleNs = 200 * msNs, 100 * msNs
	readAll := func(holdOpen bool) [][]uint64 {
		d := newTestDevice(t, 3)
		if err := d.SetTemperature(85); err != nil {
			t.Fatal(err)
		}
		rows := make([][]uint64, d.Geometry().RowsPerBank())
		for r := range rows {
			if holdOpen {
				if err := d.WriteRowPattern(0, r, PatFF); err != nil {
					t.Fatal(err)
				}
				if err := d.Activate(0, r); err != nil {
					t.Fatal(err)
				}
				d.AdvanceNs(openNs)
				if err := d.Precharge(0); err != nil {
					t.Fatal(err)
				}
			} else {
				d.AdvanceNs(openNs)
				if err := d.WriteRowPattern(0, r, PatFF); err != nil {
					t.Fatal(err)
				}
			}
			d.AdvanceNs(idleNs)
			var err error
			if rows[r], err = d.ReadRow(0, r); err != nil {
				t.Fatal(err)
			}
		}
		return rows
	}
	held, written := readAll(true), readAll(false)
	ones := make([]uint64, len(held[0]))
	FillWords(ones, PatFF)
	flips := 0
	for r := range held {
		if n := CountMismatches(held[r], written[r]); n != 0 {
			t.Fatalf("row %d: holding it open for %v ms before the PRE changed %d bits", r, openNs/msNs, n)
		}
		flips += CountMismatches(written[r], ones)
	}
	if flips == 0 {
		t.Fatalf("no retention flips %v ms after the write: the comparison is vacuous", idleNs/msNs)
	}
}

func TestDeviceDeterminism(t *testing.T) {
	run := func() []uint64 {
		d := newTestDevice(t, 11)
		g := d.Geometry()
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		agg := g.SubarrayBase(1) + 6
		hammerFor(t, d, agg, 20*msNs, 70200, 14)
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
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("identical programs on identical seeds must agree")
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	flips := func(seed uint64) int {
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
		d.AdvanceNs(300 * msNs)
		ones := make([]uint64, g.WordsPerRow())
		FillWords(ones, PatFF)
		n := 0
		for r := 0; r < g.RowsPerBank(); r++ {
			got, _ := d.ReadRow(0, r)
			n += CountMismatches(got, ones)
		}
		return n
	}
	// Counts should differ across seeds (different weak-cell placement).
	a, b, c := flips(100), flips(101), flips(102)
	if a == b && b == c {
		t.Fatalf("three seeds with identical flip counts (%d) is implausible", a)
	}
}

func TestHammerRejectsOpenBank(t *testing.T) {
	d := newTestDevice(t, 12)
	if err := d.Activate(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Hammer(0, 5, 10, 36, 14); err == nil {
		t.Fatal("hammer with open row must fail")
	}
}

func TestHammerRejectsBadTimings(t *testing.T) {
	d := newTestDevice(t, 15)
	base := d.Geometry().SubarrayBase(1)
	for _, tm := range [][2]float64{
		{-1000, 14}, {36, -14}, {math.NaN(), 14}, {36, math.NaN()},
		{math.Inf(1), 14}, {36, math.Inf(1)}, {math.Inf(-1), 14},
	} {
		if err := d.Hammer(0, base+3, 10, tm[0], tm[1]); err == nil {
			t.Errorf("Hammer accepted tAggOn=%v ns, tRP=%v ns", tm[0], tm[1])
		}
	}
	if err := d.Hammer(0, base+3, -5, 36, 14); err == nil {
		t.Error("Hammer accepted a negative activation count")
	}
	if d.nowNs != 0 {
		t.Fatalf("rejected patterns moved the clock to %v ns", d.nowNs)
	}
	if err := d.Hammer(0, base+3, 0, 36, 14); err != nil {
		t.Fatalf("a zero count is a no-op: %v", err)
	}
	if d.nowNs != 0 {
		t.Fatalf("zero-count patterns moved the clock to %v ns", d.nowNs)
	}
	if err := d.Hammer(0, base+3, 10, 0, 0); err != nil {
		t.Fatalf("zero timings are a valid (degenerate) pattern: %v", err)
	}
}

// A device starts at its parameters' reference temperature. A NaN or
// infinite temperature is refused and leaves the device at its previous
// temperature; a NaN would otherwise erase every decay flip.
func TestSetTemperatureRejectsNonFinite(t *testing.T) {
	d := newTestDevice(t, 16)
	if ref := testParams(d.Geometry()).RefTempC; d.tempC != ref {
		t.Fatalf("device starts at %v °C, want the %v °C reference", d.tempC, ref)
	}
	if err := d.SetTemperature(95); err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := d.SetTemperature(c); err == nil {
			t.Errorf("SetTemperature accepted %v °C", c)
		}
	}
	if d.tempC != 95 {
		t.Fatalf("rejected temperatures moved the device to %v °C", d.tempC)
	}
}

func TestTwoAggressorSlowerThanSingle(t *testing.T) {
	// Obs 21: the two-aggressor pattern (column toggling GND→VDD/2→VDD)
	// disturbs roughly half as fast as the single-aggressor pattern.
	g := SmallGeometry()
	p := testParams(g)
	count := func(two bool) int {
		d, err := NewDevice(g, p, DDR4Timing(), 14)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < g.RowsPerBank(); r++ {
			if err := d.WriteRowPattern(0, r, PatFF); err != nil {
				t.Fatal(err)
			}
		}
		base := g.SubarrayBase(1)
		agg1, agg2 := base+7, base+9
		if err := d.WriteRowPattern(0, agg1, Pat00); err != nil {
			t.Fatal(err)
		}
		const tAggOn, tRP = 70200.0, 14.0
		totalNs := 40 * msNs
		if two {
			if err := d.WriteRowPattern(0, agg2, PatFF); err != nil {
				t.Fatal(err)
			}
			pairs := int(totalNs / (2 * (tAggOn + tRP)))
			if err := literalTwoAggressor(d, 0, agg1, agg2, pairs, tAggOn, tRP); err != nil {
				t.Fatal(err)
			}
		} else {
			hammerFor(t, d, agg1, totalNs, tAggOn, tRP)
		}
		ones := make([]uint64, g.WordsPerRow())
		FillWords(ones, PatFF)
		flips := 0
		for r := base; r < base+g.RowsPerSubarray; r++ {
			if r >= agg1-1 && r <= agg2+1 {
				continue
			}
			got, err := d.ReadRow(0, r)
			if err != nil {
				t.Fatal(err)
			}
			flips += CountMismatches(got, ones)
		}
		return flips
	}
	single, double := count(false), count(true)
	if single <= double {
		t.Fatalf("single-aggressor (%d flips) must beat two-aggressor (%d)", single, double)
	}
}
