package dram

import (
	"testing"
	"testing/quick"
)

func TestDirectMapping(t *testing.T) {
	m := DirectMapping{}
	if m.Physical(42) != 42 || m.Logical(42) != 42 {
		t.Fatal("direct mapping must be identity")
	}
}

func TestGroupScrambleRoundTrip(t *testing.T) {
	gs, err := NewGroupScramble(3, []int{0, 1, 3, 2, 6, 7, 4, 5})
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw uint16) bool {
		l := int(raw)
		return gs.Logical(gs.Physical(l)) == l && gs.Physical(gs.Logical(l)) == l
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Spot-check: logical 2 in each group maps to physical 3.
	if gs.Physical(8+2) != 8+3 {
		t.Fatalf("Physical(10) = %d, want 11", gs.Physical(10))
	}
}

func TestGroupScramblePreservesGroups(t *testing.T) {
	gs, err := NewGroupScramble(3, []int{7, 6, 5, 4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < 256; l++ {
		if gs.Physical(l)>>3 != l>>3 {
			t.Fatalf("row %d escaped its group", l)
		}
	}
}

func TestGroupScrambleRejectsInvalidPerm(t *testing.T) {
	if _, err := NewGroupScramble(2, []int{0, 1, 2}); err == nil {
		t.Fatal("wrong-length permutation accepted")
	}
	if _, err := NewGroupScramble(2, []int{0, 1, 2, 2}); err == nil {
		t.Fatal("duplicate entry accepted")
	}
	if _, err := NewGroupScramble(2, []int{0, 1, 2, 4}); err == nil {
		t.Fatal("out-of-range entry accepted")
	}
}

func TestModuleLogicalAddressing(t *testing.T) {
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), 21)
	if err != nil {
		t.Fatal(err)
	}
	gs, err := NewGroupScramble(2, []int{2, 3, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	m := NewModule(d, gs)
	if err := m.WriteLogicalPattern(0, 1, PatAA); err != nil {
		t.Fatal(err)
	}
	// Physical row of logical 1 is 3.
	raw, err := d.PeekRaw(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, g.WordsPerRow())
	FillWords(want, PatAA)
	if CountMismatches(raw, want) != 0 {
		t.Fatal("logical write landed on wrong physical row")
	}
	got, err := m.ReadLogical(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if CountMismatches(got, want) != 0 {
		t.Fatal("logical read mismatch")
	}
}

func TestModuleDefaultsToDirect(t *testing.T) {
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), 22)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModule(d, nil)
	if m.Mapping().Name() != "direct" {
		t.Fatal("nil mapping should default to direct")
	}
}

func TestRowClone(t *testing.T) {
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), 23)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := g.SubarrayBase(1)+2, g.SubarrayBase(1)+9
	if err := d.WriteRowPattern(0, src, PatAA); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRowPattern(0, dst, Pat00); err != nil {
		t.Fatal(err)
	}
	// ACT src — PRE — (2 ns, violating tRP) — ACT dst: in-DRAM copy.
	if err := d.Activate(0, src); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(2)
	if err := d.Activate(0, dst); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(0, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, g.WordsPerRow())
	FillWords(want, PatAA)
	if CountMismatches(got, want) != 0 {
		t.Fatal("RowClone within a subarray must copy the source row")
	}
}

func TestRowCloneFailsAcrossSubarrays(t *testing.T) {
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), 24)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := g.SubarrayBase(0)+2, g.SubarrayBase(1)+2
	if err := d.WriteRowPattern(0, src, PatAA); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRowPattern(0, dst, Pat00); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, src); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(2)
	if err := d.Activate(0, dst); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(0, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, g.WordsPerRow())
	FillWords(want, Pat00)
	if CountMismatches(got, want) != 0 {
		t.Fatal("RowClone across subarrays must not copy")
	}
}

func TestRowCloneRequiresTimingViolation(t *testing.T) {
	g := SmallGeometry()
	d, err := NewDevice(g, testParams(g), DDR4Timing(), 25)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := g.SubarrayBase(1)+2, g.SubarrayBase(1)+9
	if err := d.WriteRowPattern(0, src, PatAA); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRowPattern(0, dst, Pat00); err != nil {
		t.Fatal(err)
	}
	if err := d.Activate(0, src); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(d.Timing().TRPns) // honour tRP: normal activation
	if err := d.Activate(0, dst); err != nil {
		t.Fatal(err)
	}
	d.AdvanceNs(36)
	if err := d.Precharge(0); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadRow(0, dst)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, g.WordsPerRow())
	FillWords(want, Pat00)
	if CountMismatches(got, want) != 0 {
		t.Fatal("honouring tRP must not copy")
	}
}
