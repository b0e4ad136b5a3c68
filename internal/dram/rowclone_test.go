package dram

import "testing"

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
