package charz

import (
	"fmt"

	"columndisturb/internal/dram"
)

// SameSubarrayByRowClone tests whether two rows share a subarray by
// attempting the in-DRAM copy of §3.2: after ACT src – PRE – (interrupted
// precharge) – ACT dst, the destination holds the source's content exactly
// when both rows connect to the same sense amplifiers.
//
// The probe overwrites both rows with marker patterns and leaves the
// destination holding the copy result; callers re-initialize rows
// afterwards (the methodology always rewrites rows between tests).
func SameSubarrayByRowClone(d *dram.Device, bank, src, dst int) (bool, error) {
	if src == dst {
		return true, nil
	}
	const marker, anti = dram.PatAA, dram.Pat00
	if err := d.WriteRowPattern(bank, src, marker); err != nil {
		return false, err
	}
	if err := d.WriteRowPattern(bank, dst, anti); err != nil {
		return false, err
	}
	// ACT src, PRE, then ACT dst inside the RowClone violation window, and
	// a clean precharge.
	t := d.Timing()
	if err := d.Activate(bank, src); err != nil {
		return false, err
	}
	d.AdvanceNs(t.TRASns)
	if err := d.Precharge(bank); err != nil {
		return false, err
	}
	d.AdvanceNs(t.RowCloneViolationNs / 2)
	if err := d.Activate(bank, dst); err != nil {
		return false, err
	}
	d.AdvanceNs(t.TRASns)
	if err := d.Precharge(bank); err != nil {
		return false, err
	}
	d.AdvanceNs(t.TRPns)
	got, err := d.ReadRow(bank, dst)
	if err != nil {
		return false, err
	}
	want := make([]uint64, d.Geometry().WordsPerRow())
	dram.FillWords(want, marker)
	return dram.CountMismatches(got, want) == 0, nil
}

// ScanSubarrayBoundaries reverse engineers the subarray layout of a bank by
// RowClone-testing each adjacent row pair, returning the first row of every
// subarray (always including row 0). It assumes subarrays occupy
// contiguous row ranges; ExhaustivePartition drops that assumption and is
// cross-checked against this scan in tests.
func ScanSubarrayBoundaries(d *dram.Device, bank int) ([]int, error) {
	rows := d.Geometry().RowsPerBank()
	bounds := []int{0}
	for r := 0; r+1 < rows; r++ {
		same, err := SameSubarrayByRowClone(d, bank, r, r+1)
		if err != nil {
			return nil, fmt.Errorf("charz: boundary scan at row %d: %w", r, err)
		}
		if !same {
			bounds = append(bounds, r+1)
		}
	}
	return bounds, nil
}

// ExhaustivePartition reverse engineers subarray membership by RowClone-
// testing *every* source/destination pair of the first `rows` rows
// (the paper's full methodology). It returns the partition as a list of
// row groups. Quadratic in rows — intended for small banks and for
// validating ScanSubarrayBoundaries.
func ExhaustivePartition(d *dram.Device, bank, rows int) ([][]int, error) {
	parent := make([]int, rows)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for src := 0; src < rows; src++ {
		for dst := 0; dst < rows; dst++ {
			if src == dst || find(src) == find(dst) {
				continue
			}
			same, err := SameSubarrayByRowClone(d, bank, src, dst)
			if err != nil {
				return nil, err
			}
			if same {
				parent[find(dst)] = find(src)
			}
		}
	}
	groups := make(map[int][]int)
	var order []int
	for r := 0; r < rows; r++ {
		root := find(r)
		if _, ok := groups[root]; !ok {
			order = append(order, root)
		}
		groups[root] = append(groups[root], r)
	}
	out := make([][]int, 0, len(order))
	for _, root := range order {
		out = append(out, groups[root])
	}
	return out, nil
}
