package dram

// Timing holds the DRAM timing parameters the cell-explicit device and the
// characterization methodology use: the pattern defaults and the RowClone
// window. The memory-system simulator takes its timings from its own
// memsim.SystemConfig, not from this type. All values in nanoseconds.
type Timing struct {
	TRPns  float64 // PRE → next ACT to the same bank
	TRASns float64 // minimum row-open time (ACT → PRE)

	// RowCloneViolationNs is the ACT-after-PRE gap below which the
	// precharge is interrupted and the second activation latches the sense
	// amplifiers' content (in-DRAM copy within a subarray).
	RowCloneViolationNs float64
}

// DDR4Timing returns nominal DDR4-2400 timings (§2.1, JESD79-4).
func DDR4Timing() Timing {
	return Timing{
		TRPns:               14,
		TRASns:              36,
		RowCloneViolationNs: 6,
	}
}

// HBM2Timing returns nominal HBM2 timings (pseudo-channel mode).
func HBM2Timing() Timing {
	return Timing{
		TRPns:               14,
		TRASns:              33,
		RowCloneViolationNs: 6,
	}
}
