package dram

// Timing holds the DRAM timing parameters the testing infrastructure and
// the memory-system simulator care about. All values in nanoseconds unless
// suffixed otherwise.
type Timing struct {
	TRCDns  float64 // ACT → column command
	TRPns   float64 // PRE → next ACT to the same bank
	TRASns  float64 // minimum row-open time (ACT → PRE)
	TRCns   float64 // ACT → ACT to the same bank (tRAS + tRP)
	TRFCns  float64 // refresh command latency (bank unusable)
	TREFIs  float64 // refresh command interval, seconds
	TREFWms float64 // refresh window: every row refreshed once per window, ms

	// RowCloneViolationNs is the ACT-after-PRE gap below which the
	// precharge is interrupted and the second activation latches the sense
	// amplifiers' content (in-DRAM copy within a subarray).
	RowCloneViolationNs float64
}

// DDR4Timing returns nominal DDR4-2400 timings (§2.1, JESD79-4).
func DDR4Timing() Timing {
	return Timing{
		TRCDns:              13.5,
		TRPns:               14,
		TRASns:              36,
		TRCns:               50,
		TRFCns:              350,
		TREFIs:              7.8e-6,
		TREFWms:             64,
		RowCloneViolationNs: 6,
	}
}

// HBM2Timing returns nominal HBM2 timings (pseudo-channel mode).
func HBM2Timing() Timing {
	return Timing{
		TRCDns:              14,
		TRPns:               14,
		TRASns:              33,
		TRCns:               47,
		TRFCns:              260,
		TREFIs:              3.9e-6,
		TREFWms:             64,
		RowCloneViolationNs: 6,
	}
}
