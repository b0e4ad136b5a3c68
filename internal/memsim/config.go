// Package memsim is a cycle-level DRAM memory-system simulator in the
// spirit of the Ramulator + Self-Managing-DRAM setup the paper uses for its
// §6.2 evaluation: trace-driven cores with blocking misses over an
// open-page memory controller whose per-bank command state machine issues
// explicit ACT/PRE/RD/WR commands on an integer DRAM-cycle clock, enforcing
// tRCD/tRAS/tRP/tRC/tFAW/tCCD_S/tCCD_L/tRTP/tWR (command.go, timing.go;
// tRRD_S/L and tWTR_S/L are not modeled). Every refresh mechanism (none,
// periodic, RAIDR with a Bloom filter or a bitmap tracker, PRVR) is one
// RefreshSchedule of periodic tRFC-class occupancy windows that gate the
// command stream. Its purpose is the *relative* weighted speedup of
// refresh policies as the weak-row population grows — the quantity behind
// Fig 23 — not absolute performance prediction.
package memsim

// SystemConfig fixes the simulated memory system. The nanosecond timing
// parameters are datasheet values; SystemConfig.Timing rounds each up to
// whole DRAM cycles before simulation (see timing.go).
type SystemConfig struct {
	Banks       int
	RowsPerBank int
	// BankGroups partitions the banks into contiguous groups for the
	// tCCD_S (cross-group) vs tCCD_L (same-group) column-command spacing.
	BankGroups int

	// DRAM clock period (ns); every timing below is rounded up to cycles.
	TCKns float64

	// DRAM service timings (ns).
	TCASns   float64 // CL: read command to first data beat
	TCWLns   float64 // CWL: write command to first data beat
	TRCDns   float64
	TRPns    float64
	TRASns   float64
	TRCns    float64
	TRFCns   float64
	TFAWns   float64 // sliding four-activate window, rank-wide
	TCCDSns  float64 // column command spacing, different bank group
	TCCDLns  float64 // column command spacing, same bank group
	TRTPns   float64 // read to precharge
	TWRns    float64 // write recovery: end of write data to precharge
	TBurstNs float64
	// RowRefreshNs is the cost of one row-granular refresh operation
	// (RAIDR bins, PRVR victims).
	RowRefreshNs float64
	// IdleCloseNs is the controller's adaptive page policy: a bank idle
	// longer than this is speculatively precharged (for free, during the
	// idle gap). Without it, stale open rows make every refresh-induced
	// row closure *save* the precharge of a later conflict, an artifact
	// that inverts refresh costs. 0 disables the policy.
	IdleCloseNs float64

	// Core model: peak IPC, clock, and memory-level parallelism (maximum
	// outstanding misses per core — the out-of-order window's MLP).
	IPCPeak float64
	CPUGHz  float64
	MLP     int

	// Per-core instruction counts.
	WarmupInstr  int64
	MeasureInstr int64
}

// DefaultSystem returns a DDR4-2400-like single-rank system with four-wide
// 4 GHz cores, sized so a full Fig 23 sweep runs in seconds.
func DefaultSystem() SystemConfig {
	return SystemConfig{
		Banks:       16,
		RowsPerBank: 131072, // 2M rows total: a 16 GiB DDR4 module's row count
		BankGroups:  4,
		TCKns:       0.833, // DDR4-2400: 1200 MHz command clock
		TCASns:      13.5,
		TCWLns:      12.5,
		TRCDns:      13.5,
		TRPns:       14,
		TRASns:      32,
		TRCns:       46,
		TRFCns:      350,
		TFAWns:      21,
		TCCDSns:     3.33,
		TCCDLns:     5,
		TRTPns:      7.5,
		TWRns:       15,
		TBurstNs:    3.33,
		// Per-row cost of bank-granular directed refresh operations (PRVR
		// victims): one tRC.
		RowRefreshNs: 46,
		IdleCloseNs:  500,
		IPCPeak:      4,
		CPUGHz:       4,
		MLP:          4,
		WarmupInstr:  20_000,
		MeasureInstr: 100_000,
	}
}

// TotalRows returns the module's row count.
func (c SystemConfig) TotalRows() int { return c.Banks * c.RowsPerBank }
