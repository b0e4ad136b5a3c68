package dram

import (
	"fmt"
	"math"

	"columndisturb/internal/faultmodel"
)

// Device models one DRAM module under test: banks of subarrays, a clock,
// an ambient temperature, and the fault parameters of its chips. Rows are
// addressed by their physical bank-level index.
//
// A Device is NOT goroutine-safe: its clock, open-row state and exposure
// history mutate on every command, and its banks share the device clock,
// so neither a Device nor its individual Banks may be driven from multiple
// goroutines concurrently. Parallel experiments must confine each Device
// to one shard (one goroutine); construction is deterministic per
// (geometry, params, seed), so per-shard instances are cheap to make and
// bit-identical wherever they run. See internal/engine.
type Device struct {
	geom   Geometry
	params *faultmodel.Params
	timing Timing
	seed   uint64

	nowNs float64
	tempC float64
	trial int
	banks []*Bank
}

// NewDevice builds a device with the given geometry, fault parameters and
// per-module seed. The temperature starts at the model's reference
// temperature (85 °C in the paper's methodology).
func NewDevice(geom Geometry, params *faultmodel.Params, timing Timing, seed uint64) (*Device, error) {
	if err := geom.Validate(); err != nil {
		return nil, err
	}
	if params == nil {
		return nil, fmt.Errorf("dram: nil fault parameters")
	}
	d := &Device{
		geom:   geom,
		params: params,
		timing: timing,
		seed:   seed,
		tempC:  params.RefTempC,
	}
	d.banks = make([]*Bank, geom.Banks)
	for i := range d.banks {
		d.banks[i] = newBank(geom, i, params, seed)
	}
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// Seed returns the module seed.
func (d *Device) Seed() uint64 { return d.seed }

// NowNs returns the device clock in nanoseconds.
func (d *Device) NowNs() float64 { return d.nowNs }

// AdvanceNs moves the clock forward (idle time: all banks precharged or
// holding their current state).
func (d *Device) AdvanceNs(dt float64) {
	if dt < 0 {
		panic("dram: negative time advance")
	}
	d.nowNs += dt
}

// SetTemperature sets the ambient temperature in °C (the heater-pad
// substitute).
func (d *Device) SetTemperature(tempC float64) { d.tempC = tempC }

// Temperature returns the ambient temperature in °C.
func (d *Device) Temperature() float64 { return d.tempC }

// SetTrial selects the variable-retention-time trial index; the
// time-to-first-bitflip search sweeps this across its repeats.
func (d *Device) SetTrial(trial int) { d.trial = trial }

func (d *Device) bank(bank int) (*Bank, error) {
	if bank < 0 || bank >= len(d.banks) {
		return nil, fmt.Errorf("dram: bank %d out of range [0,%d)", bank, len(d.banks))
	}
	return d.banks[bank], nil
}

// Activate issues ACT to (bank, row) at the current time.
func (d *Device) Activate(bank, row int) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	return b.activate(d.nowNs, row, d.timing)
}

// Precharge issues PRE to the bank at the current time.
func (d *Device) Precharge(bank int) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	return b.precharge(d.nowNs)
}

// OpenRow returns the open row of a bank (-1 if precharged).
func (d *Device) OpenRow(bank int) int {
	b, err := d.bank(bank)
	if err != nil {
		return -1
	}
	return b.OpenRow()
}

// WriteRowPattern fills a row with the repeating data pattern and restores
// its charge.
func (d *Device) WriteRowPattern(bank, row int, p DataPattern) error {
	words := make([]uint64, d.geom.WordsPerRow())
	FillWords(words, p)
	return d.WriteRow(bank, row, words)
}

// WriteRow overwrites a row with the given bits and restores its charge.
func (d *Device) WriteRow(bank, row int, words []uint64) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	if len(words) != d.geom.WordsPerRow() {
		return fmt.Errorf("dram: row write of %d words, want %d", len(words), d.geom.WordsPerRow())
	}
	return b.writeRow(d.nowNs, row, words)
}

// ReadRow evaluates all pending disturbance on the row, commits any
// bitflips, restores the row and returns its (possibly corrupted) content.
func (d *Device) ReadRow(bank, row int) ([]uint64, error) {
	b, err := d.bank(bank)
	if err != nil {
		return nil, err
	}
	return b.readRow(d.nowNs, row, d.tempC, d.trial)
}

// PeekRaw returns the stored bits without evaluating faults or disturbing
// state. It exists for tests and debugging only — real hardware has no
// such operation.
func (d *Device) PeekRaw(bank, row int) ([]uint64, error) {
	b, err := d.bank(bank)
	if err != nil {
		return nil, err
	}
	if err := b.checkRow(row); err != nil {
		return nil, err
	}
	return b.peekRaw(row), nil
}

// RefreshAll refreshes every row of the bank at the current time (REFab
// sweep: pending faults are latched and rewritten, charge restored).
func (d *Device) RefreshAll(bank int) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	b.refreshAll(d.nowNs, d.tempC, d.trial)
	return nil
}

// RefreshRow refreshes a single row at the current time.
func (d *Device) RefreshRow(bank, row int) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	return b.refreshRow(d.nowNs, row, d.tempC, d.trial)
}

// checkPatternTimings rejects a row-open time or precharge gap that no
// command sequence can have: negative, NaN or infinite.
func checkPatternTimings(tAggOnNs, tRPNs float64) error {
	for _, v := range [...]float64{tAggOnNs, tRPNs} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("dram: hammer timings tAggOn=%v ns, tRP=%v ns must be finite and non-negative", tAggOnNs, tRPNs)
		}
	}
	return nil
}

// Hammer fast-forwards numActs cycles of the single-aggressor pattern
// ACT–tAggOn–PRE–tRP on (bank, row), advancing the device clock to the end
// of the pattern. Every row then reads back the bits that issuing the
// cycles one command at a time would leave.
func (d *Device) Hammer(bank, row, numActs int, tAggOnNs, tRPNs float64) error {
	if err := checkPatternTimings(tAggOnNs, tRPNs); err != nil {
		return err
	}
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	end, err := b.hammer(d.nowNs, row, numActs, tAggOnNs, tRPNs)
	if err != nil {
		return err
	}
	d.nowNs = end
	return nil
}

// HammerTwo fast-forwards numPairs cycles of the two-aggressor pattern on
// (bank, row1, row2), advancing the device clock. Like Hammer it leaves
// the bits literal execution would, provided tRP is at least the RowClone
// violation window: with a shorter gap each literal ACT of row2 copies
// row1, which the fast-forward does not model.
func (d *Device) HammerTwo(bank, row1, row2, numPairs int, tAggOnNs, tRPNs float64) error {
	if err := checkPatternTimings(tAggOnNs, tRPNs); err != nil {
		return err
	}
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	end, err := b.hammerTwo(d.nowNs, row1, row2, numPairs, tAggOnNs, tRPNs)
	if err != nil {
		return err
	}
	d.nowNs = end
	return nil
}

// HammerFor runs the single-aggressor pattern for the given duration,
// issuing as many whole cycles as fit. It returns the number of
// activations issued.
func (d *Device) HammerFor(bank, row int, durNs, tAggOnNs, tRPNs float64) (int, error) {
	cycle := tAggOnNs + tRPNs
	if cycle <= 0 {
		return 0, fmt.Errorf("dram: non-positive hammer cycle")
	}
	n := int(durNs / cycle)
	if n <= 0 {
		return 0, nil
	}
	return n, d.Hammer(bank, row, n, tAggOnNs, tRPNs)
}
