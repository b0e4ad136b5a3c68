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
	timing Timing

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
		timing: timing,
		tempC:  params.RefTempC,
	}
	d.banks = make([]*Bank, geom.Banks)
	for i := range d.banks {
		d.banks[i] = newBank(geom, i, params, seed, timing.RowCloneViolationNs)
	}
	return d, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geom }

// Timing returns the device timing parameters.
func (d *Device) Timing() Timing { return d.timing }

// AdvanceNs moves the clock forward (idle time: all banks precharged or
// holding their current state).
func (d *Device) AdvanceNs(dt float64) {
	if dt < 0 {
		panic("dram: negative time advance")
	}
	d.nowNs += dt
}

// SetTemperature sets the ambient temperature in °C (the heater-pad
// substitute). A NaN or infinite temperature is an error.
func (d *Device) SetTemperature(tempC float64) error {
	if math.IsNaN(tempC) || math.IsInf(tempC, 0) {
		return fmt.Errorf("dram: temperature %v °C must be finite", tempC)
	}
	d.tempC = tempC
	return nil
}

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
	return b.activate(d.nowNs, row, d.tempC, d.trial)
}

// Precharge issues PRE to the bank at the current time.
func (d *Device) Precharge(bank int) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	return b.precharge(d.nowNs)
}

// WriteRowPattern fills a row with the repeating data pattern and restores
// its charge.
func (d *Device) WriteRowPattern(bank, row int, p DataPattern) error {
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	words := make([]uint64, d.geom.WordsPerRow())
	FillWords(words, p)
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

// checkPattern rejects a cycle count or timing that no command sequence
// can have: a negative count, or a negative, NaN or infinite row-open time
// or precharge gap.
func checkPattern(count int, tAggOnNs, tRPNs float64) error {
	if count < 0 {
		return fmt.Errorf("dram: negative hammer count %d", count)
	}
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
// cycles one command at a time would leave. A zero count is a no-op; a
// negative one is an error.
func (d *Device) Hammer(bank, row, numActs int, tAggOnNs, tRPNs float64) error {
	if err := checkPattern(numActs, tAggOnNs, tRPNs); err != nil {
		return err
	}
	b, err := d.bank(bank)
	if err != nil {
		return err
	}
	end, err := b.hammer(d.nowNs, row, numActs, tAggOnNs, tRPNs, d.tempC, d.trial)
	if err != nil {
		return err
	}
	d.nowNs = end
	return nil
}
