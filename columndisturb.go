package columndisturb

import (
	"fmt"
	"math"
	"sort"
	"time"

	"columndisturb/internal/charz"
	"columndisturb/internal/chipdb"
	"columndisturb/internal/dram"
	"columndisturb/internal/energy"
	"columndisturb/internal/experiments"
	"columndisturb/internal/mitigate"
)

// ChipInfo describes one entry of the tested-chip catalog (Table 1).
type ChipInfo struct {
	ID           string
	Manufacturer string
	Type         string // "DDR4" or "HBM2"
	Chips        int
	DieRevision  string
	Density      string
	Org          string
}

// Catalog lists the 28 DDR4 modules and 4 HBM2 chips of Table 1.
func Catalog() []ChipInfo {
	var out []ChipInfo
	for _, m := range chipdb.Modules() {
		out = append(out, ChipInfo{
			ID:           m.ID,
			Manufacturer: string(m.Mfr),
			Type:         string(m.Type),
			Chips:        m.Chips,
			DieRevision:  m.DieRev,
			Density:      m.Density,
			Org:          m.Org,
		})
	}
	return out
}

// Chip is an opened module under test: a simulated device addressed like
// the real thing (banks × rows × columns).
type Chip struct {
	spec chipdb.ModuleSpec
	dev  *dram.Device
}

// Open instantiates a catalog module as a simulated device at the 85 °C
// reference temperature. The result is deterministic per module.
func Open(id string) (*Chip, error) {
	spec, ok := chipdb.ByID(id)
	if !ok {
		return nil, fmt.Errorf("columndisturb: unknown module %q (see Catalog)", id)
	}
	dev, err := spec.Open()
	if err != nil {
		return nil, err
	}
	return &Chip{spec: spec, dev: dev}, nil
}

// OpenScaled instantiates a module on a smaller geometry (rows per
// subarray, columns) with the fault model re-calibrated so the module's
// headline vulnerability is preserved — useful for fast demos.
func OpenScaled(id string, banks, subarrays, rowsPerSubarray, cols int) (*Chip, error) {
	spec, ok := chipdb.ByID(id)
	if !ok {
		return nil, fmt.Errorf("columndisturb: unknown module %q", id)
	}
	g := dram.Geometry{
		Banks: banks, SubarraysPerBank: subarrays,
		RowsPerSubarray: rowsPerSubarray, Cols: cols, Chips: spec.Chips,
	}
	if g.Chips < 1 {
		g.Chips = 1
	}
	dev, err := spec.OpenWithGeometry(g)
	if err != nil {
		return nil, err
	}
	return &Chip{spec: spec, dev: dev}, nil
}

// Info returns the chip's catalog entry.
func (c *Chip) Info() ChipInfo {
	m := c.spec
	return ChipInfo{ID: m.ID, Manufacturer: string(m.Mfr), Type: string(m.Type),
		Chips: m.Chips, DieRevision: m.DieRev, Density: m.Density, Org: m.Org}
}

// Banks returns the number of banks.
func (c *Chip) Banks() int { return c.dev.Geometry().Banks }

// RowsPerBank returns the rows per bank.
func (c *Chip) RowsPerBank() int { return c.dev.Geometry().RowsPerBank() }

// RowsPerSubarray returns the subarray height.
func (c *Chip) RowsPerSubarray() int { return c.dev.Geometry().RowsPerSubarray }

// Columns returns the physical columns per row.
func (c *Chip) Columns() int { return c.dev.Geometry().Cols }

// SubarrayOf returns the subarray index of a row.
func (c *Chip) SubarrayOf(row int) int { return c.dev.Geometry().SubarrayOf(row) }

// SetTemperature retargets the temperature rig (°C). A NaN or infinite
// temperature is an error and leaves the rig where it was.
func (c *Chip) SetTemperature(celsius float64) error { return c.dev.SetTemperature(celsius) }

// FillRows writes the repeating byte pattern into rows [first, last]. An
// empty range (last < first) is an error.
func (c *Chip) FillRows(bank, first, last int, pattern byte) error {
	if last < first {
		return fmt.Errorf("columndisturb: row range [%d, %d] is empty", first, last)
	}
	return charz.WriteRows(c.dev, bank, first, last, dram.DataPattern(pattern))
}

// Hammer runs the paper's key access pattern — ACT(row)–tAggOn–PRE–tRP —
// for the given number of activations. tAggOn ≈ tRAS (36 ns) is classic
// hammering; large tAggOn (e.g. 70.2 µs) is pressing. Zero activations do
// nothing; a negative count is an error.
func (c *Chip) Hammer(bank, row, activations int, tAggOnNs, tRPNs float64) error {
	return c.dev.Hammer(bank, row, activations, tAggOnNs, tRPNs)
}

// Press keeps the aggressor row open in 70.2 µs windows for the given
// duration — the configuration that maximizes ColumnDisturb.
func (c *Chip) Press(bank, row int, durationMs float64) error {
	const tAggOn, tRP = 70_200.0, 14.0
	acts := int(durationMs * 1e6 / (tAggOn + tRP))
	if acts < 1 {
		return fmt.Errorf("columndisturb: duration %v ms shorter than one press cycle", durationMs)
	}
	return c.Hammer(bank, row, acts, tAggOn, tRP)
}

// Idle keeps the chip precharged with refresh disabled (retention test). A
// negative or non-finite duration is an error.
func (c *Chip) Idle(durationMs float64) error {
	if !(durationMs >= 0) || math.IsInf(durationMs, 1) {
		return fmt.Errorf("columndisturb: idle duration %v ms must be finite and non-negative", durationMs)
	}
	c.dev.AdvanceNs(durationMs * 1e6)
	return nil
}

// RowBitflips reads rows [first, last] and counts mismatches against the
// expected pattern, returning one count per row. An empty range (last <
// first) is an error.
func (c *Chip) RowBitflips(bank, first, last int, expected byte) ([]int, error) {
	if last < first {
		return nil, fmt.Errorf("columndisturb: row range [%d, %d] is empty", first, last)
	}
	want := make([]uint64, c.dev.Geometry().WordsPerRow())
	dram.FillWords(want, dram.DataPattern(expected))
	counts := make([]int, last-first+1)
	for r := first; r <= last; r++ {
		data, err := c.dev.ReadRow(bank, r)
		if err != nil {
			return nil, err
		}
		counts[r-first] = dram.CountMismatches(data, want)
	}
	return counts, nil
}

// SubarrayBoundaries reverse engineers the bank's subarray layout with the
// RowClone methodology (§3.2) and returns the first row of each subarray.
func (c *Chip) SubarrayBoundaries(bank int) ([]int, error) {
	return charz.ScanSubarrayBoundaries(c.dev, bank)
}

// TTFResult reports a time-to-first-bitflip search.
type TTFResult struct {
	Found       bool
	TimeMs      float64
	HammerCount int
}

// TimeToFirstBitflip runs the paper's bisection search for the minimum time
// to the first ColumnDisturb bitflip in the aggressor row's subarray, under
// the worst-case pattern (all-0 aggressor, all-1 victims, pressing), with
// the ±4-row guard band applied.
func (c *Chip) TimeToFirstBitflip(bank, aggressorRow int, repeats int) (TTFResult, error) {
	cfg := charz.DefaultTTFConfig(c.dev.Timing())
	if repeats > 0 {
		cfg.Repeats = repeats
	}
	res, err := charz.TimeToFirstBitflip(c.dev, bank, aggressorRow, cfg)
	if err != nil {
		return TTFResult{}, err
	}
	return TTFResult{Found: res.Found, TimeMs: res.TimeMs, HammerCount: res.HammerCount}, nil
}

// ExperimentInfo describes one reproducible paper artifact.
type ExperimentInfo struct {
	ID    string
	Paper string
	Title string
}

// ListExperiments enumerates every table/figure runner.
func ListExperiments() []ExperimentInfo {
	var out []ExperimentInfo
	for _, e := range experiments.All() {
		out = append(out, ExperimentInfo{ID: e.ID, Paper: e.Paper, Title: e.Title})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Report is a rendered experiment result. Text (and the report files
// `cdlab run -o` writes) carries only the deterministic rendering —
// Elapsed is metadata, so warm-cache and remote re-runs stay
// byte-identical.
type Report struct {
	ID      string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
	Text    string        // aligned text rendering
	Elapsed time.Duration // wall time, measured once by the service
}

// MitigationAnalysis is the §6.1 comparison of the two ColumnDisturb
// mitigations on a 32 Gb DDR5 chip.
type MitigationAnalysis struct {
	BaselineThroughputLoss    float64 // periodic 32 ms
	BaselineRefreshEnergy     float64
	ShortPeriodThroughputLoss float64 // periodic 8 ms (naive fix)
	ShortPeriodRefreshEnergy  float64
	PRVRThroughputLoss        float64
	PRVRThroughputReduction   float64 // vs the naive fix (paper: 70.5%)
	PRVREnergyReduction       float64 // vs the naive fix (paper: 73.8%)
}

// AnalyzeMitigations computes the §6.1 numbers.
func AnalyzeMitigations() (MitigationAnalysis, error) {
	idd := energy.DDR5x32Gb()
	prvr, err := mitigate.AnalyzePRVR(mitigate.DefaultPRVRConfig(), idd)
	if err != nil {
		return MitigationAnalysis{}, err
	}
	return MitigationAnalysis{
		BaselineThroughputLoss:    prvr.Baseline.ThroughputLoss,
		BaselineRefreshEnergy:     prvr.Baseline.RefreshEnergyFraction,
		ShortPeriodThroughputLoss: prvr.ShortPeriod.ThroughputLoss,
		ShortPeriodRefreshEnergy:  prvr.ShortPeriod.RefreshEnergyFraction,
		PRVRThroughputLoss:        prvr.PRVRThroughputLoss,
		PRVRThroughputReduction:   prvr.ThroughputLossReduction,
		PRVREnergyReduction:       prvr.RefreshEnergyReduction,
	}, nil
}
