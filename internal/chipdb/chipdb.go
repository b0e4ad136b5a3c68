// Package chipdb is the catalog of the DRAM chips the paper characterizes
// (Table 1): 216 DDR4 chips in 28 modules from the three major
// manufacturers plus 4 Samsung HBM2 chips. Each module carries a
// vulnerability profile calibrated against the paper's published anchors
// (minimum time to first ColumnDisturb bitflip per die revision, retention
// first-failure times, temperature slopes, access-pattern sensitivity), so
// that simulated modules reproduce the paper's cross-manufacturer and
// cross-generation trends.
package chipdb

import (
	"fmt"
	"sort"

	"columndisturb/internal/dram"
	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// Manufacturer identifies a DRAM vendor.
type Manufacturer string

// The three major DRAM manufacturers.
const (
	SKHynix Manufacturer = "SK Hynix"
	Micron  Manufacturer = "Micron"
	Samsung Manufacturer = "Samsung"
)

// Manufacturers returns the vendors in the paper's presentation order.
func Manufacturers() []Manufacturer { return []Manufacturer{SKHynix, Micron, Samsung} }

// ChipType distinguishes the DRAM standards tested.
type ChipType string

// Tested chip types.
const (
	DDR4 ChipType = "DDR4"
	HBM2 ChipType = "HBM2"
)

// VulnProfile captures a die generation's vulnerability in directly
// observable quantities; BuildParams converts it to fault-model parameters.
type VulnProfile struct {
	// TimeToFirstCDms is the minimum time to the first ColumnDisturb
	// bitflip in the module under worst-case conditions at 85 °C (Fig 6).
	TimeToFirstCDms float64
	// TimeToFirstRETms is the module's minimum retention failure time at
	// 85 °C.
	TimeToFirstRETms float64
	// SigmaKappa / SigmaBase control the spread of the coupling and
	// retention leakage distributions (steeper tails ⇒ larger count
	// ratios between conditions).
	SigmaKappa, SigmaBase float64
	// TempSlopeKappa / TempSlopeBase are the per-+10 °C rate factors.
	TempSlopeKappa, TempSlopeBase float64
	// DeadTimeNs is the per-activation bitline settling time, which sets
	// how much pressing beats hammering (Obs 20 manufacturer spread).
	DeadTimeNs float64
	// KappaRowVarFrac is the row-correlated share of coupling variance
	// (drives blast-radius clustering).
	KappaRowVarFrac float64
}

// ModuleSpec describes one catalog entry (a DRAM module, or one HBM2
// stack's channel for the HBM entries).
type ModuleSpec struct {
	ID      string
	Mfr     Manufacturer
	Type    ChipType
	Chips   int    // DRAM chips in the module
	DieRev  string // die revision letter ("A", "D", …); "" when unknown
	Density string // per-chip density ("8Gb", "16Gb", …); "" when unknown
	Org     string // chip interface width ("x8", "x16"); "" when unknown
	Profile VulnProfile
}

// DieKey groups modules of one manufacturer/density/die-revision — the
// x-axis categories of Fig 6.
func (m ModuleSpec) DieKey() string {
	if m.Type == HBM2 {
		return string(m.Mfr) + " HBM2"
	}
	return fmt.Sprintf("%s %s %s-die", m.Mfr, m.Density, m.DieRev)
}

// Seed returns the module's deterministic simulation seed.
func (m ModuleSpec) Seed() uint64 {
	h := uint64(0)
	for _, c := range m.ID {
		h = rng.Key(h, uint64(c))
	}
	return h
}

// jitter derives a per-module factor in [0.9, 1.1] so modules of the same
// die generation differ realistically.
func (m ModuleSpec) jitter(stream uint64) float64 {
	u := float64(rng.Key(m.Seed(), stream)>>11) / (1 << 53)
	return 0.9 + 0.2*u
}

// Geometry returns the module's scaled simulation geometry.
func (m ModuleSpec) Geometry() dram.Geometry {
	g := dram.DefaultGeometry()
	g.Chips = m.Chips
	if m.Type == HBM2 {
		// One pseudo-channel worth of banks; HBM stacks expose more banks
		// but each is smaller.
		g.Banks = 4
		g.SubarraysPerBank = 8
		g.RowsPerSubarray = 512
		g.Chips = 1
	}
	return g
}

// Timing returns the module's DRAM timing set.
func (m ModuleSpec) Timing() dram.Timing {
	if m.Type == HBM2 {
		return dram.HBM2Timing()
	}
	return dram.DDR4Timing()
}

// BuildParamsFor constructs the module's fault parameters calibrated for a
// custom geometry: the extreme-value calibration accounts for the
// population size, so scaled-down devices keep the module's headline
// time-to-first-bitflip.
func (m ModuleSpec) BuildParamsFor(g dram.Geometry) *faultmodel.Params {
	p := faultmodel.Default()
	pr := m.Profile
	p.SigmaKappa = pr.SigmaKappa
	p.SigmaBase = pr.SigmaBase
	p.TempSlopeKappa = pr.TempSlopeKappa
	p.TempSlopeBase = pr.TempSlopeBase
	p.DeadTimeNs = pr.DeadTimeNs
	if pr.KappaRowVarFrac > 0 {
		p.KappaRowVarFrac = pr.KappaRowVarFrac
	}
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  pr.TimeToFirstCDms * m.jitter(1),
		TimeToFirstRETms: pr.TimeToFirstRETms * m.jitter(2),
		PopulationCells:  g.TotalCells(),
	})
	return &p
}

// BuildParams constructs the module's calibrated fault-model parameters.
func (m ModuleSpec) BuildParams() *faultmodel.Params { return m.BuildParamsFor(m.Geometry()) }

// OpenWithGeometry instantiates the module on a custom (typically scaled-
// down) geometry, re-calibrating the fault parameters to the population.
func (m ModuleSpec) OpenWithGeometry(g dram.Geometry) (*dram.Device, error) {
	return dram.NewDevice(g, m.BuildParamsFor(g), m.Timing(), m.Seed())
}

// Open instantiates the module as a simulated device with its calibrated
// fault parameters, geometry and timing.
func (m ModuleSpec) Open() (*dram.Device, error) { return m.OpenWithGeometry(m.Geometry()) }

// Per-manufacturer process characteristics (see DESIGN.md §5 for how each
// constant traces back to a published observation, and for the values the
// model measures against each one).
// The retention spread (SigmaBase 0.85) and temperature slope (1.2 per
// +10 °C) are common: they make the paper's anchors mutually consistent —
// first retention failure ≈ 512 ms at 85 °C, a few percent of cells failing
// at 16 s (Obs 6/8), only a couple of retention-weak rows per subarray at
// 512–1024 ms (Obs 13), and non-vanishing retention behaviour at 65 °C.
//
// SigmaKappa orders the manufacturers: a wide distribution (SK Hynix, 1.2)
// makes ColumnDisturb a deep-tail phenomenon — very early first bitflip but
// tiny bulk counts and blast radius (the paper: 2 rows at 512 ms, all-0 vs
// all-1 ratio ≈1.15×). A narrow distribution (Samsung, 0.75) pulls the bulk
// close to the tail — moderate first-bitflip times but many affected rows
// (the paper: 232 at 512 ms) and large count ratios. Micron sits between.
var (
	hynixBase = VulnProfile{
		SigmaKappa:     1.20,
		SigmaBase:      0.85,
		TempSlopeKappa: 1.553, // κ ×9.03 over 45→95 °C for Obs 16's 9.05× TTF reduction
		TempSlopeBase:  1.20,
		DeadTimeNs:     7.7, // targets the 1.68× press-vs-hammer TTF gap (Obs 20)
	}
	micronBase = VulnProfile{
		SigmaKappa:     0.90,
		SigmaBase:      0.85,
		TempSlopeKappa: 1.388, // κ ×5.15 over 45→95 °C
		TempSlopeBase:  1.20,
		DeadTimeNs:     0, // targets the 1.22× press-vs-hammer gap: duty effect only
	}
	samsungBase = VulnProfile{
		SigmaKappa:      0.75,
		SigmaBase:       0.85,
		TempSlopeKappa:  1.144, // κ ×1.96 over 45→95 °C
		TempSlopeBase:   1.20,
		DeadTimeNs:      12.8, // targets the 2.03× press-vs-hammer gap
		KappaRowVarFrac: 0.20, // widest blast radius (up to 1022 rows)
	}
)

func profile(base VulnProfile, cdMs, retMs float64) VulnProfile {
	base.TimeToFirstCDms = cdMs
	base.TimeToFirstRETms = retMs
	return base
}

// dieGroup is a construction helper for Table 1 rows.
type dieGroup struct {
	mfr      Manufacturer
	ids      []string
	chips    int // total chips across the group (Table 1 column)
	dieRev   string
	density  string
	org      string
	cd, ret  float64 // calibration anchors, ms at 85 °C
	baseProf VulnProfile
}

var table1 = []dieGroup{
	// SK Hynix.
	{SKHynix, []string{"H0", "H1", "H2"}, 24, "A", "8Gb", "x8", 374.4, 640, hynixBase},
	{SKHynix, []string{"H3", "H4", "H5", "H6"}, 32, "D", "8Gb", "x8", 74.0, 640, hynixBase},
	{SKHynix, []string{"H7"}, 8, "A", "16Gb", "x8", 123.2, 640, hynixBase},
	{SKHynix, []string{"H8", "H9"}, 16, "C", "16Gb", "x8", 95.5, 640, hynixBase},
	// Micron.
	{Micron, []string{"M0"}, 8, "B", "4Gb", "x8", 260, 600, micronBase},
	{Micron, []string{"M1", "M2", "M3"}, 24, "R", "8Gb", "x8", 165, 600, micronBase},
	{Micron, []string{"M4", "M5"}, 16, "B", "16Gb", "x8", 189.5, 600, micronBase},
	{Micron, []string{"M6", "M7"}, 8, "E", "16Gb", "x16", 110, 560, micronBase},
	{Micron, []string{"M8", "M9", "M10", "M11"}, 32, "F", "16Gb", "x8", 63.6, 512, micronBase},
	// Samsung.
	{Samsung, []string{"S0", "S1"}, 16, "A", "16Gb", "x8", 221.3, 580, samsungBase},
	{Samsung, []string{"S2", "S3"}, 16, "B", "16Gb", "x8", 140, 580, samsungBase},
	{Samsung, []string{"S4", "S5"}, 16, "C", "16Gb", "x16", 88.5, 580, samsungBase},
}

// hbm2Profile: Obs 15 — HBM2 chips are vulnerable with *mild* CD/RET count
// ratios that grow with the interval (1.61/2.08/2.43× at 1/2/4 s). The
// paper makes no time-to-first-bitflip claim for HBM2; the mild ratios
// require the CD tail to sit close to the retention tail.
var hbm2Profile = profile(VulnProfile{
	SigmaKappa:     0.85,
	SigmaBase:      0.85,
	TempSlopeKappa: 1.30,
	TempSlopeBase:  1.20,
	DeadTimeNs:     8,
}, 750, 620)

var (
	allModules []ModuleSpec
	byID       map[string]ModuleSpec
)

func init() {
	for _, g := range table1 {
		perModule := g.chips / len(g.ids)
		for _, id := range g.ids {
			allModules = append(allModules, ModuleSpec{
				ID: id, Mfr: g.mfr, Type: DDR4,
				Chips: perModule, DieRev: g.dieRev, Density: g.density, Org: g.org,
				Profile: profile(g.baseProf, g.cd, g.ret),
			})
		}
	}
	for i := 0; i < 4; i++ {
		allModules = append(allModules, ModuleSpec{
			ID: fmt.Sprintf("HBM%d", i), Mfr: Samsung, Type: HBM2,
			Chips: 1, Profile: hbm2Profile,
		})
	}
	byID = make(map[string]ModuleSpec, len(allModules))
	for _, m := range allModules {
		byID[m.ID] = m
	}
}

// Modules returns every catalog entry (28 DDR4 modules + 4 HBM2 chips).
func Modules() []ModuleSpec { return append([]ModuleSpec(nil), allModules...) }

// DDR4Modules returns the 28 DDR4 modules.
func DDR4Modules() []ModuleSpec {
	var out []ModuleSpec
	for _, m := range allModules {
		if m.Type == DDR4 {
			out = append(out, m)
		}
	}
	return out
}

// HBM2Chips returns the 4 HBM2 entries.
func HBM2Chips() []ModuleSpec {
	var out []ModuleSpec
	for _, m := range allModules {
		if m.Type == HBM2 {
			out = append(out, m)
		}
	}
	return out
}

// ByID looks up a module by its Table 1 identifier.
func ByID(id string) (ModuleSpec, bool) {
	m, ok := byID[id]
	return m, ok
}

// ByManufacturer returns the DDR4 modules of one vendor.
func ByManufacturer(mfr Manufacturer) []ModuleSpec {
	var out []ModuleSpec
	for _, m := range allModules {
		if m.Mfr == mfr && m.Type == DDR4 {
			out = append(out, m)
		}
	}
	return out
}

// Representative returns the module the paper uses as the vendor's
// representative in the §4.4/§4.5 studies (S0, H0, M6).
func Representative(mfr Manufacturer) ModuleSpec {
	switch mfr {
	case Samsung:
		return byID["S0"]
	case SKHynix:
		return byID["H0"]
	default:
		return byID["M6"]
	}
}

// DieGroups returns the Fig 6 categories in a stable order: for each
// manufacturer, the (density, die revision) groups with their member
// modules.
func DieGroups() []DieGroupInfo {
	groups := make(map[string]*DieGroupInfo)
	var order []string
	for _, m := range DDR4Modules() {
		key := m.DieKey()
		gi, ok := groups[key]
		if !ok {
			gi = &DieGroupInfo{Key: key, Mfr: m.Mfr, Density: m.Density, DieRev: m.DieRev}
			groups[key] = gi
			order = append(order, key)
		}
		gi.Modules = append(gi.Modules, m)
	}
	sort.SliceStable(order, func(i, j int) bool { return false }) // keep insertion order
	out := make([]DieGroupInfo, 0, len(order))
	for _, k := range order {
		out = append(out, *groups[k])
	}
	return out
}

// DieGroupInfo is one Fig 6 x-axis category.
type DieGroupInfo struct {
	Key     string
	Mfr     Manufacturer
	Density string
	DieRev  string
	Modules []ModuleSpec
}

// TotalDDR4Chips returns the total DDR4 chip count (the paper's 216).
func TotalDDR4Chips() int {
	n := 0
	for _, m := range DDR4Modules() {
		n += m.Chips
	}
	return n
}
