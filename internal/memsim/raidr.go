package memsim

import (
	"fmt"

	"columndisturb/internal/bloom"
)

// Tracker selects how RAIDR remembers which rows are weak.
type Tracker int

// Weak-row tracker implementations (§6.2 evaluates both).
const (
	// TrackerBitmap stores one bit per row: exact classification, high
	// area cost (2 Mb for a 16 GiB module).
	TrackerBitmap Tracker = iota
	// TrackerBloom stores weak rows in a Bloom filter: tiny area (8 Kb),
	// but false positives promote strong rows to the fast refresh rate.
	TrackerBloom
)

// RAIDRConfig parameterizes the retention-aware refresh mechanism.
type RAIDRConfig struct {
	// WeakFraction is the proportion of rows that must be refreshed at the
	// fast rate (retention-weak, or retention+ColumnDisturb-weak).
	WeakFraction float64
	// WeakPeriodMs is the fast refresh period (64 ms).
	WeakPeriodMs float64
	// StrongPeriodMs is the slow refresh period for strong rows (1024 ms).
	StrongPeriodMs float64
	Tracker        Tracker
	// Bloom filter shape (TrackerBloom): the paper uses 8 Kbit, 6 hashes.
	BloomBits   int
	BloomHashes int
}

// DefaultRAIDR returns the paper's §6.2 configuration.
func DefaultRAIDR(tracker Tracker) RAIDRConfig {
	return RAIDRConfig{
		WeakPeriodMs:   64,
		StrongPeriodMs: 1024,
		Tracker:        tracker,
		BloomBits:      8192,
		BloomHashes:    6,
	}
}

// RAIDRInfo reports the mechanism's effective behaviour.
type RAIDRInfo struct {
	WeakRows          int // genuinely weak rows
	EffectiveWeakRows int // rows refreshed at the fast rate (incl. false positives)
	FalsePositiveRate float64
	CommandsPerSec    float64 // REFab-equivalent refresh command rate
}

// refreshCommandsPerWindow mirrors the DDR4 convention of 8192 refresh
// commands covering every row once per refresh window.
const refreshCommandsPerWindow = 8192

// NewRAIDR builds the RAIDR refresh schedule for the system: weak rows
// refresh every WeakPeriodMs, strong rows every StrongPeriodMs. Like the
// original RAIDR, refreshes are standard chip-wide refresh commands whose
// *rate* is modulated by the weak/strong bin populations — so a module
// whose rows are all weak degenerates exactly to 64 ms periodic refresh.
// With the Bloom tracker, false positives promote strong rows to the fast
// rate, eroding the benefit as the weak population grows (the Fig 23
// dynamic).
func NewRAIDR(cfg SystemConfig, rc RAIDRConfig) (*RefreshSchedule, RAIDRInfo, error) {
	if rc.WeakFraction < 0 || rc.WeakFraction > 1 {
		return nil, RAIDRInfo{}, fmt.Errorf("memsim: weak fraction %v out of [0,1]", rc.WeakFraction)
	}
	if rc.WeakPeriodMs <= 0 || rc.StrongPeriodMs < rc.WeakPeriodMs {
		return nil, RAIDRInfo{}, fmt.Errorf("memsim: invalid RAIDR periods %+v", rc)
	}
	totalRows := cfg.TotalRows()
	weak := int(rc.WeakFraction * float64(totalRows))
	info := RAIDRInfo{WeakRows: weak, EffectiveWeakRows: weak}
	if rc.Tracker == TrackerBloom {
		f, err := bloom.New(rc.BloomBits, rc.BloomHashes)
		if err != nil {
			return nil, RAIDRInfo{}, err
		}
		info.FalsePositiveRate = f.TheoreticalFPR(weak)
		info.EffectiveWeakRows = weak + int(info.FalsePositiveRate*float64(totalRows-weak))
	}
	effW := float64(info.EffectiveWeakRows) / float64(totalRows)
	cmdPerSec := refreshCommandsPerWindow *
		(effW/(rc.WeakPeriodMs/1000) + (1-effW)/(rc.StrongPeriodMs/1000))
	info.CommandsPerSec = cmdPerSec
	name := fmt.Sprintf("raidr-%s-w%.2g", map[Tracker]string{TrackerBitmap: "bitmap", TrackerBloom: "bloom"}[rc.Tracker], rc.WeakFraction)
	if cmdPerSec <= 0 {
		return &RefreshSchedule{name: name}, info, nil
	}
	periodNs := 1e9 / cmdPerSec
	if periodNs <= cfg.TRFCns {
		return nil, RAIDRInfo{}, fmt.Errorf("memsim: RAIDR command rate %v/s saturates the chip", cmdPerSec)
	}
	return &RefreshSchedule{
		name:     name,
		chipWide: []schedule{{periodNs: periodNs, busyNs: cfg.TRFCns}},
		stats:    RefreshStats{AllBankPerSec: cmdPerSec},
	}, info, nil
}

// BenefitFraction expresses a retention-aware mechanism's result on the
// paper's benefit scale: the share of the no-refresh headroom the mechanism
// captures over plain 64 ms periodic refresh. 1 means all of the headroom
// (as good as not refreshing), 0 means no better than periodic refresh —
// the "≈99 percentage point benefit reduction" of the saturated Bloom
// variant is a drop to ≈0 on this scale.
func BenefitFraction(wsMechanism, wsPeriodic, wsNoRefresh float64) float64 {
	head := wsNoRefresh - wsPeriodic
	if head <= 0 {
		return 0
	}
	return (wsMechanism - wsPeriodic) / head
}

// NormalizedRefreshOps returns the number of row refresh operations a
// retention-aware mechanism performs, normalized to refreshing every row
// every 64 ms (the Fig 22 y-axis): weak rows at 64 ms, strong rows at the
// given strong retention time.
func NormalizedRefreshOps(weakFraction, strongRetentionMs float64) float64 {
	const basePeriod = 64.0
	return weakFraction + (1-weakFraction)*basePeriod/strongRetentionMs
}
