package memsim

import (
	"fmt"
	"math"
	"strings"
)

// RefreshStats summarizes a schedule's refresh work.
type RefreshStats struct {
	// AllBankPerSec is the rate of REFab commands.
	AllBankPerSec float64
	// RowPerSecPerBank is the rate of row-granular refresh operations in
	// each bank.
	RowPerSecPerBank float64
}

// schedule is one periodic blocking window.
type schedule struct {
	periodNs float64
	busyNs   float64
	offsetNs float64
}

func (s schedule) nextFree(t float64) float64 {
	pos := math.Mod(t-s.offsetNs, s.periodNs)
	if pos < 0 {
		pos += s.periodNs
	}
	if pos < s.busyNs {
		return t + (s.busyNs - pos)
	}
	return t
}

// nextStart returns the start of the first blocking window strictly after
// t, for a t known to be outside every window of this schedule.
func (s schedule) nextStart(t float64) float64 {
	start := s.offsetNs + math.Ceil((t-s.offsetNs)/s.periodNs)*s.periodNs
	if start <= t {
		start += s.periodNs
	}
	return start
}

func (s schedule) blockedBetween(t0, t1 float64) bool {
	if t1 <= t0 {
		return false
	}
	// A window [k·P+off, k·P+off+busy) overlaps (t0, t1] iff some window
	// start lies in (t0-busy, t1].
	start := s.offsetNs + math.Ceil((t0-s.busyNs-s.offsetNs)/s.periodNs)*s.periodNs
	// Guard against the boundary case where start sits exactly at t0-busy.
	if start <= t0-s.busyNs {
		start += s.periodNs
	}
	return start <= t1
}

// RefreshSchedule describes when refresh operations block a bank: a
// composition of periodic schedules, each either chip-wide or per-bank
// staggered. Refresh schedules are strictly periodic, so the simulator
// queries them analytically instead of queueing refresh events.
type RefreshSchedule struct {
	name string
	// chipWide apply to every bank identically; perBank[b] apply to bank b.
	chipWide []schedule
	perBank  [][]schedule
	stats    RefreshStats
}

// Stats returns the schedule's refresh operation rates.
func (e *RefreshSchedule) Stats() RefreshStats { return e.stats }

// idle reports whether the schedule has no blocking window at all (the
// no-refresh baseline), letting the controller skip every query.
func (e *RefreshSchedule) idle() bool { return len(e.chipWide) == 0 && e.perBank == nil }

// nextFreeMaxIters bounds the fixed-point iteration in nextFree. One pass
// resolves every window chain that advances in schedule order; each extra
// pass is only needed when a later-listed schedule pushes the time back into
// an earlier-listed one's window, so the bound is the longest such reversed
// chain a sane composition can produce, with a wide margin.
const nextFreeMaxIters = 64

// nextFree returns the earliest time ≥ t (ns) at which the bank is not
// blocked by a refresh operation.
func (e *RefreshSchedule) nextFree(bank int, t float64) float64 {
	// Iterate to a fixed point: leaving one window can land inside
	// another.
	for iter := 0; iter < nextFreeMaxIters; iter++ {
		next := t
		for _, s := range e.chipWide {
			next = math.Max(next, s.nextFree(next))
		}
		if e.perBank != nil {
			for _, s := range e.perBank[bank] {
				next = math.Max(next, s.nextFree(next))
			}
		}
		if next == t {
			return t
		}
		t = next
	}
	// Returning here would hand the simulator a still-blocked time and
	// silently corrupt every timing derived from it; a schedule set this
	// deeply chained means the bank effectively never becomes free.
	panic(fmt.Sprintf("memsim: refresh schedule %q did not converge for bank %d within %d iterations (saturated window composition)",
		e.name, bank, nextFreeMaxIters))
}

// freeSpan returns the earliest free time ≥ t together with the start of
// the next blocking window after it — the controller's span cache turns one
// such query into cycle-domain answers for every command issued until the
// span ends (see memController.refreshFree).
func (e *RefreshSchedule) freeSpan(bank int, t float64) (free, until float64) {
	free = e.nextFree(bank, t)
	until = math.Inf(1)
	for _, s := range e.chipWide {
		until = math.Min(until, s.nextStart(free))
	}
	if e.perBank != nil {
		for _, s := range e.perBank[bank] {
			until = math.Min(until, s.nextStart(free))
		}
	}
	return free, until
}

// blockedBetween reports whether any refresh operation overlapped the bank
// during (t0, t1] — used to invalidate the open row.
func (e *RefreshSchedule) blockedBetween(bank int, t0, t1 float64) bool {
	for _, s := range e.chipWide {
		if s.blockedBetween(t0, t1) {
			return true
		}
	}
	if e.perBank != nil {
		for _, s := range e.perBank[bank] {
			if s.blockedBetween(t0, t1) {
				return true
			}
		}
	}
	return false
}

// NoRefresh returns the hypothetical no-refresh configuration the paper
// uses as the speedup headroom baseline.
func NoRefresh() *RefreshSchedule {
	return &RefreshSchedule{name: "no-refresh"}
}

// PeriodicRefresh returns the standard all-bank refresh: one REFab of
// tRFC every period/8192 (the DDR4/DDR5 convention of 8192 refresh
// commands per window).
func PeriodicRefresh(cfg SystemConfig, periodMs float64) (*RefreshSchedule, error) {
	const refreshesPerWindow = 8192
	trefi := periodMs * 1e6 / refreshesPerWindow
	if trefi <= cfg.TRFCns {
		return nil, fmt.Errorf("memsim: refresh period %v ms leaves no service time", periodMs)
	}
	return &RefreshSchedule{
		name:     fmt.Sprintf("periodic-%.0fms", periodMs),
		chipWide: []schedule{{periodNs: trefi, busyNs: cfg.TRFCns}},
		stats:    RefreshStats{AllBankPerSec: 1e9 / trefi},
	}, nil
}

// rowRateRefresh returns a schedule issuing row-granular refresh operations
// in every bank at the given per-bank rate (rows per second), staggered
// across banks so the chip-wide schedule is smooth.
func rowRateRefresh(cfg SystemConfig, name string, rowsPerSecPerBank float64) (*RefreshSchedule, error) {
	if rowsPerSecPerBank <= 0 {
		return &RefreshSchedule{name: name}, nil
	}
	periodNs := 1e9 / rowsPerSecPerBank
	if periodNs <= cfg.RowRefreshNs {
		return nil, fmt.Errorf("memsim: row refresh rate %v/s saturates the bank", rowsPerSecPerBank)
	}
	perBank := make([][]schedule, cfg.Banks)
	for b := range perBank {
		perBank[b] = []schedule{{
			periodNs: periodNs,
			busyNs:   cfg.RowRefreshNs,
			offsetNs: periodNs * float64(b) / float64(cfg.Banks),
		}}
	}
	return &RefreshSchedule{
		name:    name,
		perBank: perBank,
		stats:   RefreshStats{RowPerSecPerBank: rowsPerSecPerBank},
	}, nil
}

// compose overlays several schedules (e.g. PRVR = periodic + victim rows).
func compose(scheds ...*RefreshSchedule) *RefreshSchedule {
	var names []string
	out := &RefreshSchedule{}
	for _, se := range scheds {
		names = append(names, se.name)
		out.chipWide = append(out.chipWide, se.chipWide...)
		if se.perBank != nil {
			if out.perBank == nil {
				out.perBank = make([][]schedule, len(se.perBank))
			} else if len(se.perBank) != len(out.perBank) {
				// Schedules built from one SystemConfig always agree on the
				// bank count; silently indexing would either drop schedules
				// or walk off the shorter slice.
				panic(fmt.Sprintf("memsim: compose: schedule %q covers %d banks, earlier schedules cover %d",
					se.name, len(se.perBank), len(out.perBank)))
			}
			for b := range se.perBank {
				out.perBank[b] = append(out.perBank[b], se.perBank[b]...)
			}
		}
		out.stats.AllBankPerSec += se.stats.AllBankPerSec
		out.stats.RowPerSecPerBank += se.stats.RowPerSecPerBank
	}
	out.name = strings.Join(names, "+")
	return out
}

// PRVR builds the proactive victim-row refresh mitigation on top of the
// default periodic refresh: victimRows rows per bank refreshed once per
// ttfMs window (the time ColumnDisturb needs to induce its first bitflip),
// assuming every bank hosts a hammered aggressor (§6.1's worst case).
func PRVR(cfg SystemConfig, basePeriodMs float64, victimRows int, ttfMs float64) (*RefreshSchedule, error) {
	base, err := PeriodicRefresh(cfg, basePeriodMs)
	if err != nil {
		return nil, err
	}
	victims, err := rowRateRefresh(cfg, fmt.Sprintf("prvr-%drows-%.0fms", victimRows, ttfMs),
		float64(victimRows)/(ttfMs/1000))
	if err != nil {
		return nil, err
	}
	return compose(base, victims), nil
}
