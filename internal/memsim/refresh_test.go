package memsim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestScheduleNextFree(t *testing.T) {
	s := schedule{periodNs: 1000, busyNs: 100, offsetNs: 0}
	cases := []struct{ t, want float64 }{
		{0, 100},     // window start: blocked until 100
		{50, 100},    // inside window
		{100, 100},   // window just ended
		{500, 500},   // idle
		{1020, 1100}, // next window
	}
	for _, c := range cases {
		if got := s.nextFree(c.t); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("nextFree(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestScheduleNextFreeWithOffset(t *testing.T) {
	s := schedule{periodNs: 1000, busyNs: 100, offsetNs: 250}
	if got := s.nextFree(260); math.Abs(got-350) > 1e-9 {
		t.Fatalf("nextFree(260) = %v, want 350", got)
	}
	if got := s.nextFree(100); got != 100 {
		t.Fatalf("nextFree(100) = %v, want 100", got)
	}
}

func TestScheduleBlockedBetween(t *testing.T) {
	s := schedule{periodNs: 1000, busyNs: 100}
	if !s.blockedBetween(950, 1050) {
		t.Fatal("window at 1000 overlaps (950, 1050]")
	}
	if s.blockedBetween(150, 950) {
		t.Fatal("no window in (150, 950]")
	}
	if !s.blockedBetween(1050, 2100) {
		t.Fatal("window at 2000 overlaps")
	}
	if s.blockedBetween(500, 500) {
		t.Fatal("empty interval cannot be blocked")
	}
}

func TestPeriodicRefreshEngine(t *testing.T) {
	cfg := DefaultSystem()
	eng, err := PeriodicRefresh(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	// tREFI = 64 ms / 8192 = 7812.5 ns; tRFC = 350 ns.
	if got := eng.nextFree(0, 10); math.Abs(got-350) > 1e-9 {
		t.Fatalf("nextFree inside REFab = %v, want 350", got)
	}
	if got := eng.nextFree(3, 1000); got != 1000 {
		t.Fatalf("nextFree idle = %v", got)
	}
	if !eng.blockedBetween(5, 7800, 7900) {
		t.Fatal("second REFab window missed")
	}
	if eng.Stats().AllBankPerSec == 0 {
		t.Fatal("stats missing")
	}
	if _, err := PeriodicRefresh(cfg, 0.001); err == nil {
		t.Fatal("saturating refresh period accepted")
	}
}

func TestRowRateRefreshStagger(t *testing.T) {
	cfg := DefaultSystem()
	eng, err := rowRateRefresh(cfg, "rows", 1e6) // one row per µs per bank
	if err != nil {
		t.Fatal(err)
	}
	// Bank 0's window starts at 0, bank 8's halfway through the period.
	if got := eng.nextFree(0, 0); math.Abs(got-cfg.RowRefreshNs) > 1e-9 {
		t.Fatalf("bank 0 nextFree(0) = %v", got)
	}
	if got := eng.nextFree(8, 0); got != 0 {
		t.Fatalf("bank 8 should be free at 0, got %v", got)
	}
	if _, err := rowRateRefresh(cfg, "sat", 1e9); err == nil {
		t.Fatal("saturating row rate accepted")
	}
	// Zero rate = no-op schedule.
	z, err := rowRateRefresh(cfg, "zero", 0)
	if err != nil {
		t.Fatal(err)
	}
	if z.nextFree(0, 5) != 5 {
		t.Fatal("zero-rate schedule must never block")
	}
}

func TestComposeOverlaysSchedules(t *testing.T) {
	cfg := DefaultSystem()
	p, _ := PeriodicRefresh(cfg, 64)
	r, _ := rowRateRefresh(cfg, "rows", 1e5)
	c := compose(p, r)
	if c.Stats().AllBankPerSec == 0 || c.Stats().RowPerSecPerBank == 0 {
		t.Fatal("composed stats incomplete")
	}
	// Blocked wherever either component blocks.
	if got := c.nextFree(0, 10); got < 350 {
		t.Fatalf("composed schedule must respect REFab: %v", got)
	}
}

func TestPRVREngine(t *testing.T) {
	cfg := DefaultSystem()
	eng, err := PRVR(cfg, 32, 3072, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.AllBankPerSec == 0 {
		t.Fatal("PRVR must keep periodic refresh")
	}
	want := 3072.0 / 0.008
	if math.Abs(st.RowPerSecPerBank-want) > 1 {
		t.Fatalf("PRVR victim rate %v, want %v", st.RowPerSecPerBank, want)
	}
}

func TestNoRefreshNeverBlocks(t *testing.T) {
	e := NoRefresh()
	if e.nextFree(0, 123) != 123 || e.blockedBetween(0, 0, 1e12) {
		t.Fatal("no-refresh schedule must never block")
	}
	// The controller skips every schedule query for an idle schedule.
	if !e.idle() {
		t.Fatal("no-refresh schedule is not idle")
	}
}

// chainSchedule builds a pathological composition of n abutting windows
// [0,100), [100,200), ... listed in REVERSE order, so each nextFree
// fixed-point pass escapes exactly one window: the earliest free time from 0
// is n*100 and reaching it takes n+1 passes.
func chainSchedule(n int) *RefreshSchedule {
	e := &RefreshSchedule{name: "chain"}
	for i := n - 1; i >= 0; i-- {
		e.chipWide = append(e.chipWide, schedule{
			periodNs: 1e12, busyNs: 100, offsetNs: float64(i) * 100,
		})
	}
	return e
}

func TestNextFreeConvergesThroughDeepChain(t *testing.T) {
	// Regression: the fixed point used to be capped at 8 iterations and
	// SILENTLY returned a still-blocked time — here the old code would
	// report 800 while windows block everything up to 2000.
	e := chainSchedule(20)
	if got := e.nextFree(0, 0); math.Abs(got-2000) > 1e-9 {
		t.Fatalf("nextFree(0) through 20 chained windows = %v, want 2000", got)
	}
	// A free starting point stays untouched.
	if got := e.nextFree(0, 2500); got != 2500 {
		t.Fatalf("nextFree(2500) = %v", got)
	}
}

func TestNextFreePanicsOnSaturatedChain(t *testing.T) {
	// A chain deeper than the iteration bound means the bank effectively
	// never frees; the schedule must fail loudly instead of handing the
	// simulator a blocked timestamp.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("saturated schedule composition did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "did not converge") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	chainSchedule(100).nextFree(0, 0)
}

func TestComposeBankCountMismatchPanics(t *testing.T) {
	// Regression: compose used to size perBank from the FIRST per-bank
	// schedule; a wider second schedule then indexed out of range (or silently
	// dropped banks the other way around).
	small := DefaultSystem()
	small.Banks = 4
	big := DefaultSystem() // 16 banks
	a, err := rowRateRefresh(small, "narrow", 1e5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rowRateRefresh(big, "wide", 1e5)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range [][]*RefreshSchedule{{a, b}, {b, a}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("mismatched bank counts composed silently")
				}
			}()
			compose(order[0], order[1])
		}()
	}
	// Same bank count still composes fine.
	c, err := rowRateRefresh(big, "wide2", 2e5)
	if err != nil {
		t.Fatal(err)
	}
	compose(b, c)
}

func TestFreeSpan(t *testing.T) {
	cfg := DefaultSystem()
	eng, err := PeriodicRefresh(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Inside the first REFab: free at tRFC=350, next window at tREFI=7812.5.
	free, until := eng.freeSpan(0, 10)
	if math.Abs(free-350) > 1e-9 || math.Abs(until-7812.5) > 1e-9 {
		t.Fatalf("freeSpan(10) = (%v, %v), want (350, 7812.5)", free, until)
	}
	// Idle: span starts immediately.
	free, until = eng.freeSpan(0, 1000)
	if free != 1000 || math.Abs(until-7812.5) > 1e-9 {
		t.Fatalf("freeSpan(1000) = (%v, %v)", free, until)
	}
	// No windows at all: the span never ends.
	nr := NoRefresh()
	free, until = nr.freeSpan(0, 42)
	if free != 42 || !math.IsInf(until, 1) {
		t.Fatalf("no-refresh freeSpan = (%v, %v)", free, until)
	}
}
