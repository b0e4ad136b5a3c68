package memsim

import "math"

// The per-bank DRAM command state machine. The controller translates each
// core request into the explicit command sequence an open-page controller
// would issue — PRE (on a row conflict), ACT (on a closed bank), then RD or
// WR — and resolves every command's issue cycle against the datasheet
// constraints in integer DRAM cycles:
//
//	ACT   ≥ lastACT+tRC, lastPRE+tRP, 4th-last ACT (any bank)+tFAW
//	RD/WR ≥ ACT+tRCD, lastRW(any bank)+tCCD_S, lastRW(same group)+tCCD_L,
//	        first free data-bus slot
//	PRE   ≥ ACT+tRAS, lastRD+tRTP, end of write data+tWR
//
// REF enters the command stream through the RefreshSchedule: every
// command issue is pushed past the bank's refresh occupancy windows
// (cycle-rounded), and a window passing over an open row closes it, exactly
// as the internal precharge of a real REF does.

// farPast initializes "cycle of last command" trackers so that adding any
// timing constraint to them cannot overflow yet always lands before cycle 0.
const farPast = -1 << 40

// bankState is one bank's slice of the command state machine.
type bankState struct {
	openRow  int   // -1 when precharged
	rwReady  int64 // earliest RD/WR cycle (ACT+tRCD)
	preReady int64 // earliest PRE cycle (tRAS, tRTP and write recovery)
	actReady int64 // earliest ACT cycle (tRC from last ACT, tRP from PRE)
	lastUse  int64 // completion cycle of the bank's last data transfer
}

// refSpan is one bank's cached refresh-free span: every cycle in
// [from, until) is known to sit outside all refresh windows, so commands
// issued inside it never touch the ns-domain refresh schedule. The zero
// value is empty; the bank's first query fills it.
type refSpan struct {
	from, until int64
}

// memController is the rank-level command/timing core: per-bank state plus
// the rank-wide constraint trackers (four-activate window, column-command
// spacing, the shared data bus).
type memController struct {
	t       Timing
	refresh *RefreshSchedule
	// refIdle short-circuits the ns-domain schedule queries when the
	// schedule has no blocking windows at all (the no-refresh baseline).
	refIdle   bool
	refSpans  []refSpan
	banks     []bankState
	group     []int    // bank -> bank group (contiguous blocks)
	faw       [4]int64 // issue cycles of the last four ACTs, rank-wide ring
	fawIdx    int
	ccdAny    int64   // last RD/WR issue cycle on any bank (tCCD_S)
	ccdGroup  []int64 // last RD/WR issue cycle per bank group (tCCD_L)
	busFree   int64   // first cycle the shared data bus is free
	idleClose int64   // adaptive page-policy timeout in cycles; 0 disables

	acts, pres, reads, writes int64
	refStalls                 int64 // commands delayed by a refresh window
}

func newController(cfg SystemConfig, t Timing, refresh *RefreshSchedule) *memController {
	mc := &memController{
		t:         t,
		refresh:   refresh,
		refIdle:   refresh.idle(),
		refSpans:  make([]refSpan, cfg.Banks),
		banks:     make([]bankState, cfg.Banks),
		group:     make([]int, cfg.Banks),
		ccdGroup:  make([]int64, cfg.BankGroups),
		idleClose: t.Cycles(cfg.IdleCloseNs),
	}
	banksPerGroup := cfg.Banks / cfg.BankGroups
	for b := range mc.banks {
		mc.banks[b].openRow = -1
		mc.group[b] = b / banksPerGroup
	}
	for i := range mc.faw {
		mc.faw[i] = farPast
	}
	mc.ccdAny = farPast
	for g := range mc.ccdGroup {
		mc.ccdGroup[g] = farPast
	}
	return mc
}

// refreshFree returns the earliest cycle ≥ cyc at which the bank is outside
// every refresh occupancy window. One ns-domain query yields a whole free
// span in cycles, and every command issued inside the cached span resolves
// with two integer compares — the hot path.
func (mc *memController) refreshFree(bank int, cyc int64) int64 {
	if mc.refIdle {
		return cyc
	}
	sp := &mc.refSpans[bank]
	if cyc >= sp.from && cyc < sp.until {
		return cyc
	}
	freeNs, untilNs := mc.refresh.freeSpan(bank, mc.t.Ns(cyc))
	free := cyc
	if f := mc.t.Cycles(freeNs); f > cyc {
		mc.refStalls++
		free = f
	}
	sp.from = free
	if math.IsInf(untilNs, 1) {
		sp.until = 1<<62 - 1
	} else {
		// Round down: a cycle landing exactly on the window start is
		// blocked, so it must fall outside the cached span.
		sp.until = int64(untilNs / mc.t.TCKns)
	}
	return free
}

// precharge issues a PRE at the given cycle: the bank closes and the next
// ACT must wait out tRP.
func (mc *memController) precharge(bk *bankState, at int64) {
	bk.openRow = -1
	if r := at + mc.t.RP; r > bk.actReady {
		bk.actReady = r
	}
	mc.pres++
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// access runs one request through the command state machine starting no
// earlier than cycle at, and returns the cycle its data transfer completes
// plus whether it hit the open row.
func (mc *memController) access(bank, row int, write bool, at int64) (done int64, hit bool) {
	bk := &mc.banks[bank]
	start := mc.refreshFree(bank, at)

	// Adaptive page policy: a bank idle past the timeout was speculatively
	// precharged during the gap (at the earliest legal PRE cycle — by the
	// time the next request arrives, tRP has long elapsed).
	if mc.idleClose > 0 && bk.openRow >= 0 && start-bk.lastUse > mc.idleClose {
		mc.precharge(bk, maxI64(bk.preReady, bk.lastUse+mc.idleClose))
	}
	// A refresh window passing over the bank closes its row (REF internally
	// precharges). When both endpoints sit inside the span refreshFree just
	// cached, no window can lie between them and the query is skipped.
	if bk.openRow >= 0 && !mc.refIdle {
		sp := mc.refSpans[bank]
		inSpan := bk.lastUse >= sp.from && start < sp.until
		if !inSpan && mc.refresh.blockedBetween(bank, mc.t.Ns(bk.lastUse), mc.t.Ns(start)) {
			bk.openRow = -1
			bk.actReady = maxI64(bk.actReady, start)
		}
	}

	hit = bk.openRow == row
	if !hit {
		if bk.openRow >= 0 {
			mc.precharge(bk, maxI64(start, bk.preReady))
		}
		actAt := maxI64(maxI64(start, bk.actReady), mc.faw[mc.fawIdx]+mc.t.FAW)
		actAt = mc.refreshFree(bank, actAt)
		bk.openRow = row
		bk.rwReady = actAt + mc.t.RCD
		bk.preReady = actAt + mc.t.RAS
		bk.actReady = actAt + mc.t.RC
		mc.faw[mc.fawIdx] = actAt
		mc.fawIdx = (mc.fawIdx + 1) & 3
		mc.acts++
	}

	g := mc.group[bank]
	lat := mc.t.CAS
	if write {
		lat = mc.t.CWL
	}
	rwAt := maxI64(maxI64(start, bk.rwReady),
		maxI64(mc.ccdAny+mc.t.CCDS, mc.ccdGroup[g]+mc.t.CCDL))
	// The shared data bus serializes transfers: delay the column command
	// until its data beats land in a free slot.
	rwAt = maxI64(rwAt, mc.busFree-lat)
	rwAt = mc.refreshFree(bank, rwAt)
	mc.ccdAny = rwAt
	mc.ccdGroup[g] = rwAt
	done = rwAt + lat + mc.t.Burst
	mc.busFree = done
	if write {
		bk.preReady = maxI64(bk.preReady, done+mc.t.WR)
		mc.writes++
	} else {
		bk.preReady = maxI64(bk.preReady, rwAt+mc.t.RTP)
		mc.reads++
	}
	bk.lastUse = done
	return done, hit
}
