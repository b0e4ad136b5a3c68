package memsim

import "testing"

// cmdTestSystem is a deliberately round-numbered configuration (tCK = 1 ns,
// so cycles == ns) making every constraint's effect exactly predictable:
// CL=10 CWL=9 tRCD=12 tRP=13 tRAS=30 tRC=45 tFAW=40 tCCD_S=4 tCCD_L=6
// tRTP=8 tWR=16 burst=2, 8 banks in 2 groups (0–3 and 4–7).
func cmdTestSystem() SystemConfig {
	return SystemConfig{
		Banks: 8, RowsPerBank: 1024, BankGroups: 2,
		TCKns:  1,
		TCASns: 10, TCWLns: 9, TRCDns: 12, TRPns: 13, TRASns: 30, TRCns: 45,
		TRFCns: 100, TFAWns: 40, TCCDSns: 4, TCCDLns: 6, TRTPns: 8, TWRns: 16,
		TBurstNs: 2, RowRefreshNs: 45,
		IPCPeak: 4, CPUGHz: 4, MLP: 4, WarmupInstr: 0, MeasureInstr: 1000,
	}
}

func newTestController(t *testing.T, cfg SystemConfig, refresh *RefreshSchedule) *memController {
	t.Helper()
	tim, err := cfg.Timing()
	if err != nil {
		t.Fatal(err)
	}
	return newController(cfg, tim, refresh)
}

func TestCommandActToRdObeysTRCD(t *testing.T) {
	mc := newTestController(t, cmdTestSystem(), NoRefresh())
	done, hit := mc.access(0, 1, false, 0)
	if hit {
		t.Fatal("first access cannot hit")
	}
	// ACT at 0, RD no earlier than tRCD=12, data at RD+CL+burst = 24.
	if done != 24 {
		t.Fatalf("first access completes at %d, want 24 (ACT 0 + tRCD 12 + CL 10 + burst 2)", done)
	}
	if mc.acts != 1 || mc.reads != 1 || mc.pres != 0 {
		t.Fatalf("command counts acts=%d reads=%d pres=%d", mc.acts, mc.reads, mc.pres)
	}
	// An immediate same-row access is a hit and needs no ACT.
	done2, hit2 := mc.access(0, 1, false, done)
	if !hit2 || mc.acts != 1 {
		t.Fatal("same-row access must hit the open row")
	}
	if done2 <= done {
		t.Fatal("hit must still occupy a later bus slot")
	}
}

func TestCommandRasBeforePreAndRc(t *testing.T) {
	mc := newTestController(t, cmdTestSystem(), NoRefresh())
	mc.access(0, 1, false, 0) // ACT at 0, RD at 12
	// tRAS (ACT+30) dominates tRTP (RD+8=20): the PRE for a conflicting row
	// may not issue before cycle 30.
	if got := mc.banks[0].preReady; got != 30 {
		t.Fatalf("preReady = %d, want 30 (tRAS after ACT at 0)", got)
	}
	done, hit := mc.access(0, 2, false, 0)
	if hit {
		t.Fatal("row conflict cannot hit")
	}
	// PRE at 30, PRE+tRP = 43, but tRC from the ACT at 0 forces the second
	// ACT to 45: back-to-back ACTs to one bank are tRC apart.
	if got := mc.banks[0].rwReady; got != 45+12 {
		t.Fatalf("second ACT landed at %d (rwReady-tRCD), want 45 (tRC after ACT at 0)", got-12)
	}
	if done != 45+12+10+2 {
		t.Fatalf("conflict access completes at %d, want 69", done)
	}
	if mc.pres != 1 || mc.acts != 2 {
		t.Fatalf("conflict must issue PRE+ACT: pres=%d acts=%d", mc.pres, mc.acts)
	}
}

func TestCommandTrpAfterLatePrecharge(t *testing.T) {
	mc := newTestController(t, cmdTestSystem(), NoRefresh())
	mc.access(0, 1, false, 0)
	// A conflict arriving at 100 precharges immediately (tRAS long
	// satisfied); now tRP=13 is the binding constraint, not tRC (45 < 113).
	done, _ := mc.access(0, 2, false, 100)
	if done != 100+13+12+10+2 {
		t.Fatalf("late conflict completes at %d, want 137 (PRE 100 + tRP 13 + tRCD 12 + CL 10 + burst 2)", done)
	}
}

func TestCommandRtpDelaysPrecharge(t *testing.T) {
	cfg := cmdTestSystem()
	cfg.TRTPns = 25 // now RD+tRTP=37 dominates ACT+tRAS=30
	mc := newTestController(t, cfg, NoRefresh())
	mc.access(0, 1, false, 0) // ACT 0, RD 12
	if got := mc.banks[0].preReady; got != 12+25 {
		t.Fatalf("preReady = %d, want 37 (tRTP after RD at 12)", got)
	}
}

func TestCommandWriteRecoveryDelaysPrecharge(t *testing.T) {
	mc := newTestController(t, cmdTestSystem(), NoRefresh())
	done, _ := mc.access(1, 5, true, 0) // WR at 12, data ends 12+9+2=23
	if done != 23 {
		t.Fatalf("write completes at %d, want 23 (WR 12 + CWL 9 + burst 2)", done)
	}
	// Write recovery: PRE ≥ end of write data + tWR = 39, beyond tRAS = 30.
	if got := mc.banks[1].preReady; got != 23+16 {
		t.Fatalf("preReady = %d, want 39 (tWR after write data)", got)
	}
	done2, _ := mc.access(1, 6, false, 0)
	if done2 != 39+13+12+10+2 {
		t.Fatalf("post-write conflict completes at %d, want 76", done2)
	}
}

func TestCommandFourActivateWindow(t *testing.T) {
	mc := newTestController(t, cmdTestSystem(), NoRefresh())
	// Four ACTs to distinct banks all issue at cycle 0 (no tRRD modeled);
	// the fifth must wait out the sliding window: ACT ≥ first ACT + tFAW.
	var dones []int64
	for b := 0; b < 5; b++ {
		d, _ := mc.access(b, 1, false, 0)
		dones = append(dones, d)
	}
	if mc.acts != 5 {
		t.Fatalf("acts = %d", mc.acts)
	}
	// Bank 4's ACT landed at 40 = tFAW after the four cycle-0 ACTs.
	if got := mc.banks[4].rwReady; got != 40+12 {
		t.Fatalf("fifth ACT at %d (rwReady-tRCD), want 40 (tFAW)", got-12)
	}
	// Banks 0–3 paced only by the column/bus constraints.
	want := []int64{24, 30, 36, 42, 64}
	for i, d := range dones {
		if d != want[i] {
			t.Fatalf("access %d completes at %d, want %d", i, d, want[i])
		}
	}
	// The window SLIDES: after ACTs at {0,0,0,0,40,40,40,40}, a ninth ACT
	// is constrained by the fifth (cycle 40), not the first: ≥ 80.
	for b := 5; b < 8; b++ {
		mc.access(b, 1, false, 0)
	}
	mc.access(0, 2, false, 0) // conflict on bank 0 -> ninth ACT
	if got := mc.banks[0].rwReady - 12; got != 80 {
		t.Fatalf("ninth ACT at %d, want 80 (tFAW from the fifth ACT at 40)", got)
	}
}

func TestCommandCcdShortVsLong(t *testing.T) {
	mc := newTestController(t, cmdTestSystem(), NoRefresh())
	mc.access(0, 1, false, 0) // opens bank 0 (group 0); RD at 12
	mc.access(4, 7, false, 0) // opens bank 4 (group 1); RD at 16 (tCCD_S)
	if got := mc.ccdAny; got != 16 {
		t.Fatalf("cross-group RD at %d, want 16 (tCCD_S=4 after RD at 12)", got)
	}
	// Settle far from the opening transient, then measure pure spacings.
	mc.access(0, 1, false, 100) // hit, RD at 100
	d1, hit := mc.access(0, 1, false, 0)
	if !hit {
		t.Fatal("want row hit")
	}
	// Same bank group: tCCD_L=6 dominates tCCD_S=4 and the bus (burst 2).
	if d1 != 106+10+2 {
		t.Fatalf("same-group back-to-back RD completes at %d, want 118 (tCCD_L spacing)", d1)
	}
	d2, hit := mc.access(4, 7, false, 0)
	if !hit {
		t.Fatal("want row hit on bank 4")
	}
	// Different bank group: only tCCD_S=4 applies.
	if d2 != 110+10+2 {
		t.Fatalf("cross-group RD completes at %d, want 122 (tCCD_S spacing)", d2)
	}
}

func TestCommandRefreshWindowGatesAndClosesRow(t *testing.T) {
	cfg := cmdTestSystem()
	eng, err := PeriodicRefresh(cfg, 64) // tREFI=7812.5ns, tRFC=100
	if err != nil {
		t.Fatal(err)
	}
	mc := newTestController(t, cfg, eng)
	// Cycle 0 falls inside the first REFab window: every command waits out
	// tRFC before issuing.
	done, _ := mc.access(0, 1, false, 0)
	if done != 100+12+10+2 {
		t.Fatalf("access under REFab completes at %d, want 124", done)
	}
	if mc.refStalls == 0 {
		t.Fatal("refresh stall not counted")
	}
	// A REFab window passing while the row sits open closes it (internal
	// precharge): the next same-row access must re-activate.
	actsBefore := mc.acts
	done2, hit := mc.access(0, 1, false, 9000) // window at [7812.5, 7912.5) intervened
	if hit || mc.acts != actsBefore+1 {
		t.Fatalf("refresh must close the open row: hit=%v acts=%d->%d", hit, actsBefore, mc.acts)
	}
	if done2 != 9000+12+10+2 {
		t.Fatalf("post-refresh access completes at %d, want 9024", done2)
	}
}

func TestCommandIdleClosePolicy(t *testing.T) {
	cfg := cmdTestSystem()
	cfg.IdleCloseNs = 200
	mc := newTestController(t, cfg, NoRefresh())
	mc.access(0, 1, false, 0)
	// Within the timeout the row stays open...
	if _, hit := mc.access(0, 1, false, 150); !hit {
		t.Fatal("row must stay open inside the idle timeout")
	}
	// ...but a long gap precharges it speculatively: same row misses, and
	// the ACT is free of tRP (the PRE happened during the gap).
	done, hit := mc.access(0, 1, false, 5000)
	if hit {
		t.Fatal("idle-closed row cannot hit")
	}
	if done != 5000+12+10+2 {
		t.Fatalf("re-open after idle close completes at %d, want 5024", done)
	}
	if mc.pres == 0 {
		t.Fatal("speculative precharge not counted")
	}
}

func TestCommandBusSerializesBursts(t *testing.T) {
	cfg := cmdTestSystem()
	cfg.TCCDSns, cfg.TCCDLns = 2, 2 // relax CCD so the bus is the bottleneck
	mc := newTestController(t, cfg, NoRefresh())
	last, _ := mc.access(0, 1, false, 0)
	// Data beats may not overlap: consecutive transfers are ≥ burst apart.
	for i := 0; i < 6; i++ {
		done, _ := mc.access([]int{0, 4}[i%2], []int{1, 7}[i%2], false, 0)
		if done-last < 2 {
			t.Fatalf("bursts overlap on the bus: %d then %d", last, done)
		}
		last = done
	}
}
