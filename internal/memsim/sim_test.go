package memsim

import (
	"math"
	"testing"
	"time"
)

func smallSys() SystemConfig {
	cfg := DefaultSystem()
	cfg.WarmupInstr = 5000
	cfg.MeasureInstr = 40000
	return cfg
}

func TestRunBasics(t *testing.T) {
	cfg := smallSys()
	mix := Mixes(1)[0]
	res, err := Run(cfg, mix, NoRefresh(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 4 {
		t.Fatalf("want 4 core results, got %d", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.IPC <= 0 || c.IPC > cfg.IPCPeak {
			t.Fatalf("core %d IPC %v out of (0, %v]", i, c.IPC, cfg.IPCPeak)
		}
		if c.Workload.Name != mix[i].Name {
			t.Fatalf("core results out of order")
		}
		if c.Instructions < cfg.MeasureInstr {
			t.Fatalf("core %d measured %d instructions", i, c.Instructions)
		}
	}
	if res.Acts == 0 || res.Reads == 0 || res.Writes == 0 {
		t.Fatalf("missing activity counters: %+v", res)
	}
	if res.ElapsedNs <= 0 {
		t.Fatal("no elapsed time")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := smallSys()
	mix := Mixes(1)[0]
	a, err := Run(cfg, mix, NoRefresh(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, mix, NoRefresh(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cores {
		if a.Cores[i].IPC != b.Cores[i].IPC {
			t.Fatal("identical runs must agree exactly")
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := smallSys()
	if _, err := Run(cfg, nil, NoRefresh(), 1); err == nil {
		t.Fatal("empty mix accepted")
	}
	bad := Mixes(1)[0]
	bad[0].MPKI = 0
	if _, err := Run(cfg, bad, NoRefresh(), 1); err == nil {
		t.Fatal("zero MPKI accepted")
	}
}

func TestRefreshDegradesIPC(t *testing.T) {
	cfg := smallSys()
	mix := Mixes(2)[1]
	ipc := func(e *RefreshSchedule) float64 {
		res, err := Run(cfg, mix, e, 3)
		if err != nil {
			t.Fatal(err)
		}
		total := 0.0
		for _, c := range res.Cores {
			total += c.IPC
		}
		return total
	}
	none := ipc(NoRefresh())
	p64, _ := PeriodicRefresh(cfg, 64)
	p8, _ := PeriodicRefresh(cfg, 8)
	at64 := ipc(p64)
	at8 := ipc(p8)
	if !(none > at64 && at64 > at8) {
		t.Fatalf("refresh must cost performance: none=%v 64ms=%v 8ms=%v", none, at64, at8)
	}
	// An 8 ms period with tRFC=350 blocks ~36% of time; the hit must be
	// substantial.
	if at8 > none*0.95 {
		t.Fatalf("8 ms refresh too cheap: %v vs %v", at8, none)
	}
}

func TestWeightedSpeedupBounds(t *testing.T) {
	cfg := smallSys()
	mix := Mixes(3)[2]
	solo, err := SoloIPCs(cfg, mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := MixIPCs(cfg, mix, NoRefresh(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 4 || len(shared) != 4 {
		t.Fatalf("missing core results: %d solo, %d shared", len(solo), len(shared))
	}
	ws := WeightedSpeedupFrom(shared, solo)
	if ws <= 0 || ws > float64(len(mix))+1e-9 {
		t.Fatalf("weighted speedup %v out of (0, %d]", ws, len(mix))
	}
	// Shared execution cannot beat solo for every core simultaneously by
	// much; with contention WS should be below the core count.
	if ws > 3.999 {
		t.Fatalf("no contention visible: WS=%v", ws)
	}
}

func TestSoloBaselineCaching(t *testing.T) {
	// Split plans measure solo baselines in one shard and fold them into
	// weighted speedups in another, so SoloIPCs must equal, bit for bit,
	// each core run alone with refresh disabled, and repeat exactly.
	cfg := smallSys()
	mix := Mixes(4)[3]
	solo, err := SoloIPCs(cfg, mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	again, err := SoloIPCs(cfg, mix, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range mix {
		res, err := Run(cfg, []CoreWorkload{w}, NoRefresh(), 5)
		if err != nil {
			t.Fatal(err)
		}
		if solo[i] != res.Cores[0].IPC || again[i] != solo[i] {
			t.Fatalf("core %d: SoloIPCs %v, repeat %v, lone run %v", i, solo[i], again[i], res.Cores[0].IPC)
		}
	}
	bad := append([]CoreWorkload(nil), mix...)
	bad[2].MPKI = 0
	if _, err := SoloIPCs(cfg, bad, 5); err == nil {
		t.Fatal("zero MPKI accepted")
	}
}

// wsFor measures the mix's weighted speedup under the schedule against the
// given solo baselines, the way fig23 and prvr-sim reduce their runs.
func wsFor(t *testing.T, cfg SystemConfig, mix []CoreWorkload, sched *RefreshSchedule, seed uint64, solo []float64) float64 {
	t.Helper()
	shared, err := MixIPCs(cfg, mix, sched, seed)
	if err != nil {
		t.Fatal(err)
	}
	return WeightedSpeedupFrom(shared, solo)
}

func TestRAIDRBeatsPeriodicAtLowWeakFraction(t *testing.T) {
	// The whole point of retention-aware refresh: with few weak rows,
	// refreshing most rows at 1024 ms beats 64 ms periodic refresh.
	cfg := smallSys()
	mix := Mixes(5)[4]
	solo := soloFor(t, cfg, mix)

	p64, err := PeriodicRefresh(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	wsPeriodic := wsFor(t, cfg, mix, p64, 9, solo)
	rc := DefaultRAIDR(TrackerBitmap)
	rc.WeakFraction = 1e-4
	raidr, _, err := NewRAIDR(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	wsRaidr := wsFor(t, cfg, mix, raidr, 9, solo)
	if wsRaidr <= wsPeriodic {
		t.Fatalf("RAIDR (%v) must beat 64 ms periodic (%v) at 0.01%% weak rows",
			wsRaidr, wsPeriodic)
	}
}

func soloFor(t *testing.T, cfg SystemConfig, mix []CoreWorkload) []float64 {
	t.Helper()
	solo, err := SoloIPCs(cfg, mix, 9)
	if err != nil {
		t.Fatal(err)
	}
	return solo
}

func TestRAIDRWeakFractionErodesSpeedup(t *testing.T) {
	// Fig 23's core dynamic: more weak rows ⇒ more fast refreshes ⇒ lower
	// speedup, monotonically.
	cfg := smallSys()
	mix := Mixes(6)[5]
	solo := soloFor(t, cfg, mix)
	fractions := []float64{1e-4, 0.01, 0.2, 0.5}
	var speedups []float64
	for _, w := range fractions {
		rc := DefaultRAIDR(TrackerBitmap)
		rc.WeakFraction = w
		eng, _, err := NewRAIDR(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		ws := wsFor(t, cfg, mix, eng, 11, solo)
		speedups = append(speedups, ws)
	}
	// Adjacent points may wiggle ~1% from refresh/access phase alignment;
	// the trend across the sweep must be clearly downward.
	for i := 1; i < len(speedups); i++ {
		if speedups[i] > speedups[i-1]*1.02 {
			t.Fatalf("speedup grew past noise at w=%v: %v after %v",
				fractions[i], speedups[i], speedups[i-1])
		}
	}
	if speedups[len(speedups)-1] >= speedups[0]*0.995 {
		t.Fatalf("50%% weak rows should clearly erode the speedup: %v", speedups)
	}
}

func TestBloomTrackerCollapsesEarly(t *testing.T) {
	// Fig 23 left: the 8 Kb Bloom filter saturates around 0.2% weak rows,
	// promoting a large share of strong rows to the fast rate.
	cfg := DefaultSystem()
	rc := DefaultRAIDR(TrackerBloom)
	rc.WeakFraction = 0.002
	_, info, err := NewRAIDR(cfg, rc)
	if err != nil {
		t.Fatal(err)
	}
	effFrac := float64(info.EffectiveWeakRows) / float64(cfg.TotalRows())
	if effFrac < 0.05 {
		t.Fatalf("bloom tracker should saturate at 0.2%% weak: effective %.3f", effFrac)
	}
	if info.FalsePositiveRate <= 0 {
		t.Fatal("expected false positives")
	}
	// The bitmap tracker is exact.
	rcB := DefaultRAIDR(TrackerBitmap)
	rcB.WeakFraction = 0.002
	_, infoB, err := NewRAIDR(cfg, rcB)
	if err != nil {
		t.Fatal(err)
	}
	if infoB.EffectiveWeakRows != infoB.WeakRows || infoB.FalsePositiveRate != 0 {
		t.Fatal("bitmap tracker must be exact")
	}
}

func TestNewRAIDRValidation(t *testing.T) {
	cfg := DefaultSystem()
	rc := DefaultRAIDR(TrackerBitmap)
	rc.WeakFraction = -0.1
	if _, _, err := NewRAIDR(cfg, rc); err == nil {
		t.Fatal("negative weak fraction accepted")
	}
	rc = DefaultRAIDR(TrackerBitmap)
	rc.StrongPeriodMs = 1
	if _, _, err := NewRAIDR(cfg, rc); err == nil {
		t.Fatal("strong period below weak period accepted")
	}
}

func TestNormalizedRefreshOps(t *testing.T) {
	// Fig 22: w=1 means everything refreshes at 64 ms (normalized 1);
	// w=0 with a 1024 ms strong retention time needs 1/16 the operations.
	if got := NormalizedRefreshOps(1, 1024); math.Abs(got-1) > 1e-12 {
		t.Fatalf("all-weak ops %v, want 1", got)
	}
	if got := NormalizedRefreshOps(0, 1024); math.Abs(got-0.0625) > 1e-12 {
		t.Fatalf("no-weak ops %v, want 1/16", got)
	}
	// Longer strong retention times always help (first Fig 22 takeaway).
	if NormalizedRefreshOps(0.1, 1024) >= NormalizedRefreshOps(0.1, 128) {
		t.Fatal("1024 ms strong rows must need fewer refreshes than 128 ms")
	}
	// Monotone in weak fraction.
	prev := -1.0
	for w := 0.0; w <= 1.0001; w += 0.1 {
		v := NormalizedRefreshOps(w, 512)
		if v < prev {
			t.Fatal("refresh ops must grow with weak fraction")
		}
		prev = v
	}
}

func TestMixesShape(t *testing.T) {
	mixes := Mixes(20)
	if len(mixes) != 20 {
		t.Fatalf("want 20 mixes, got %d", len(mixes))
	}
	seen := map[string]bool{}
	for _, mix := range mixes {
		if len(mix) != 4 {
			t.Fatal("each mix has four cores")
		}
		for _, w := range mix {
			if w.MPKI < 10 {
				t.Fatalf("workload %s MPKI %v below the paper's ≥10 cut", w.Name, w.MPKI)
			}
			if seen[w.Name] {
				t.Fatalf("duplicate workload name %s", w.Name)
			}
			seen[w.Name] = true
		}
	}
	// Deterministic.
	again := Mixes(20)
	if again[3][2] != mixes[3][2] {
		t.Fatal("mixes must be deterministic")
	}
}

func TestBenefitFraction(t *testing.T) {
	// Full headroom captured.
	if got := BenefitFraction(4.0, 3.0, 4.0); got != 1 {
		t.Fatalf("full benefit = %v", got)
	}
	// No better than periodic refresh.
	if got := BenefitFraction(3.0, 3.0, 4.0); got != 0 {
		t.Fatalf("zero benefit = %v", got)
	}
	if got := BenefitFraction(3.5, 3.0, 4.0); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("half benefit = %v", got)
	}
	// Degenerate headroom.
	if got := BenefitFraction(3.0, 4.0, 4.0); got != 0 {
		t.Fatalf("degenerate headroom = %v", got)
	}
}

func TestBloomBenefitCollapsesNearSaturation(t *testing.T) {
	// Fig 23 left: by 0.2% weak rows the bloom tracker's benefit over
	// periodic refresh is almost completely eliminated (≈99 pp).
	cfg := smallSys()
	mix := Mixes(8)[7]
	solo := soloFor(t, cfg, mix)
	p64, err := PeriodicRefresh(cfg, 64)
	if err != nil {
		t.Fatal(err)
	}
	wsP := wsFor(t, cfg, mix, p64, 21, solo)
	wsN := wsFor(t, cfg, mix, NoRefresh(), 21, solo)
	benefit := func(w float64) float64 {
		rc := DefaultRAIDR(TrackerBloom)
		rc.WeakFraction = w
		eng, _, err := NewRAIDR(cfg, rc)
		if err != nil {
			t.Fatal(err)
		}
		ws := wsFor(t, cfg, mix, eng, 21, solo)
		return BenefitFraction(ws, wsP, wsN)
	}
	low := benefit(1e-5)
	high := benefit(0.002)
	if low < 0.5 {
		t.Fatalf("bloom RAIDR at 1e-5 weak should capture most headroom: %v", low)
	}
	if high > low-0.3 {
		t.Fatalf("bloom benefit should collapse by 0.2%% weak: %v -> %v", low, high)
	}
}

func TestDuplicateWorkloadNamesKeepPerCoreResults(t *testing.T) {
	// Regression: results used to be restored by Workload.Name, so a mix
	// with duplicate names aliased every such core onto the last-finished
	// one's measurements. Restoration must be by core index.
	cfg := smallSys()
	mix := []CoreWorkload{
		{Name: "dup", MPKI: 10, RowLocality: 0.9, WriteFrac: 0.2},
		{Name: "dup", MPKI: 50, RowLocality: 0.2, WriteFrac: 0.2},
	}
	res, err := Run(cfg, mix, NoRefresh(), 17)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cores[0].Workload.MPKI != 10 || res.Cores[1].Workload.MPKI != 50 {
		t.Fatalf("core slots aliased by name: MPKI %v / %v",
			res.Cores[0].Workload.MPKI, res.Cores[1].Workload.MPKI)
	}
	// The MPKI-50 core issues ~5x the misses over the same instruction
	// window; identical request counts would mean one core's numbers were
	// copied over the other's.
	if res.Cores[0].Requests == res.Cores[1].Requests {
		t.Fatalf("duplicate-name cores share a result: %d requests each",
			res.Cores[0].Requests)
	}
	if res.Cores[1].Requests < res.Cores[0].Requests*3 {
		t.Fatalf("MPKI 50 core should issue far more requests: %d vs %d",
			res.Cores[1].Requests, res.Cores[0].Requests)
	}
	if res.Cores[0].IPC <= res.Cores[1].IPC {
		t.Fatalf("row-hit-heavy MPKI 10 core must outrun the MPKI 50 core: %v vs %v",
			res.Cores[0].IPC, res.Cores[1].IPC)
	}
}

func TestHighMPKIBoundedAndGuarded(t *testing.T) {
	// Regression: gap = 1000/MPKI used to be truncated to int, so any
	// MPKI > 1000 made the per-miss retirement zero and Run spun forever.
	// The fixed simulator accumulates fractional gaps and rejects MPKI
	// beyond the one-miss-per-instruction bound outright.
	cfg := smallSys()
	cfg.MeasureInstr = 2000
	bad := []CoreWorkload{{Name: "hot", MPKI: 1001, RowLocality: 0.5}}
	if _, err := Run(cfg, bad, NoRefresh(), 1); err == nil {
		t.Fatal("MPKI above 1000 accepted — the old code hung here")
	}
	// The boundary itself (gap exactly 1) must terminate and measure.
	edge := []CoreWorkload{{Name: "edge", MPKI: 1000, RowLocality: 0.5}}
	done := make(chan RunResult, 1)
	go func() {
		res, err := Run(cfg, edge, NoRefresh(), 1)
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	select {
	case res := <-done:
		if res.Cores[0].Instructions < cfg.MeasureInstr {
			t.Fatalf("measured only %d instructions", res.Cores[0].Instructions)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("MPKI=1000 run did not terminate")
	}
}

func TestFractionalGapAccumulatesExactly(t *testing.T) {
	// MPKI 13 gives gap = 1000/13 ≈ 76.923: with truncation every miss
	// would under-count ~0.92 instructions. The float accumulator keeps
	// Instructions = requests x gap to rounding.
	cfg := smallSys()
	cfg.WarmupInstr = 0
	cfg.MeasureInstr = 10000
	mix := []CoreWorkload{{Name: "frac", MPKI: 13, RowLocality: 0.5}}
	res, err := Run(cfg, mix, NoRefresh(), 23)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Cores[0]
	gap := mix[0].GapInstructions()
	if got := float64(c.Instructions) - gap*float64(c.Requests); math.Abs(got) > 1 {
		t.Fatalf("instruction count drifted %v from requests x gap", got)
	}
	// Overshoot past the target is bounded by one gap.
	if c.Instructions < cfg.MeasureInstr || float64(c.Instructions) > float64(cfg.MeasureInstr)+gap+1 {
		t.Fatalf("instructions %d outside [%d, %d+gap]", c.Instructions, cfg.MeasureInstr, cfg.MeasureInstr)
	}
}

func TestWarmupBoundaryConsistent(t *testing.T) {
	// Regression: the warmup-crossing miss used to count toward measured
	// instructions but not toward requests/row-hits, skewing every
	// per-request statistic. All three axes now share one boundary:
	// measured instructions = requests x gap, and the row-hit count can
	// never exceed the request count.
	cfg := smallSys()
	cfg.WarmupInstr = 5000
	cfg.MeasureInstr = 20000
	for _, mpki := range []float64{10, 33, 90} {
		mix := []CoreWorkload{{Name: "warm", MPKI: mpki, RowLocality: 0.7}}
		res, err := Run(cfg, mix, NoRefresh(), 29)
		if err != nil {
			t.Fatal(err)
		}
		c := res.Cores[0]
		gap := mix[0].GapInstructions()
		if drift := float64(c.Instructions) - gap*float64(c.Requests); math.Abs(drift) > 1 {
			t.Fatalf("MPKI %v: instructions %d vs %d requests x gap %.3f drift %v",
				mpki, c.Instructions, c.Requests, gap, drift)
		}
		if c.RowHits > c.Requests {
			t.Fatalf("MPKI %v: %d row hits exceed %d requests", mpki, c.RowHits, c.Requests)
		}
		if c.TimeNs <= 0 || c.IPC <= 0 {
			t.Fatalf("MPKI %v: degenerate measurement %+v", mpki, c)
		}
	}
}

func TestWarmupZeroAndLargeAgree(t *testing.T) {
	// With warmup the measuring window starts later but per-request
	// statistics must stay in the same regime as a warmup-free run.
	cfg := smallSys()
	cfg.MeasureInstr = 20000
	mix := []CoreWorkload{{Name: "w", MPKI: 40, RowLocality: 0.6}}

	cfg.WarmupInstr = 0
	a, err := Run(cfg, mix, NoRefresh(), 31)
	if err != nil {
		t.Fatal(err)
	}
	cfg.WarmupInstr = 30000
	b, err := Run(cfg, mix, NoRefresh(), 31)
	if err != nil {
		t.Fatal(err)
	}
	ra := float64(a.Cores[0].RowHits) / float64(a.Cores[0].Requests)
	rb := float64(b.Cores[0].RowHits) / float64(b.Cores[0].Requests)
	if math.Abs(ra-rb) > 0.1 {
		t.Fatalf("row-hit rate shifted across warmup settings: %v vs %v", ra, rb)
	}
	if math.Abs(a.Cores[0].IPC-b.Cores[0].IPC) > 0.25*a.Cores[0].IPC {
		t.Fatalf("IPC shifted across warmup settings: %v vs %v", a.Cores[0].IPC, b.Cores[0].IPC)
	}
}
