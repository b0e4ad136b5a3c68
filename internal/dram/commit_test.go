package dram

import (
	"math"
	"testing"

	"columndisturb/internal/faultmodel"
	"columndisturb/internal/sim/rng"
)

// The keyed stream IDs of the fault model, spelled as literals so the
// reference below shares no constant with faultmodel.
const (
	refKappaCell = 1
	refKappaRow  = 2
	refKappaCol  = 3
	refBaseCell  = 4
	refBaseRow   = 5
	refHC        = 6
	refAttractor = 7
	refAntiCell  = 8
	refVRT       = 9
)

func refUniform(parts ...uint64) float64 {
	return (float64(rng.Key(parts...)>>11) + 0.5) / (1 << 53)
}

func refNorm(parts ...uint64) float64 {
	return rng.InvPhi(refUniform(parts...))
}

// refCommit is the commit loop as it was before lazy draws and the
// survival skip, kept verbatim as the bit-for-bit reference: every cell
// draws its full fault parameters from the full rng.Key of its
// coordinates, and every charged cell integrates its exposure over the
// bank's epochs. It reads the bank's state without changing it and
// returns the row's committed words with the number of decay and hammer
// flips. Its one change since: pending aggression is committed even when
// no time has passed since the row's last restore.
func refCommit(b *Bank, nowNs float64, row int, tempC float64, trial int) (words []uint64, decay, hammer int) {
	words = append([]uint64(nil), b.rows[row]...)
	elapsedNs := nowNs - b.restoredNs[row]
	if elapsedNs <= 0 && b.aggression[row] == 0 {
		return words, 0, 0
	}
	p := b.params
	sub := b.geom.SubarrayOf(row)
	seed, bk, s, r := b.seed, uint64(b.index), uint64(sub), uint64(row)
	elapsedMs := elapsedNs * 1e-6
	rhoIdle := p.RhoIdle()
	baseFac := p.BaseTempFactor(tempC)
	kapFac := p.KappaTempFactor(tempC)
	agg := b.aggression[row]
	wRow := math.Sqrt(p.KappaRowVarFrac)
	wCol := math.Sqrt(p.KappaColVarFrac)
	wCell := math.Sqrt(1 - p.KappaRowVarFrac - p.KappaColVarFrac)
	wbRow := math.Sqrt(p.BaseRowVarFrac)
	wbCell := math.Sqrt(1 - p.BaseRowVarFrac)
	for col := 0; col < b.geom.Cols; col++ {
		c := uint64(col)
		zK := wRow*refNorm(seed, refKappaRow, bk, s, r) +
			wCol*refNorm(seed, refKappaCol, bk, s, c) +
			wCell*refNorm(seed, refKappaCell, bk, s, r, c)
		zB := wbRow*refNorm(seed, refBaseRow, bk, s, r) +
			wbCell*refNorm(seed, refBaseCell, bk, s, r, c)
		zH := refNorm(seed, refHC, bk, s, r, c)
		lambdaBase := math.Exp(p.MuBase + p.SigmaBase*zB)
		kappa := math.Exp(p.MuKappa + p.SigmaKappa*zK)
		threshold := math.Exp(p.MuHC + p.SigmaHC*zH)
		attractor := byte(0)
		if refUniform(seed, refAttractor, bk, s, r, c) < 0.5 {
			attractor = 1
		}
		charged := byte(1)
		if p.AntiCellFraction > 0 &&
			refUniform(seed, refAntiCell, bk, s, r, c) < p.AntiCellFraction {
			charged = 0
		}

		stored := WordBit(words, col)
		if stored == charged {
			exposureMs := refExposureMs(b, b.restoredNs[row], nowNs, sub, col, rhoIdle)
			vrt := 1.0
			if p.VRTProb > 0 &&
				refUniform(seed, refVRT, bk, s, r, c, uint64(trial)) < p.VRTProb {
				vrt = p.VRTFactor
			}
			integral := lambdaBase*vrt*baseFac*elapsedMs + kappa*kapFac*exposureMs
			if integral >= math.Ln2 {
				SetWordBit(words, col, 1-stored)
				stored = 1 - stored
				decay++
			}
		}
		if agg > 0 && stored != attractor && agg >= threshold {
			SetWordBit(words, col, attractor)
			hammer++
		}
	}
	return words, decay, hammer
}

// refExposureMs integrates the coupling duty the cell at (sub, col) sees
// over [fromNs, toNs): each epoch's clamped overlap at its rho for the
// shared aggressor bit, the idle duty everywhere else.
func refExposureMs(b *Bank, fromNs, toNs float64, sub, col int, rhoIdle float64) float64 {
	exposure, covered := 0.0, 0.0
	for i := range b.epochs {
		e := &b.epochs[i]
		if e.toNs <= fromNs || e.fromNs >= toNs {
			continue
		}
		lo, hi := e.fromNs, e.toNs
		if lo < fromNs {
			lo = fromNs
		}
		if hi > toNs {
			hi = toNs
		}
		ov := hi - lo
		if ov <= 0 {
			continue
		}
		rho := rhoIdle
		if aggCol, shared := b.geom.SharedAggressorColumn(e.aggSub, sub, col); shared {
			rho = e.rho[WordBit(e.data, aggCol)]
		}
		exposure += ov * rho
		covered += ov
	}
	exposure += (toNs - fromNs - covered) * rhoIdle
	return exposure * 1e-6
}

// commitScenario is one seeded device history: a geometry, a parameter
// set, and a seed that drives the device and the command sequence.
type commitScenario struct {
	geom    Geometry
	params  faultmodel.Params
	seed    uint64
	tempC   float64
	trial   int
	durMs   float64     // scale of hammer, press and idle spans
	pattern DataPattern // the most common row content
}

// randomScenario draws a scenario from r: 1–4 × 64 columns, anti-cells,
// non-default Alpha, VRT factors on both sides of 1, variance fractions
// including a zero column component, and hammer thresholds low enough for
// RowHammer flips.
func randomScenario(r *rng.Rand) commitScenario {
	g := Geometry{
		Banks:            1 + r.Intn(2),
		SubarraysPerBank: 3 + r.Intn(2),
		RowsPerSubarray:  2 + r.Intn(4),
		Cols:             64 * (1 + r.Intn(4)),
		Chips:            1,
	}
	p := faultmodel.Default()
	if r.Bool(0.5) {
		p.Alpha = 1 + 7*r.Float64()
	}
	if r.Bool(0.5) {
		p.AntiCellFraction = 0.5 * r.Float64()
	}
	if r.Bool(0.7) {
		p.VRTProb = 0.5 * r.Float64()
		p.VRTFactor = 0.2 + 4.8*r.Float64()
	} else {
		p.VRTProb = 0
	}
	if r.Bool(0.5) {
		p.SigmaBase = 0.3 + r.Float64()
		p.SigmaKappa = 0.3 + 1.2*r.Float64()
		p.KappaRowVarFrac = 0.4 * r.Float64()
		p.KappaColVarFrac = 0.3 * r.Float64()
		p.BaseRowVarFrac = 0.5 * r.Float64()
		if r.Bool(0.2) {
			p.KappaColVarFrac = 0
		}
	}
	p.Calibrate(faultmodel.CalibrationTarget{
		TimeToFirstCDms:  1 + 50*r.Float64(),
		TimeToFirstRETms: 5 + 200*r.Float64(),
		PopulationCells:  g.TotalCells(),
	})
	p.MuHC = math.Log(1e2 + 1e5*r.Float64())
	return commitScenario{
		geom:    g,
		params:  p,
		seed:    r.Uint64(),
		tempC:   45 + 50*r.Float64(),
		trial:   r.Intn(4),
		durMs:   0.5 + 40*r.Float64(),
		pattern: DataPattern(r.Uint64()),
	}
}

// run drives the scenario's device through a random history of hammer,
// literal two-aggressor, press and idle spans, with temperature, trial and
// row rewrites between them. Every commit — reads of one row, reads of
// every row of a bank and a final read of every row — is checked bit for
// bit against refCommit on the same pre-commit state. It returns the decay
// and hammer flips the reference committed.
func (sc *commitScenario) run(t testing.TB) (decay, hammer int) {
	t.Helper()
	g := sc.geom
	d, err := NewDevice(g, &sc.params, DDR4Timing(), sc.seed)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SetTemperature(sc.tempC); err != nil {
		t.Fatal(err)
	}
	d.SetTrial(sc.trial)
	r := rng.New(sc.seed ^ 0x636f6d6d6974)
	fill := func(bank, row int) {
		words := make([]uint64, g.WordsPerRow())
		switch r.Intn(3) {
		case 0:
			FillWords(words, sc.pattern)
		case 1:
			FillWords(words, DataPattern(r.Uint64()))
		default:
			for i := range words {
				words[i] = r.Uint64()
			}
		}
		if err := d.banks[bank].writeRow(d.nowNs, row, words); err != nil {
			t.Fatal(err)
		}
	}
	for bank := 0; bank < g.Banks; bank++ {
		for row := 0; row < g.RowsPerBank(); row++ {
			fill(bank, row)
		}
	}
	span := func() float64 { return sc.durMs * msNs * (0.05 + r.Float64()) }
	// commit checks fault-evaluating commands against the reference
	// commit of each row they touch.
	commit := func(bank int, rows []int, op func() error) {
		b := d.banks[bank]
		want := make([][]uint64, len(rows))
		for i, row := range rows {
			var dc, hc int
			want[i], dc, hc = refCommit(b, d.nowNs, row, d.tempC, d.trial)
			decay += dc
			hammer += hc
		}
		if err := op(); err != nil {
			t.Fatal(err)
		}
		for i, row := range rows {
			if got := b.rows[row]; CountMismatches(got, want[i]) != 0 {
				t.Fatalf("seed %#x bank %d row %d: commit %x, reference %x", sc.seed, bank, row, got, want[i])
			}
		}
	}
	allRows := make([]int, g.RowsPerBank())
	for i := range allRows {
		allRows[i] = i
	}
	read := func(bank int, rows []int) func() error {
		return func() error {
			for _, row := range rows {
				if _, err := d.ReadRow(bank, row); err != nil {
					return err
				}
			}
			return nil
		}
	}
	tAggOns := []float64{36, 636, 7800, 70200}
	steps := 3 + r.Intn(6)
	for step := 0; step < steps; step++ {
		bank, row := r.Intn(g.Banks), r.Intn(g.RowsPerBank())
		switch r.Intn(9) {
		case 0, 1:
			tOn := tAggOns[r.Intn(len(tAggOns))]
			if err := d.Hammer(bank, row, 1+int(span()/(tOn+14)), tOn, 14); err != nil {
				t.Fatal(err)
			}
		case 2:
			base := g.SubarrayBase(g.SubarrayOf(row))
			row2 := base + (row-base+1+r.Intn(g.RowsPerSubarray-1))%g.RowsPerSubarray
			tOn := tAggOns[r.Intn(len(tAggOns))]
			// Literal commands cost one epoch per open interval, so
			// the pair count is capped to keep the history short.
			pairs := min(1+int(span()/(2*(tOn+14))), 16)
			if err := literalTwoAggressor(d, bank, row, row2, pairs, tOn, 14); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := d.Activate(bank, row); err != nil {
				t.Fatal(err)
			}
			d.AdvanceNs(span())
			if err := d.Precharge(bank); err != nil {
				t.Fatal(err)
			}
		case 4:
			d.AdvanceNs(span())
		case 5, 6:
			commit(bank, []int{row}, read(bank, []int{row}))
		case 7:
			commit(bank, allRows, read(bank, allRows))
		default:
			if err := d.SetTemperature(45 + 50*r.Float64()); err != nil {
				t.Fatal(err)
			}
			d.SetTrial(r.Intn(4))
			fill(bank, row)
		}
	}
	d.AdvanceNs(span())
	for bank := 0; bank < g.Banks; bank++ {
		for _, row := range allRows {
			commit(bank, []int{row}, read(bank, []int{row}))
		}
	}
	return decay, hammer
}

// TestCommitFaultsMatchReference pins commitFaults — lazy draws, the
// survival skip and the per-subarray κ column buffer — to the full
// per-cell evaluation bit for bit over thousands of seeded histories.
func TestCommitFaultsMatchReference(t *testing.T) {
	const scenarios = 2000
	r := rng.New(20260421)
	var decay, hammer int
	for i := 0; i < scenarios; i++ {
		sc := randomScenario(r)
		dc, hc := sc.run(t)
		decay += dc
		hammer += hc
	}
	t.Logf("%d scenarios: %d decay flips, %d hammer flips", scenarios, decay, hammer)
	if decay == 0 || hammer == 0 {
		t.Fatalf("scenarios produced %d decay and %d hammer flips; the check needs both", decay, hammer)
	}
}

// foldInto maps any float64 into [lo, hi), sending NaN and ±Inf to lo.
func foldInto(x, lo, hi float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x), hi-lo)
}

// FuzzCommitFaults drives the reference comparison of
// TestCommitFaultsMatchReference from fuzzed parameters, durations,
// temperatures and patterns. Seed corpus committed under testdata/fuzz.
func FuzzCommitFaults(f *testing.F) {
	f.Add(uint64(1), uint8(0), 85.0, 10.0, byte(0xFF), 0.0, 0.01, 2.5, 4.3)
	f.Add(uint64(2), uint8(3), 95.0, 30.0, byte(0xAA), 0.3, 0.4, 0.5, 2.0)
	f.Add(uint64(3), uint8(1), 45.0, 1.0, byte(0x11), 0.0, 0.0, 1.0, 7.5)
	f.Fuzz(func(t *testing.T, seed uint64, cols uint8, tempC, durMs float64,
		pattern byte, anti, vrtProb, vrtFactor, alpha float64) {
		sc := randomScenario(rng.New(seed))
		sc.geom.Cols = 64 * (1 + int(cols%4))
		sc.params.Alpha = foldInto(alpha, 0.5, 10)
		sc.params.AntiCellFraction = foldInto(anti, 0, 1)
		sc.params.VRTProb = foldInto(vrtProb, 0, 1)
		sc.params.VRTFactor = foldInto(vrtFactor, 0.1, 10)
		sc.params.Calibrate(faultmodel.CalibrationTarget{
			TimeToFirstCDms:  1 + math.Mod(float64(seed>>8), 50),
			TimeToFirstRETms: 5 + math.Mod(float64(seed>>16), 200),
			PopulationCells:  sc.geom.TotalCells(),
		})
		sc.tempC = foldInto(tempC, 0, 125)
		sc.durMs = foldInto(durMs, 0.01, 100)
		sc.pattern = DataPattern(pattern)
		sc.run(t)
	})
}

// TestReadRowAllocatesOnlyItsCopy pins the commit path allocation-free:
// once a subarray has been committed (the κ column buffer and the epoch
// scratch are sized), a read allocates exactly the row copy it returns.
func TestReadRowAllocatesOnlyItsCopy(t *testing.T) {
	d := newTestDevice(t, 5)
	g := d.Geometry()
	victim := g.SubarrayBase(1) + 3
	if err := d.WriteRowPattern(0, victim, PatFF); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteRowPattern(0, victim+1, Pat00); err != nil {
		t.Fatal(err)
	}
	if err := d.Hammer(0, victim+1, 100, 70200, 14); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadRow(0, victim); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		d.AdvanceNs(msNs)
		if _, err := d.ReadRow(0, victim); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ReadRow allocated %v times per call, want 1 (the returned copy)", allocs)
	}
}
