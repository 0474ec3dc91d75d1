package fault_test

import (
	"math/rand"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/fault"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

// testConfig shrinks the crossbars so simulate-mode tests stay fast while
// still exercising weight slicing (8-bit operands in 2-bit cells → 4 cells
// per operand) and multi-chunk payloads (dims > M).
func testConfig() arch.Config {
	cfg := arch.Default()
	cfg.Crossbar.M = 16
	return cfg
}

const testOpBits = 8

// buildPayload programs n×dims random 8-bit vectors into a fresh engine.
func buildPayload(t *testing.T, cfg arch.Config, mode pim.Mode, inj pim.FaultInjector, rows []uint32, n, dims int) (*pim.Engine, *pim.Payload) {
	t.Helper()
	eng, err := pim.NewFaultyEngine(cfg, mode, inj)
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.ProgramWidth("test/payload", n, dims, 1, testOpBits, func(i int) []uint32 {
		return rows[i*dims : (i+1)*dims]
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng, p
}

func randomRows(rng *rand.Rand, n, dims int) []uint32 {
	rows := make([]uint32, n*dims)
	for i := range rows {
		rows[i] = uint32(rng.Intn(1 << testOpBits))
	}
	return rows
}

// heavyModel injects every fault kind at a high rate.
func heavyModel(seed int64) fault.Model {
	return fault.Model{
		Seed:         seed,
		StuckAt0:     0.02,
		StuckAt1:     0.02,
		Drift:        0.05,
		DriftLevels:  2,
		ReadNoise:    7,
		CrossbarFail: 0.1,
	}
}

// TestExactMatchesSimulate is the core differential property: the
// analytic fault path (exact mode) must be bit-identical to the physical
// one (cell-read hooks inside the bit-sliced crossbar simulator), for the
// same model and seed, across multi-chunk payloads and many queries.
func TestExactMatchesSimulate(t *testing.T) {
	type shape struct {
		m, opBits int
		alpha     float64 // values are ⌊alpha·u⌋, u uniform in [0,1), cut to opBits
	}
	// 40 dims > M → ≥ 2 chunks per group; 37 vectors → ≥ 2 groups at every
	// width. Quantizer scale × operand width moves the payload from cells
	// almost all empty as programmed (α = 1: only stuck-at-1 and drifted
	// cells raise an operand) through 20-bit values in 32-bit operands to
	// every cell bit in use.
	shapes := []shape{{16, testOpBits, 1 << testOpBits}}
	for _, opBits := range []int{8, 20, 32} {
		for _, alpha := range []float64{1, 1e3, 1e6} {
			shapes = append(shapes, shape{32, opBits, alpha})
		}
	}
	const n, dims = 37, 40
	for _, sh := range shapes {
		cfg := testConfig()
		cfg.Crossbar.M = sh.m
		rng := rand.New(rand.NewSource(7))
		mask := uint32(1)<<uint(sh.opBits) - 1
		random := func(count int) []uint32 {
			vals := make([]uint32, count)
			for i := range vals {
				vals[i] = uint32(sh.alpha*rng.Float64()) & mask
			}
			return vals
		}
		rows := random(n * dims)
		model := heavyModel(99)

		engines := make(map[string]*pim.Engine)
		payloads := make(map[string]*pim.Payload)
		for name, mode := range map[string]pim.Mode{"exact": pim.ModeExact, "simulate": pim.ModeSimulate} {
			inj, err := fault.NewInjector(model, cfg.Crossbar)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := pim.NewFaultyEngine(cfg, mode, inj)
			if err != nil {
				t.Fatal(err)
			}
			p, err := eng.ProgramWidth("test/payload", n, dims, 1, sh.opBits, func(i int) []uint32 {
				return rows[i*dims : (i+1)*dims]
			})
			if err != nil {
				t.Fatal(err)
			}
			engines[name], payloads[name] = eng, p
		}

		for q := 0; q < 10; q++ {
			input := random(dims)
			got := map[string][]int64{}
			for name, eng := range engines {
				dst, err := eng.QueryAll(arch.NewMeter(), arch.FuncED, payloads[name], input, nil)
				if err != nil {
					t.Fatal(err)
				}
				got[name] = append([]int64(nil), dst...)
			}
			for i := 0; i < n; i++ {
				if got["exact"][i] != got["simulate"][i] {
					t.Fatalf("%+v query %d vector %d: exact %d != simulate %d",
						sh, q, i, got["exact"][i], got["simulate"][i])
				}
			}
		}
	}
}

// TestCorrectedDotsAdmissible: every corrected dot must be ≥ the true
// integer dot product (the invariant that keeps all lower bounds lower
// bounds and all upper bounds upper bounds).
func TestCorrectedDotsAdmissible(t *testing.T) {
	cfg := testConfig()
	const n, dims = 64, 24
	rng := rand.New(rand.NewSource(21))
	rows := randomRows(rng, n, dims)
	inj, err := fault.NewInjector(heavyModel(5), cfg.Crossbar)
	if err != nil {
		t.Fatal(err)
	}
	eng, p := buildPayload(t, cfg, pim.ModeExact, inj, rows, n, dims)

	for q := 0; q < 20; q++ {
		input := randomRows(rng, 1, dims)
		dst, err := eng.QueryAll(arch.NewMeter(), arch.FuncED, p, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			truth := vec.IntDot(rows[i*dims:(i+1)*dims], input)
			if dst[i] < truth {
				t.Fatalf("query %d vector %d: corrected dot %d below true %d", q, i, dst[i], truth)
			}
		}
	}
}

// TestDeterminism: same seed → identical corrected dots; the injector is
// a pure function of (seed, payload, geometry, query).
func TestDeterminism(t *testing.T) {
	cfg := testConfig()
	const n, dims = 20, 16
	rng := rand.New(rand.NewSource(3))
	rows := randomRows(rng, n, dims)
	input := randomRows(rng, 1, dims)

	run := func(seed int64) []int64 {
		inj, err := fault.NewInjector(heavyModel(seed), cfg.Crossbar)
		if err != nil {
			t.Fatal(err)
		}
		eng, p := buildPayload(t, cfg, pim.ModeExact, inj, rows, n, dims)
		dst, err := eng.QueryAll(arch.NewMeter(), arch.FuncED, p, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dst
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("vector %d: same seed gave %d then %d", i, a[i], b[i])
		}
	}
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault effects (suspicious)")
	}
}

// TestDeadCrossbarSentinel: with certain whole-crossbar failure, every
// dot is the DeadDot sentinel, the injector reports dead tiles before the
// first query (power-on self test), and the meter counts recoveries.
func TestDeadCrossbarSentinel(t *testing.T) {
	cfg := testConfig()
	const n, dims = 10, 8
	rng := rand.New(rand.NewSource(11))
	rows := randomRows(rng, n, dims)
	inj, err := fault.NewInjector(fault.Model{Seed: 1, CrossbarFail: 1}, cfg.Crossbar)
	if err != nil {
		t.Fatal(err)
	}
	eng, p := buildPayload(t, cfg, pim.ModeExact, inj, rows, n, dims)
	if eng.DeadCrossbars() == 0 {
		t.Fatal("DeadCrossbars = 0 before first query; self test missing")
	}
	meter := arch.NewMeter()
	dst, err := eng.QueryAll(meter, arch.FuncED, p, randomRows(rng, 1, dims), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dst {
		if d != pim.DeadDot {
			t.Fatalf("vector %d: dot %d, want DeadDot sentinel", i, d)
		}
	}
	if got := meter.Get(arch.FuncED).PIMRecovered; got != int64(n) {
		t.Fatalf("PIMRecovered = %d, want %d", got, n)
	}
	if f, r := eng.FaultCounts(); r != int64(n) || f != 0 {
		t.Fatalf("FaultCounts = (%d, %d), want (0, %d)", f, r, n)
	}
}

// TestFaultMetering: cell faults show up in PIMFaults; a fault-free model
// leaves counters at zero.
func TestFaultMetering(t *testing.T) {
	cfg := testConfig()
	const n, dims = 48, 16
	rng := rand.New(rand.NewSource(17))
	rows := randomRows(rng, n, dims)
	inj, err := fault.NewInjector(fault.Model{Seed: 2, StuckAt0: 0.2}, cfg.Crossbar)
	if err != nil {
		t.Fatal(err)
	}
	eng, p := buildPayload(t, cfg, pim.ModeExact, inj, rows, n, dims)
	meter := arch.NewMeter()
	if _, err := eng.QueryAll(meter, arch.FuncED, p, randomRows(rng, 1, dims), nil); err != nil {
		t.Fatal(err)
	}
	if meter.Get(arch.FuncED).PIMFaults == 0 {
		t.Fatal("20% stuck-at-0 cells but PIMFaults = 0")
	}

	clean, err := fault.NewInjector(fault.Model{Seed: 2}, cfg.Crossbar)
	if err != nil {
		t.Fatal(err)
	}
	eng2, p2 := buildPayload(t, cfg, pim.ModeExact, clean, rows, n, dims)
	m2 := arch.NewMeter()
	if _, err := eng2.QueryAll(m2, arch.FuncED, p2, randomRows(rng, 1, dims), nil); err != nil {
		t.Fatal(err)
	}
	if c := m2.Get(arch.FuncED); c.PIMFaults != 0 || c.PIMRecovered != 0 {
		t.Fatalf("zero model but counters (%d, %d)", c.PIMFaults, c.PIMRecovered)
	}
}

// TestZeroModelIsTransparent: an all-zero model must not perturb any dot.
func TestZeroModelIsTransparent(t *testing.T) {
	cfg := testConfig()
	const n, dims = 16, 20
	rng := rand.New(rand.NewSource(29))
	rows := randomRows(rng, n, dims)
	inj, err := fault.NewInjector(fault.Model{Seed: 77}, cfg.Crossbar)
	if err != nil {
		t.Fatal(err)
	}
	eng, p := buildPayload(t, cfg, pim.ModeExact, inj, rows, n, dims)
	input := randomRows(rng, 1, dims)
	dst, err := eng.QueryAll(arch.NewMeter(), arch.FuncED, p, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dst {
		if truth := vec.IntDot(rows[i*dims:(i+1)*dims], input); dst[i] != truth {
			t.Fatalf("vector %d: zero model changed dot %d → %d", i, truth, dst[i])
		}
	}
}

// TestAppendExtendsFaultMaps: growing an appendable payload keeps the
// exact/simulate differential property — the injector extends its fault
// maps over fresh tiles without rewriting existing ones.
func TestAppendExtendsFaultMaps(t *testing.T) {
	cfg := testConfig()
	const dims, n0, extra = 16, 3, 9 // perGroup = 4 → append crosses groups
	rng := rand.New(rand.NewSource(31))
	rows := randomRows(rng, n0+extra, dims)
	model := heavyModel(13)

	type built struct {
		eng *pim.Engine
		ap  *pim.AppendablePayload
	}
	b := map[string]built{}
	for name, mode := range map[string]pim.Mode{"exact": pim.ModeExact, "simulate": pim.ModeSimulate} {
		inj, err := fault.NewInjector(model, cfg.Crossbar)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := pim.NewFaultyEngine(cfg, mode, inj)
		if err != nil {
			t.Fatal(err)
		}
		ap, err := eng.ProgramAppendable("test/append", n0, n0+extra, dims, 1, testOpBits, func(i int) []uint32 {
			return rows[i*dims : (i+1)*dims]
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ap.Append(extra, func(i int) []uint32 {
			return rows[i*dims : (i+1)*dims]
		}); err != nil {
			t.Fatal(err)
		}
		b[name] = built{eng, ap}
	}

	input := randomRows(rng, 1, dims)
	var exact, sim []int64
	for name, bb := range b {
		dst, err := bb.ap.QueryAll(arch.NewMeter(), arch.FuncED, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		if name == "exact" {
			exact = append([]int64(nil), dst...)
		} else {
			sim = append([]int64(nil), dst...)
		}
	}
	if len(exact) != n0+extra {
		t.Fatalf("got %d dots, want %d", len(exact), n0+extra)
	}
	for i := range exact {
		if exact[i] != sim[i] {
			t.Fatalf("vector %d after append: exact %d != simulate %d", i, exact[i], sim[i])
		}
	}
}

func TestModelValidate(t *testing.T) {
	bad := []fault.Model{
		{StuckAt0: -0.1},
		{StuckAt1: 1.5},
		{StuckAt0: 0.6, StuckAt1: 0.6},
		{Drift: 0.1},                   // DriftLevels missing
		{Drift: 0.1, DriftLevels: 200}, // beyond int8
		{ReadNoise: -1},
		{CrossbarFail: 2},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("model %d (%+v) validated", i, m)
		}
	}
	good := heavyModel(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if !good.Enabled() {
		t.Fatal("heavy model reports disabled")
	}
	if (fault.Model{}).Enabled() {
		t.Fatal("zero model reports enabled")
	}
}

func TestDeriveSeedSpreads(t *testing.T) {
	seen := map[int64]bool{}
	for seq := 0; seq < 100; seq++ {
		s := fault.DeriveSeed(42, seq)
		if seen[s] {
			t.Fatalf("DeriveSeed collision at seq %d", seq)
		}
		seen[s] = true
	}
}
