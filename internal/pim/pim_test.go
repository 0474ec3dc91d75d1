package pim

import (
	"math/rand"
	"testing"

	"pimmine/internal/arch"
)

func TestNumCrossbarsDefault(t *testing.T) {
	cfg := arch.Default()
	// §VI-A: "there are default 131072 crossbars in PIM array".
	if got := cfg.NumCrossbars(); got != 131072 {
		t.Fatalf("NumCrossbars = %d, want 131072", got)
	}
}

func TestDivisors(t *testing.T) {
	got := Divisors(12)
	want := []int{1, 2, 3, 4, 6, 12}
	if len(got) != len(want) {
		t.Fatalf("Divisors(12) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Divisors(12) = %v, want %v", got, want)
		}
	}
	if Divisors(0) != nil || Divisors(-3) != nil {
		t.Fatal("Divisors of non-positive must be nil")
	}
}

// Theorem 4 reproduces the paper's compressed dimensionalities when sized
// against the full Table 6 cardinalities with the two LB_PIM-FNN payloads:
// s=105 for MSD (d=420) and s=50 for ImageNet (d=150) — §VI-C.
func TestChooseSPaperValues(t *testing.T) {
	cm := ModelFor(arch.Default())
	if s := cm.ChooseS(992272, Divisors(420), 2); s != 105 {
		t.Fatalf("MSD: ChooseS = %d, want 105", s)
	}
	if s := cm.ChooseS(2340173, Divisors(150), 2); s != 50 {
		t.Fatalf("ImageNet: ChooseS = %d, want 50", s)
	}
}

func TestChooseSLargerDatasetSmallerS(t *testing.T) {
	cm := ModelFor(arch.Default())
	cands := Divisors(960)
	s1 := cm.ChooseS(1_000_000, cands, 2)
	s2 := cm.ChooseS(4_000_000, cands, 2)
	if s2 > s1 {
		t.Fatalf("larger dataset must not get larger s (%d vs %d)", s2, s1)
	}
	if s1 == 0 || s2 == 0 {
		t.Fatalf("both should fit at some granularity (s1=%d s2=%d)", s1, s2)
	}
}

// Fits is exactly the Theorem 4 predicate: the chosen s fits and the next
// larger candidate does not.
func TestChooseSIsMaximal(t *testing.T) {
	cm := ModelFor(arch.Default())
	n := 992272
	cands := Divisors(420)
	s := cm.ChooseS(n, cands, 2)
	if !cm.Fits(n, s, 2) {
		t.Fatalf("chosen s=%d does not fit", s)
	}
	for _, c := range cands {
		if c > s && cm.Fits(n, c, 2) {
			t.Fatalf("candidate %d > s=%d also fits; ChooseS not maximal", c, s)
		}
	}
}

func TestGatherCost(t *testing.T) {
	cm := CapacityModel{M: 2, CellBits: 2, OperandBits: 2, Crossbars: 1 << 20, Utilization: 1}
	// Fig 11: s=8, m=2 → per object-group, 4 data parts; gather levels sum
	// ⌈4/2⌉ + ⌈2/2⌉ = 2 + 1 = 3 crossbars; 2 reduction stages.
	if lv := cm.GatherLevels(8); lv != 2 {
		t.Fatalf("GatherLevels(8) = %d, want 2", lv)
	}
	_, ng := cm.Cost(2, 8) // 2 objects, groups = ceil(2·2/(2·2)) = 1
	if ng != 3 {
		t.Fatalf("gather crossbars = %d, want 3 (Fig 11)", ng)
	}
	if lv := cm.GatherLevels(2); lv != 0 {
		t.Fatalf("GatherLevels(s≤m) = %d, want 0", lv)
	}
}

func TestMaxFitting(t *testing.T) {
	cm := ModelFor(arch.Default())
	n := 992272
	got := cm.MaxFitting(n, 420, 2)
	if !cm.Fits(n, got, 2) || (got < 420 && cm.Fits(n, got+1, 2)) {
		t.Fatalf("MaxFitting = %d is not the boundary", got)
	}
	// Must bracket the divisor-constrained answer 105 ≤ got < 210·? — the
	// unconstrained maximum is at least the best divisor.
	if got < 105 {
		t.Fatalf("MaxFitting = %d < divisor answer 105", got)
	}
	if cm.MaxFitting(1, 0, 1) != 0 {
		t.Fatal("MaxFitting with zero limit must be 0")
	}
}

// smallCfg returns an architecture with tiny crossbars so simulate mode is
// cheap, and a small operand width matching the quantized test data.
func smallCfg() arch.Config {
	cfg := arch.Default()
	cfg.Crossbar.M = 8
	cfg.OperandBits = 8
	cfg.PIMArrayBytes = 1 << 20
	return cfg
}

func TestEngineExactMatchesSimulate(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	// check programs n×dims values ⌊alpha·u⌋, u uniform in [0,1), cut to
	// the operand width, into an exact and a simulate engine and requires
	// identical dots and meters.
	check := func(cfg arch.Config, n, dims int, alpha float64) {
		t.Helper()
		mask := uint32(1)<<uint(cfg.OperandBits) - 1
		rows := make([][]uint32, n)
		for i := range rows {
			rows[i] = make([]uint32, dims)
			for j := range rows[i] {
				rows[i][j] = uint32(alpha*rng.Float64()) & mask
			}
		}
		input := make([]uint32, dims)
		for j := range input {
			input[j] = uint32(alpha*rng.Float64()) & mask
		}
		rowFn := func(i int) []uint32 { return rows[i] }

		exact, err := NewEngine(cfg, ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := NewEngine(cfg, ModeSimulate)
		if err != nil {
			t.Fatal(err)
		}
		pe, err := exact.Program("t", n, dims, 1, rowFn)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := sim.Program("t", n, dims, 1, rowFn)
		if err != nil {
			t.Fatal(err)
		}
		me, ms := arch.NewMeter(), arch.NewMeter()
		outE, err := exact.QueryAll(me, "f", pe, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		outS, err := sim.QueryAll(ms, "f", ps, input, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range outE {
			if outE[i] != outS[i] {
				t.Fatalf("op=%db alpha=%g n=%d dims=%d groups=%d: exact[%d]=%d simulate=%d",
					cfg.OperandBits, alpha, n, dims, ps.Groups(), i, outE[i], outS[i])
			}
		}
		// Identical activity accounting in both modes.
		if me.Get("f") != ms.Get("f") {
			t.Fatalf("meters diverge: exact=%+v simulate=%+v", me.Get("f"), ms.Get("f"))
		}
	}
	for trial := 0; trial < 20; trial++ {
		// dims > M=8 exercises multi-chunk payloads.
		check(smallCfg(), 1+rng.Intn(40), 1+rng.Intn(30), 256)
	}
	// Quantizer scale × operand width, always over ≥ 2 groups and ≥ 2
	// chunks: one input chunk is injected into every group's tile, and the
	// payloads range from almost all cells empty (α = 1) through the FNN
	// shape (20-bit values in 32-bit operands) to every cell bit in use
	// (α beyond the operand width).
	for _, opBits := range []int{8, 20, 32} {
		for _, alpha := range []float64{1, 1e3, 1e6} {
			cfg := smallCfg()
			cfg.Crossbar.M = 32
			cfg.OperandBits = opBits
			perGroup := cfg.Crossbar.VectorsPerCrossbar(cfg.Crossbar.M, opBits)
			check(cfg, 2*perGroup+1+rng.Intn(perGroup), cfg.Crossbar.M+1+rng.Intn(2*cfg.Crossbar.M), alpha)
		}
	}
}

func TestEngineMeterAccounting(t *testing.T) {
	cfg := smallCfg()
	eng, err := NewEngine(cfg, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	n, dims := 10, 4
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = make([]uint32, dims)
	}
	p, err := eng.Program("t", n, dims, 1, func(i int) []uint32 { return rows[i] })
	if err != nil {
		t.Fatal(err)
	}
	m := arch.NewMeter()
	if _, err := eng.QueryAll(m, "f", p, make([]uint32, dims), nil); err != nil {
		t.Fatal(err)
	}
	c := m.Get("f")
	wantCycles := int64(cfg.Crossbar.InputCycles(cfg.OperandBits)) // dims ≤ M → no gather
	if c.PIMCycles != wantCycles {
		t.Fatalf("PIMCycles = %d, want %d", c.PIMCycles, wantCycles)
	}
	if c.PIMBufBytes != int64(n)*8 {
		t.Fatalf("PIMBufBytes = %d, want %d", c.PIMBufBytes, n*8)
	}
}

func TestEngineRejectsOversizedAndDuplicate(t *testing.T) {
	cfg := smallCfg()
	cfg.PIMArrayBytes = 64 // tiny: 64B → 4096 bits → 2 crossbars of 8×8×4... force overflow
	cfg.Crossbar.M = 8
	eng, err := NewEngine(cfg, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	row := func(i int) []uint32 { return make([]uint32, 8) }
	if _, err := eng.Program("big", 100000, 8, 1, row); err == nil {
		t.Fatal("oversized payload must be rejected (re-programming burns endurance)")
	}
	cfg2 := smallCfg()
	eng2, _ := NewEngine(cfg2, ModeExact)
	if _, err := eng2.Program("p", 4, 8, 1, row); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Program("p", 4, 8, 1, row); err == nil {
		t.Fatal("duplicate payload name must be rejected")
	}
}

func TestProgramCost(t *testing.T) {
	cfg := smallCfg()
	eng, _ := NewEngine(cfg, ModeExact)
	n, dims := 16, 8
	rows := func(i int) []uint32 { return make([]uint32, dims) }
	p, err := eng.Program("t", n, dims, 1, rows)
	if err != nil {
		t.Fatal(err)
	}
	cost := p.Cost()
	if cost.Bytes != int64(n*dims)*int64(cfg.OperandBits)/8 {
		t.Fatalf("payload bytes = %d", cost.Bytes)
	}
	if cost.WriteNs <= 0 || cost.BusNs <= 0 || cost.TotalNs() != cost.WriteNs+cost.BusNs {
		t.Fatalf("inconsistent program cost %+v", cost)
	}
	m := arch.NewMeter()
	RecordProgramCost(m, "pre", p)
	if m.Get("pre").PIMWriteNs != cost.TotalNs() {
		t.Fatal("RecordProgramCost must charge the meter")
	}
}

func TestQueryAllValidation(t *testing.T) {
	eng, _ := NewEngine(smallCfg(), ModeExact)
	p, err := eng.Program("t", 2, 4, 1, func(i int) []uint32 { return make([]uint32, 4) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryAll(arch.NewMeter(), "f", p, make([]uint32, 3), nil); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
}

func TestQueryAllParallelCriticalPath(t *testing.T) {
	cfg := smallCfg()
	eng, err := NewEngine(cfg, ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	n, dims := 12, 4
	rows := make([][]uint32, n)
	for i := range rows {
		rows[i] = []uint32{uint32(i), uint32(i + 1), uint32(i + 2), uint32(i + 3)}
	}
	rowFn := func(i int) []uint32 { return rows[i] }
	pa, err := eng.Program("a", n, dims, 2, rowFn)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := eng.Program("b", n, dims, 2, rowFn)
	if err != nil {
		t.Fatal(err)
	}
	input := []uint32{1, 2, 3, 4}

	seq := arch.NewMeter()
	wantA, err := eng.QueryAll(seq, "f", pa, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryAll(seq, "f", pb, input, nil); err != nil {
		t.Fatal(err)
	}

	par := arch.NewMeter()
	dsts, err := eng.QueryAllParallel(par, "f", []*Payload{pa, pb}, [][]uint32{input, input}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantA {
		if dsts[0][i] != wantA[i] || dsts[1][i] != wantA[i] {
			t.Fatalf("parallel results diverge at %d", i)
		}
	}
	// Same buffer traffic, half the cycles (two equal payloads).
	if par.Get("f").PIMBufBytes != seq.Get("f").PIMBufBytes {
		t.Fatalf("buffer bytes: parallel %d, sequential %d", par.Get("f").PIMBufBytes, seq.Get("f").PIMBufBytes)
	}
	if par.Get("f").PIMCycles*2 != seq.Get("f").PIMCycles {
		t.Fatalf("cycles: parallel %d, sequential %d (want half)", par.Get("f").PIMCycles, seq.Get("f").PIMCycles)
	}
}

func TestQueryAllParallelValidation(t *testing.T) {
	eng, _ := NewEngine(smallCfg(), ModeExact)
	if _, err := eng.QueryAllParallel(arch.NewMeter(), "f", nil, nil, nil); err == nil {
		t.Fatal("empty payload list must be rejected")
	}
	p, err := eng.Program("x", 2, 4, 1, func(i int) []uint32 { return make([]uint32, 4) })
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.QueryAllParallel(arch.NewMeter(), "f", []*Payload{p}, nil, nil); err == nil {
		t.Fatal("input count mismatch must be rejected")
	}
}
