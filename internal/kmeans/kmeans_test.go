package kmeans

import (
	"math"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

func testData(t *testing.T, n, d int) *vec.Matrix {
	t.Helper()
	prof := dataset.Profile{Name: "test", FullN: n, D: d, Clusters: 6, Correlation: 0.7, Spread: 0.12}
	return dataset.Generate(prof, n, 99).X
}

func newAssist(t *testing.T, data *vec.Matrix) *Assist {
	t.Helper()
	eng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewAssist(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestInitCenters(t *testing.T) {
	data := testData(t, 100, 8)
	c1, err := InitCenters(data, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := InitCenters(data, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(c1.Data, c2.Data, 0) {
		t.Fatal("InitCenters must be deterministic per seed")
	}
	c3, _ := InitCenters(data, 5, 2)
	if vec.Equal(c1.Data, c3.Data, 0) {
		t.Fatal("different seeds should give different centers")
	}
	if _, err := InitCenters(data, 0, 1); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := InitCenters(data, 101, 1); err == nil {
		t.Fatal("k>N must be rejected")
	}
}

// The central exactness claim: every accelerated variant — host-only and
// PIM-assisted — produces Lloyd's assignments, centers, iteration count
// and SSE for the same initial centers.
func TestAllVariantsMatchLloyd(t *testing.T) {
	data := testData(t, 500, 24)
	assist := newAssist(t, data)
	for _, k := range []int{2, 8, 25} {
		initial, err := InitCenters(data, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewLloyd(data).Run(initial, 50, arch.NewMeter())
		algos := []Algorithm{
			NewLloydPIM(data, assist),
			NewElkan(data),
			NewElkanPIM(data, assist),
			NewHamerly(data),
			NewHamerlyPIM(data, assist),
			NewDrake(data),
			NewDrakePIM(data, assist),
			NewYinyang(data),
			NewYinyangPIM(data, assist),
		}
		for _, a := range algos {
			got := a.Run(initial, 50, arch.NewMeter())
			if got.Iterations != ref.Iterations {
				t.Errorf("k=%d %s: %d iterations, Lloyd took %d", k, a.Name(), got.Iterations, ref.Iterations)
			}
			if !got.Converged || !ref.Converged {
				t.Errorf("k=%d %s: converged=%v, Lloyd=%v", k, a.Name(), got.Converged, ref.Converged)
			}
			for i := range ref.Assign {
				if got.Assign[i] != ref.Assign[i] {
					t.Fatalf("k=%d %s: point %d assigned to %d, Lloyd assigns %d",
						k, a.Name(), i, got.Assign[i], ref.Assign[i])
				}
			}
			if !vec.Equal(got.Centers.Data, ref.Centers.Data, 1e-9) {
				t.Fatalf("k=%d %s: centers diverge from Lloyd", k, a.Name())
			}
			if math.Abs(got.SSE-ref.SSE) > 1e-6*(1+ref.SSE) {
				t.Fatalf("k=%d %s: SSE=%v, Lloyd=%v", k, a.Name(), got.SSE, ref.SSE)
			}
		}
	}
}

// The bound-based variants must actually avoid exact distance work — and
// the PIM variants must avoid even more (that is Table 7's whole point).
func TestAcceleratedVariantsComputeFewerDistances(t *testing.T) {
	data := testData(t, 600, 24)
	assist := newAssist(t, data)
	initial, err := InitCenters(data, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	edOps := func(a Algorithm) int64 {
		m := arch.NewMeter()
		a.Run(initial, 50, m)
		return m.Get(arch.FuncED).Ops
	}
	lloyd := edOps(NewLloyd(data))
	elkan := edOps(NewElkan(data))
	lloydPIM := edOps(NewLloydPIM(data, assist))
	if elkan >= lloyd {
		t.Fatalf("Elkan ED ops (%d) not below Lloyd's (%d)", elkan, lloyd)
	}
	if lloydPIM >= lloyd {
		t.Fatalf("Standard-PIM ED ops (%d) not below Standard's (%d)", lloydPIM, lloyd)
	}
}

// The host Lloyd computes every (point, center) distance once an
// iteration: n·k exact distances, no more, whatever the assignments do.
func TestLloydCountsEveryDistance(t *testing.T) {
	data := testData(t, 300, 16)
	initial, err := InitCenters(data, 12, 9)
	if err != nil {
		t.Fatal(err)
	}
	m := arch.NewMeter()
	res := NewLloyd(data).Run(initial, 50, m)
	if res.Iterations < 2 {
		t.Fatalf("ran %d iterations: no assignment moved", res.Iterations)
	}
	if got, want := m.Get(arch.FuncED).Calls, int64(res.Iterations)*int64(data.N)*12; got != want {
		t.Fatalf("%d iterations computed %d exact distances, want n·k·iterations = %d", res.Iterations, got, want)
	}
}

// Elkan's bound maintenance is heavy (k bounds per point); Yinyang's is
// light (k/10 groups). The meters must reflect that ordering — it drives
// the paper's observation that Elkan-PIM barely helps.
func TestBoundMaintenanceOrdering(t *testing.T) {
	data := testData(t, 400, 16)
	initial, err := InitCenters(data, 20, 3)
	if err != nil {
		t.Fatal(err)
	}
	maint := func(a Algorithm) int64 {
		m := arch.NewMeter()
		a.Run(initial, 50, m)
		return m.Get(arch.FuncUpdate).SeqBytes
	}
	elkan := maint(NewElkan(data))
	yy := maint(NewYinyang(data))
	if elkan <= yy {
		t.Fatalf("Elkan bound maintenance (%d bytes) not above Yinyang's (%d)", elkan, yy)
	}
}

func TestEmptyClusterKeepsCenter(t *testing.T) {
	// Two far clusters, k=3 with one center placed far from all data: it
	// captures nothing and must keep its position.
	rows := [][]float64{{0, 0}, {0.01, 0}, {1, 1}, {0.99, 1}}
	data, err := vec.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	initial, err := vec.FromRows([][]float64{{0, 0}, {1, 1}, {0.5, 12}})
	if err != nil {
		t.Fatal(err)
	}
	res := NewLloyd(data).Run(initial, 10, arch.NewMeter())
	far := res.Centers.Row(2)
	if far[0] != 0.5 || far[1] != 12 {
		t.Fatalf("empty cluster center moved to %v", far)
	}
}

func TestMaxItersRespected(t *testing.T) {
	data := testData(t, 300, 16)
	initial, _ := InitCenters(data, 10, 5)
	res := NewLloyd(data).Run(initial, 2, arch.NewMeter())
	if res.Iterations > 2 {
		t.Fatalf("ran %d iterations with maxIters=2", res.Iterations)
	}
}

// PIM assist accounting: k PIM passes per iteration, buffer traffic
// proportional to N·k.
func TestAssistAccounting(t *testing.T) {
	data := testData(t, 200, 16)
	assist := newAssist(t, data)
	initial, _ := InitCenters(data, 8, 1)
	m := arch.NewMeter()
	res := NewLloydPIM(data, assist).Run(initial, 50, m)
	c := m.Get(AssistFuncName)
	wantBuf := int64(res.Iterations) * 8 * int64(data.N) * 8 // iters × k × N × 8B
	if c.PIMBufBytes != wantBuf {
		t.Fatalf("PIMBufBytes = %d, want %d", c.PIMBufBytes, wantBuf)
	}
	if c.PIMCycles == 0 {
		t.Fatal("no PIM cycles recorded")
	}
}

// TestAssistBeginIterationZeroAllocs pins the assist's prepared queries:
// the first iteration sizes one per center (floors, dot buffer), every
// later one re-quantizes into them — the hand-written BeginIteration
// cloned each center to clamp it and allocated its floors, k·12d bytes an
// iteration. LBDist and RecordCosts look nothing up per consultation: the
// G cost of a whole assign step is charged once, and equals the counter.
func TestAssistBeginIterationZeroAllocs(t *testing.T) {
	data := testData(t, 200, 16)
	assist := newAssist(t, data)
	centers, _ := InitCenters(data, 8, 1)
	m := arch.NewMeter()
	var consults int64
	iteration := func() {
		if err := assist.BeginIteration(centers, m); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < data.N; p++ {
			assist.LBDist(p, p%centers.N)
			consults++
		}
		assist.RecordCosts(m)
	}
	iteration()
	if allocs := testing.AllocsPerRun(10, iteration); allocs != 0 {
		t.Fatalf("BeginIteration + LBDist sweep allocated %.1f times from the second iteration on, want 0", allocs)
	}
	passes := consults / int64(data.N) * int64(centers.N)
	want := arch.Counters{Ops: 8 * consults, ALUOps: consults, SeqBytes: 8 * consults, Branches: consults, Calls: consults + passes}
	got := m.Get(AssistFuncName)
	got.PIMCycles, got.PIMBufBytes = 0, 0
	if got != want {
		t.Fatalf("%d consultations charged %+v, want %+v", consults, got, want)
	}
}

func TestInitCentersPlusPlus(t *testing.T) {
	data := testData(t, 600, 16)
	pp1, err := InitCentersPlusPlus(data, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	pp2, err := InitCentersPlusPlus(data, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !vec.Equal(pp1.Data, pp2.Data, 0) {
		t.Fatal("k-means++ must be deterministic per seed")
	}
	if _, err := InitCentersPlusPlus(data, 0, 1); err == nil {
		t.Fatal("k=0 must be rejected")
	}

	// Quality: averaged over seeds, ++ seeding starts Lloyd at a lower
	// SSE than uniform seeding.
	var ppSSE, uniSSE float64
	const trials = 5
	for seed := int64(0); seed < trials; seed++ {
		pp, err := InitCentersPlusPlus(data, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		uni, err := InitCenters(data, 12, seed)
		if err != nil {
			t.Fatal(err)
		}
		ppSSE += NewLloyd(data).Run(pp, 1, arch.NewMeter()).SSE
		uniSSE += NewLloyd(data).Run(uni, 1, arch.NewMeter()).SSE
	}
	if ppSSE >= uniSSE {
		t.Fatalf("k-means++ mean first-iteration SSE %.3f not below uniform %.3f", ppSSE/trials, uniSSE/trials)
	}

	// All variants still agree under ++ seeding.
	initial, _ := InitCentersPlusPlus(data, 8, 4)
	ref := NewLloyd(data).Run(initial, 50, arch.NewMeter())
	assist := newAssist(t, data)
	for _, a := range []Algorithm{NewElkan(data), NewYinyangPIM(data, assist)} {
		got := a.Run(initial, 50, arch.NewMeter())
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("%s diverges under k-means++ seeding at %d", a.Name(), i)
			}
		}
	}
}

func TestInitCentersPlusPlusDuplicates(t *testing.T) {
	// Duplicate-heavy data exercises the zero-mass fallback.
	rows := make([][]float64, 20)
	for i := range rows {
		rows[i] = []float64{0.5, 0.5}
	}
	data, err := vec.FromRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := InitCentersPlusPlus(data, 5, 1); err != nil {
		t.Fatal(err)
	}
}
