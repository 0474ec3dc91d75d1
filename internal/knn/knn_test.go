package knn

import (
	"reflect"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// testData builds a small smooth dataset where bounds have real pruning
// power, plus query vectors.
func testData(t *testing.T, n, d int) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	prof := dataset.Profile{Name: "test", FullN: n, D: d, Clusters: 8, Correlation: 0.8, Spread: 0.1}
	ds := dataset.Generate(prof, n, 42)
	return ds.X, ds.Queries(5, 43)
}

func newEngine(t *testing.T) *pim.Engine {
	t.Helper()
	eng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func defaultQuant(t *testing.T) quant.Quantizer {
	t.Helper()
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// assertSameNeighbors checks that two result sets contain the same
// distance multiset (indices may differ only under exact distance ties).
func assertSameNeighbors(t *testing.T, name string, got, want []vec.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].Dist != want[i].Dist {
			t.Fatalf("%s: neighbor %d dist %v, want %v", name, i, got[i].Dist, want[i].Dist)
		}
		if got[i].Index != want[i].Index && got[i].Dist != want[i].Dist {
			t.Fatalf("%s: neighbor %d index %d, want %d", name, i, got[i].Index, want[i].Index)
		}
	}
}

// Accuracy preservation (§V-B): every ED searcher returns exactly the
// exact scan's k nearest neighbors.
func TestAllEDSearchersExact(t *testing.T) {
	data, queries := testData(t, 400, 64)
	q := defaultQuant(t)
	eng := newEngine(t)

	std := NewStandard(data)
	ost, err := NewOST(data, data.D/2)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := NewSM(data, 16)
	if err != nil {
		t.Fatal(err)
	}
	fnn, err := NewFNN(data)
	if err != nil {
		t.Fatal(err)
	}
	stdPIM, err := NewStandardPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	fnnPIM, err := NewFNNPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	fnnPIMOpt, err := newFNNPIM(eng, data, q, data.N, nil, "FNN-PIM-optimize")
	if err != nil {
		t.Fatal(err)
	}
	smPIM, err := NewSMPIM(eng, data, q, 16, data.N)
	if err != nil {
		t.Fatal(err)
	}
	ostPIM, err := NewOSTPIM(eng, data, q, data.D/2, data.N)
	if err != nil {
		t.Fatal(err)
	}

	searchers := []Searcher{ost, sm, fnn, stdPIM, fnnPIM, fnnPIMOpt, smPIM, ostPIM}
	for qi := 0; qi < queries.N; qi++ {
		qv := queries.Row(qi)
		for _, k := range []int{1, 5, 20} {
			want := std.Search(qv, k, arch.NewMeter())
			for _, s := range searchers {
				got := s.Search(qv, k, arch.NewMeter())
				assertSameNeighbors(t, s.Name(), got, want)
			}
		}
	}
}

// Bounds must actually prune on smooth data — otherwise the experiments
// are vacuous.
func TestFiltersPrune(t *testing.T) {
	data, queries := testData(t, 500, 64)
	q := defaultQuant(t)
	eng := newEngine(t)
	fnnPIM, err := NewFNNPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	fnnPIM.Search(queries.Row(0), 10, arch.NewMeter())
	stages := fnnPIM.LastStages()
	if len(stages) == 0 {
		t.Fatal("no stage stats recorded")
	}
	if pr := stages[0].PruneRatio(); pr < 0.3 {
		t.Fatalf("LB_PIM-FNN pruned only %.1f%% on smooth data", pr*100)
	}
}

// Meter accounting: a PIM search must record PIM cycles and buffer bytes,
// and the exact scan must record the full d·b transfer (Fig 8).
func TestMeterAccounting(t *testing.T) {
	data, queries := testData(t, 200, 32)
	std := NewStandard(data)
	m := arch.NewMeter()
	std.Search(queries.Row(0), 5, m)
	ed := m.Get(arch.FuncED)
	if ed.SeqBytes != int64(data.N)*int64(data.D)*4 {
		t.Fatalf("Standard SeqBytes = %d, want %d", ed.SeqBytes, data.N*data.D*4)
	}

	q := defaultQuant(t)
	eng := newEngine(t)
	sp, err := NewStandardPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	m2 := arch.NewMeter()
	sp.Search(queries.Row(0), 5, m2)
	pb := m2.Get(sp.LastStages()[0].Name)
	if pb.PIMCycles == 0 || pb.PIMBufBytes == 0 {
		t.Fatalf("Standard-PIM recorded no PIM activity: %+v", pb)
	}
	if m2.Get(arch.FuncED).SeqBytes == 0 {
		t.Fatal("refinement must record memory traffic")
	}
}

// For small d the paper's levels d/16 and d/4 round to one divisor; the
// PIM constructors must keep that host level once, as NewFNNWithLevels
// does, or its meter bucket is charged once per copy.
func TestFNNPIMCollapsesDuplicateLevels(t *testing.T) {
	data, queries := testData(t, 200, 7)
	q := defaultQuant(t)
	for _, build := range []func() (*Cascade, error){
		func() (*Cascade, error) { return NewFNNPIM(newEngine(t), data, q, data.N) },
		func() (*Cascade, error) {
			return newFNNPIM(newEngine(t), data, q, data.N, []int{1, 1}, "FNN-PIM-optimize")
		},
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		m := arch.NewMeter()
		s.Search(queries.Row(0), 10, m)
		stages := s.LastStages()
		var names []string
		for _, st := range stages {
			names = append(names, st.Name)
		}
		if want := []string{"LBPIM-FNN-7", "LBFNN-1", "ED"}; !reflect.DeepEqual(names, want) {
			t.Fatalf("%s stages = %v, want %v", s.Name(), names, want)
		}
		if calls := m.Get("LBFNN-1").Calls; calls != int64(stages[0].Out) {
			t.Fatalf("%s charged LBFNN-1 %d calls for %d survivors of the PIM stage", s.Name(), calls, stages[0].Out)
		}
	}
}

func TestStandardPIMUsesTheorem4S(t *testing.T) {
	data, _ := testData(t, 200, 420)
	q := defaultQuant(t)
	eng := newEngine(t)
	// Sized against MSD's full cardinality, Theorem 4 gives s=105.
	sp, err := NewStandardPIM(eng, data, q, 992272)
	if err != nil {
		t.Fatal(err)
	}
	if sp.S() != 105 {
		t.Fatalf("Standard-PIM s = %d, want 105 (paper, MSD)", sp.S())
	}
}

// Preprocessing cost is recorded for PIM variants (Fig 17's input).
func TestRecordPreprocessing(t *testing.T) {
	data, _ := testData(t, 100, 64)
	q := defaultQuant(t)
	eng := newEngine(t)
	sp, err := NewStandardPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	m := arch.NewMeter()
	sp.RecordPreprocessing(m)
	if m.Total().PIMWriteNs <= 0 {
		t.Fatal("preprocessing must charge ReRAM write time")
	}
}

// HD searchers: PIM result is bit-exact with the XOR+popcount scan.
func TestHDSearchersExact(t *testing.T) {
	prof := dataset.Profile{Name: "gist-mini", FullN: 500, D: 64, Clusters: 8, Correlation: 0.1, Spread: 0.3}
	ds := dataset.Generate(prof, 300, 7)
	hasher := lsh.NewHasher(prof.D, 128, 8)
	codes := hasher.HashAll(ds.X)
	queriesX := ds.Queries(4, 9)
	qCodes := hasher.HashAll(queriesX)

	std := NewHDStandard(codes)
	eng := newEngine(t)
	hp, err := NewHDPIM(eng, codes, len(codes))
	if err != nil {
		t.Fatal(err)
	}
	for _, qc := range qCodes {
		want := std.Search(qc, 10, arch.NewMeter())
		got := hp.Search(qc, 10, arch.NewMeter())
		assertSameNeighbors(t, "HD-PIM", got, want)
	}
}

// CS and PCC: the PIM upper-bound filter preserves the exact top-k.
func TestSimSearchersExact(t *testing.T) {
	data, queries := testData(t, 300, 64)
	q := defaultQuant(t)
	for _, kind := range []measure.Kind{measure.CS, measure.PCC} {
		std, err := NewSimStandard(data, kind)
		if err != nil {
			t.Fatal(err)
		}
		eng := newEngine(t)
		pimS, err := NewSimPIM(eng, data, q, kind, data.N)
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < queries.N; qi++ {
			qv := queries.Row(qi)
			want := std.Search(qv, 10, arch.NewMeter())
			got := pimS.Search(qv, 10, arch.NewMeter())
			assertSameNeighbors(t, "Sim-PIM/"+kind.String(), got, want)
		}
	}
}

func TestSimStandardRejectsED(t *testing.T) {
	data, _ := testData(t, 50, 16)
	if _, err := NewSimStandard(data, measure.ED); err == nil {
		t.Fatal("SimStandard must reject non-similarity kinds")
	}
}

// Determinism: same data, same query → identical results and stages.
func TestSearchDeterminism(t *testing.T) {
	data, queries := testData(t, 300, 64)
	q := defaultQuant(t)
	eng := newEngine(t)
	fnnPIM, err := NewFNNPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	qv := queries.Row(0)
	r1 := fnnPIM.Search(qv, 10, arch.NewMeter())
	s1 := append([]StageStat(nil), fnnPIM.LastStages()...)
	r2 := fnnPIM.Search(qv, 10, arch.NewMeter())
	assertSameNeighbors(t, "determinism", r2, r1)
	for i, st := range fnnPIM.LastStages() {
		if st != s1[i] {
			t.Fatalf("stage %d differs across runs: %+v vs %+v", i, st, s1[i])
		}
	}
}

// SimLEMP: the UB_part filter preserves the exact CS top-k and prunes.
func TestSimLEMPExactAndPrunes(t *testing.T) {
	data, queries := testData(t, 400, 64)
	std, err := NewSimStandard(data, measure.CS)
	if err != nil {
		t.Fatal(err)
	}
	lemp, err := NewSimLEMP(data, data.D/2)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < queries.N; qi++ {
		qv := queries.Row(qi)
		want := std.Search(qv, 10, arch.NewMeter())
		got := lemp.Search(qv, 10, arch.NewMeter())
		assertSameNeighbors(t, "LEMP", got, want)
	}
	stages := lemp.LastStages()
	if len(stages) == 0 || stages[0].PruneRatio() <= 0 {
		t.Fatalf("UB_part pruned nothing: %+v", stages)
	}
	if _, err := NewSimLEMP(data, 0); err == nil {
		t.Fatal("invalid head length must be rejected")
	}
}
