package knn

import (
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

// Zero-allocation regression tests for the steady-state query paths: once
// a searcher is warmed up (scratch buffers sized, meter buckets created),
// SearchAppend must not touch the heap. A regression here silently
// reintroduces per-query GC pressure on the hot path, so any allocation
// fails the test outright.

// searchersUnderTest builds every searcher with a float-vector query over
// one dataset and engine: the ED family and the five the cascade took over
// from hand-written scan loops that allocated a TopK, the query floors and
// (CS/PCC, LEMP) a []StageStat per query. All of them implement
// AppendSearcher.
func searchersUnderTest(t *testing.T) []AppendSearcher {
	t.Helper()
	data, _ := testData(t, 300, 64)
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
	smPIM, err := NewSMPIM(eng, data, q, 16, data.N)
	if err != nil {
		t.Fatal(err)
	}
	ostPIM, err := NewOSTPIM(eng, data, q, data.D/2, data.N)
	if err != nil {
		t.Fatal(err)
	}
	fnnPIM, err := NewFNNPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	fnnPIMOpt, err := newFNNPIM(eng, data, q, data.N, []int{1, 4}, "FNN-PIM-optimize")
	if err != nil {
		t.Fatal(err)
	}
	csPIM, err := NewSimPIM(eng, data, q, measure.CS, data.N)
	if err != nil {
		t.Fatal(err)
	}
	pccPIM, err := NewSimPIM(eng, data, q, measure.PCC, data.N)
	if err != nil {
		t.Fatal(err)
	}
	lemp, err := NewSimLEMP(data, data.D/2)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := NewApproxPIM(eng, data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	// One segment per dimension: LB_PIM-ED over the full rows. Its payload
	// takes the SM-PIM name, so it needs an engine of its own.
	smFull, err := NewSMPIM(newEngine(t), data, q, data.D, data.N)
	if err != nil {
		t.Fatal(err)
	}
	return []AppendSearcher{std, ost, sm, fnn, stdPIM, smPIM, ostPIM, fnnPIM, fnnPIMOpt, csPIM, pccPIM, lemp, approx, smFull}
}

// TestHDSearchAppendZeroAllocs is TestSearchAppendZeroAllocs for the one
// moved searcher whose query is a packed code, on a healthy array (HD1 is
// the answer) and a faulty one (HD1 filters, Hamming refines).
func TestHDSearchAppendZeroAllocs(t *testing.T) {
	const k = 10
	data, queries := testData(t, 300, 64)
	hasher := lsh.NewHasher(data.D, 128, 8)
	codes, qCodes := hasher.HashAll(data), hasher.HashAll(queries)
	for name, eng := range map[string]*pim.Engine{"healthy": newEngine(t), "faulty": faultyEngine(t, 55)} {
		hp, err := NewHDPIM(eng, codes, len(codes))
		if err != nil {
			t.Fatal(err)
		}
		meter := arch.NewMeter()
		dst := make([]vec.Neighbor, 0, k)
		for _, qc := range qCodes {
			dst = hp.SearchAppend(qc, k, meter, dst[:0])
		}
		if allocs := testing.AllocsPerRun(20, func() { dst = hp.SearchAppend(qCodes[0], k, meter, dst[:0]) }); allocs != 0 {
			t.Fatalf("%s: steady-state SearchAppend allocated %.1f times per query, want 0", name, allocs)
		}
	}
}

func TestSearchAppendZeroAllocs(t *testing.T) {
	const k = 10
	data, queries := testData(t, 300, 64)
	_ = data
	searchers := searchersUnderTest(t)
	for _, s := range searchers {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			meter := arch.NewMeter()
			dst := make([]vec.Neighbor, 0, k)
			// Warm up: size scratch, create meter buckets, grow TopK.
			for i := 0; i < 3; i++ {
				dst = s.SearchAppend(queries.Row(i%queries.N), k, meter, dst[:0])
			}
			allocs := testing.AllocsPerRun(20, func() {
				dst = s.SearchAppend(queries.Row(0), k, meter, dst[:0])
			})
			if allocs != 0 {
				t.Fatalf("%s: steady-state SearchAppend allocated %.1f times per query, want 0", s.Name(), allocs)
			}
			if len(dst) != k {
				t.Fatalf("%s: returned %d neighbors, want %d", s.Name(), len(dst), k)
			}
		})
	}
}

// TestEDFilterZeroAllocs pins the pass every LB_PIM-ED mining task
// shares: a warmed Refine quantizes into retained scratch, so a pass over
// all rows never touches the heap (outlier, dbscan and motif used to
// allocate a floor vector per outer row).
func TestEDFilterZeroAllocs(t *testing.T) {
	data, queries := testData(t, 300, 64)
	f, err := NewEDFilter(newEngine(t), data, defaultQuant(t), data.N, "alloc/points")
	if err != nil {
		t.Fatal(err)
	}
	meter := arch.NewMeter()
	var refined, sweeps int64
	visit := func(int, float64) (float64, bool) {
		refined++
		return 0.05, true
	}
	sweep := func(q []float64) {
		sweeps++
		if err := f.Refine(data, q, 0, data.N, 0, 0, 0.05, visit, meter); err != nil {
			t.Fatal(err)
		}
	}
	sweep(queries.Row(1)) // warm up: size the dot buffer, create meter buckets
	if allocs := testing.AllocsPerRun(20, func() { sweep(queries.Row(0)) }); allocs != 0 {
		t.Fatalf("warmed Refine allocated %.1f times, want 0", allocs)
	}
	if c := meter.Get("LBPIM-ED"); c.Calls != sweeps*int64(data.N+1) {
		t.Fatalf("LBPIM-ED Calls = %d, want %d (one pass and N consultations per sweep)", c.Calls, sweeps*int64(data.N+1))
	}
	if c := meter.Get(arch.FuncED); refined == 0 || c.Calls != refined {
		t.Fatalf("ED Calls = %d, want the %d refined rows (at least one)", c.Calls, refined)
	}
}

// TestSearchAppendMatchesSearch pins the allocation-free path identical to
// Search: same neighbors, same order, same meter activity.
func TestSearchAppendMatchesSearch(t *testing.T) {
	const k = 7
	_, queries := testData(t, 300, 64)
	for _, s := range searchersUnderTest(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			var dst []vec.Neighbor
			for qi := 0; qi < queries.N; qi++ {
				m1 := arch.NewMeter()
				m2 := arch.NewMeter()
				want := s.Search(queries.Row(qi), k, m1)
				dst = s.SearchAppend(queries.Row(qi), k, m2, dst[:0])
				if len(dst) != len(want) {
					t.Fatalf("query %d: %d neighbors, Search gave %d", qi, len(dst), len(want))
				}
				for i := range want {
					if dst[i] != want[i] {
						t.Fatalf("query %d pos %d: %+v, Search gave %+v", qi, i, dst[i], want[i])
					}
				}
				for _, fn := range m1.Functions() {
					if m1.Get(fn) != m2.Get(fn) {
						t.Fatalf("query %d: meter %q diverged: %+v vs %+v", qi, fn, m1.Get(fn), m2.Get(fn))
					}
				}
			}
		})
	}
}
