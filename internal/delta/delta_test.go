package delta

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// hostFactory is the simplest exact base searcher.
func hostFactory(m *vec.Matrix, _ int) (knn.Searcher, error) {
	return knn.NewStandard(m), nil
}

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func randVec(rng *rand.Rand, d int) []float64 {
	v := make([]float64, d)
	for i := range v {
		v[i] = rng.Float64()
	}
	return v
}

// refSearch is the oracle: an exact canonical scan over the store's
// materialized live rows under their global ids.
func refSearch(st *Store, q []float64, k int) []vec.Neighbor {
	m, ids := st.Materialize()
	top := vec.NewTopK(k)
	for i := 0; i < m.N; i++ {
		top.Push(ids[i], sqDist(m.Row(i), q))
	}
	return top.Results()
}

func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

func assertSameNeighbors(t *testing.T, got, want []vec.Neighbor, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d neighbors, want %d\ngot  %v\nwant %v", ctx, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: neighbor %d = %+v, want %+v\ngot  %v\nwant %v", ctx, i, got[i], want[i], got, want)
		}
	}
}

func TestStoreMutationsAndExactSearch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	st, err := New(randMatrix(rng, 40, 6), Options{Factory: hostFactory, MaxDelta: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	live := map[int]bool{}
	for i := 0; i < 40; i++ {
		live[i] = true
	}
	for step := 0; step < 400; step++ {
		switch op := rng.Intn(4); {
		case op == 0: // insert
			id, err := st.Insert(randVec(rng, 6))
			if err != nil {
				t.Fatal(err)
			}
			if live[id] {
				t.Fatalf("id %d reused", id)
			}
			live[id] = true
		case op == 1 && len(live) > 1: // delete
			id := anyKey(rng, live)
			if err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
			if err := st.Delete(id); !errors.Is(err, ErrNotFound) {
				t.Fatalf("double delete err = %v", err)
			}
		case op == 2 && len(live) > 0: // update
			id := anyKey(rng, live)
			if err := st.Update(id, randVec(rng, 6)); err != nil {
				t.Fatal(err)
			}
		}
		if step%20 != 0 {
			continue
		}
		q := randVec(rng, 6)
		k := 1 + rng.Intn(8)
		got, err := st.Search(context.Background(), q, k, math.Inf(1), arch.NewMeter())
		if err != nil {
			t.Fatal(err)
		}
		assertSameNeighbors(t, got, refSearch(st, q, k), "mid-churn")
		host, err := st.SearchHost(context.Background(), q, k, math.Inf(1), arch.NewMeter())
		if err != nil {
			t.Fatal(err)
		}
		assertSameNeighbors(t, host, got, "mid-churn host scan")
	}
	m, ids := st.Materialize()
	if m.N != len(live) || len(ids) != len(live) {
		t.Fatalf("materialized %d rows, want %d", m.N, len(live))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("materialized ids not strictly ascending")
		}
	}
}

// anyKey picks a uniform random member; the sort makes the pick
// deterministic for a seeded rng despite Go's randomized map order.
func anyKey(rng *rand.Rand, set map[int]bool) int {
	keys := make([]int, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys[rng.Intn(len(keys))]
}

func TestStoreUpdateKeepsTieOrder(t *testing.T) {
	t.Parallel()
	// Two identical rows: ties must resolve by id. After updating row 0
	// (moving it into the delta under the SAME id), a query equidistant
	// to both still ranks id 0 first.
	m := vec.NewMatrix(3, 2)
	copy(m.Data, []float64{0.5, 0.5, 0.5, 0.5, 0.9, 0.9})
	st, err := New(m, Options{Factory: hostFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if err := st.Update(0, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
	got, err := st.Search(context.Background(), []float64{0.5, 0.5}, 2, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []vec.Neighbor{{Index: 0, Dist: 0}, {Index: 1, Dist: 0}}
	assertSameNeighbors(t, got, want, "tie after update")
}

func TestStoreValidation(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(2))
	st, err := New(randMatrix(rng, 5, 3), Options{Factory: hostFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Insert([]float64{0.1, 0.2}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := st.Insert([]float64{0.1, 0.2, 1.5}); !errors.Is(err, quant.ErrOutOfRange) {
		t.Fatalf("out-of-range insert err = %v", err)
	}
	if _, err := st.Insert([]float64{0.1, math.NaN(), 0.3}); !errors.Is(err, quant.ErrNotFinite) {
		t.Fatalf("NaN insert err = %v", err)
	}
	if err := st.Update(99, []float64{0.1, 0.2, 0.3}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing err = %v", err)
	}
	if err := st.Delete(99); !errors.Is(err, ErrNotFound) {
		t.Fatalf("delete missing err = %v", err)
	}
	if _, err := st.Search(context.Background(), []float64{0.1}, 1, math.Inf(1), nil); err == nil {
		t.Fatal("query dim mismatch accepted")
	}
	if _, err := st.Search(context.Background(), []float64{0.1, 0.2, 0.3}, 0, math.Inf(1), nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}

func TestStoreCloseIdempotent(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(3))
	st, err := New(randMatrix(rng, 5, 3), Options{Factory: hostFactory})
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	st.Close()
	if _, err := st.Insert([]float64{0.1, 0.2, 0.3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("insert after close err = %v", err)
	}
	if err := st.Delete(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("delete after close err = %v", err)
	}
	if _, err := st.Search(context.Background(), []float64{0.1, 0.2, 0.3}, 1, math.Inf(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("search after close err = %v", err)
	}
	if err := st.Compact(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("compact after close err = %v", err)
	}
}

func TestStoreEpochAdvances(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	st, err := New(randMatrix(rng, 5, 3), Options{Factory: hostFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e0 := st.Epoch()
	if _, err := st.Insert(randVec(rng, 3)); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != e0+1 {
		t.Fatalf("epoch %d after insert, want %d", st.Epoch(), e0+1)
	}
	if err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != e0+2 {
		t.Fatalf("epoch %d after compact, want %d", st.Epoch(), e0+2)
	}
	// A compact with nothing to fold is a no-op.
	if err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if st.Epoch() != e0+2 {
		t.Fatalf("no-op compact bumped epoch to %d", st.Epoch())
	}
}

// TestSearchAddsNoAllocation: with an empty delta and no tombstones a
// store visit allocates exactly what its base searcher does — ids are
// translated in place on the searcher's own result.
func TestSearchAddsNoAllocation(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's mallocs.
	rng := rand.New(rand.NewSource(5))
	var base knn.Searcher
	ids := make([]int, 64) // a placed shard's ascending, gapped id directory
	for i := range ids {
		ids[i] = 100 + 3*i
	}
	st, err := New(randMatrix(rng, 64, 6), Options{IDs: ids, Factory: func(m *vec.Matrix, n int) (knn.Searcher, error) {
		base, _ = hostFactory(m, n)
		return base, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx, q, m := context.Background(), randVec(rng, 6), arch.NewMeter()
	bare := testing.AllocsPerRun(50, func() { base.Search(q, 5, m) })
	visit := testing.AllocsPerRun(50, func() {
		if _, err := st.Search(ctx, q, 5, math.Inf(1), m); err != nil {
			t.Fatal(err)
		}
	})
	if visit != bare {
		t.Fatalf("Store.Search allocates %v per call, its base searcher %v", visit, bare)
	}
	got, err := st.Search(ctx, q, 5, math.Inf(1), m)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNeighbors(t, got, refSearch(st, q, 5), "placed ids")
}

// TestMaterializeAllMergesByID: the k-way merge of several stores' live
// images equals concatenating them and sorting by id, to the row bits.
func TestMaterializeAllMergesByID(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(6))
	const d = 3
	for _, parts := range [][][]int{
		{{0, 3, 7, 8}, {1, 2, 9}, {}, {4, 5, 6, 10, 11}}, // interleaved, one empty
		{{2, 5}},
		{{}, {}},
	} {
		type row struct {
			id int
			v  []float64
		}
		var stores []*Store
		var want []row
		for _, ids := range parts {
			m := randMatrix(rng, len(ids), d)
			st, err := Restore(m, ids, 100, Options{Factory: hostFactory})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			stores = append(stores, st)
			for i, id := range ids {
				want = append(want, row{id, m.Row(i)})
			}
		}
		sort.Slice(want, func(i, j int) bool { return want[i].id < want[j].id })
		got, ids := MaterializeAll(stores)
		if got.N != len(want) || len(ids) != len(want) || got.D != d {
			t.Fatalf("%v: merged %d×%d rows, %d ids; want %d×%d", parts, got.N, got.D, len(ids), len(want), d)
		}
		for i, w := range want {
			if ids[i] != w.id {
				t.Fatalf("%v: row %d has id %d, want %d", parts, i, ids[i], w.id)
			}
			for c, x := range got.Row(i) {
				if math.Float64bits(x) != math.Float64bits(w.v[c]) {
					t.Fatalf("%v: row %d (id %d) col %d = %v, want %v", parts, i, w.id, c, x, w.v[c])
				}
			}
		}
	}
}
