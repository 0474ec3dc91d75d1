package delta

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/vec"
)

func TestCompactFoldsDeltaAndTombstones(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(10))
	st, err := New(randMatrix(rng, 30, 4), Options{Factory: hostFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if _, err := st.Insert(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 5; id++ {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Update(7, randVec(rng, 4)); err != nil {
		t.Fatal(err)
	}
	wantM, wantIDs := st.Materialize()
	q := randVec(rng, 4)
	before, err := st.Search(context.Background(), q, 9, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}

	if err := st.Compact(arch.NewMeter()); err != nil {
		t.Fatal(err)
	}
	s := st.Stats()
	if s.DeltaRows != 0 || s.Tombstones != 0 {
		t.Fatalf("post-compact stats %+v", s)
	}
	if s.Compactions != 1 {
		t.Fatalf("compactions = %d", s.Compactions)
	}
	gotM, gotIDs := st.Materialize()
	if gotM.N != wantM.N {
		t.Fatalf("row count changed: %d -> %d", wantM.N, gotM.N)
	}
	for i := range gotIDs {
		if gotIDs[i] != wantIDs[i] {
			t.Fatalf("ids changed at %d: %d != %d", i, gotIDs[i], wantIDs[i])
		}
	}
	for i := range gotM.Data {
		if gotM.Data[i] != wantM.Data[i] {
			t.Fatalf("data changed at %d", i)
		}
	}
	after, err := st.Search(context.Background(), q, 9, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNeighbors(t, after, before, "across compaction")
}

func TestCompactRefusesEmpty(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	st, err := New(randMatrix(rng, 3, 2), Options{Factory: hostFactory})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for id := 0; id < 3; id++ {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(nil); !errors.Is(err, ErrAllDeleted) {
		t.Fatalf("empty compact err = %v", err)
	}
	// The tombstoned base still serves (zero results, no error).
	nn, err := st.Search(context.Background(), []float64{0.5, 0.5}, 2, math.Inf(1), nil)
	if err != nil || len(nn) != 0 {
		t.Fatalf("search over fully deleted store: %v, %v", nn, err)
	}
}

// TestFailedCompactionKeepsOldEpoch builds a store whose Factory fails on
// its second build. That compaction must return the factory's error, count
// in Stats and in pim_delta_compaction_failures_total, and leave the old
// epoch serving every query to the bit; the next build is healthy, and its
// compaction must fold the delta as usual.
func TestFailedCompactionKeepsOldEpoch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(16))
	errDead := errors.New("dead crossbars")
	builds := 0
	factory := func(m *vec.Matrix, _ int) (knn.Searcher, error) {
		if builds++; builds == 2 {
			return nil, errDead
		}
		return knn.NewStandard(m), nil
	}
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	st, err := New(randMatrix(rng, 30, 4), Options{Factory: factory, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 6; i++ {
		if _, err := st.Insert(randVec(rng, 4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{2, 9, 31} {
		if err := st.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	queries := make([][]float64, 8)
	before := make([][]vec.Neighbor, len(queries))
	for i := range queries {
		queries[i] = randVec(rng, 4)
		if before[i], err = st.Search(context.Background(), queries[i], 7, math.Inf(1), nil); err != nil {
			t.Fatal(err)
		}
	}
	sameBits := func(when string) {
		t.Helper()
		for i, q := range queries {
			got, err := st.Search(context.Background(), q, 7, math.Inf(1), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(before[i]) {
				t.Fatalf("%s, query %d: %d neighbors, want %d", when, i, len(got), len(before[i]))
			}
			for r := range got {
				if got[r].Index != before[i][r].Index || math.Float64bits(got[r].Dist) != math.Float64bits(before[i][r].Dist) {
					t.Fatalf("%s, query %d row %d: %+v, want %+v", when, i, r, got[r], before[i][r])
				}
			}
		}
	}
	epoch := st.Epoch()

	if err := st.Compact(nil); !errors.Is(err, errDead) {
		t.Fatalf("compaction over a failing build: err = %v, want %v", err, errDead)
	}
	s := st.Stats()
	if s.CompactionFailures != 1 || s.Compactions != 0 {
		t.Fatalf("after the failed build: %d failures, %d compactions; want 1, 0", s.CompactionFailures, s.Compactions)
	}
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "pim_delta_compaction_failures_total 1\n") {
		t.Fatalf("exposition lacks the failure count:\n%s", text.String())
	}
	if st.Epoch() != epoch || s.DeltaRows != 5 || s.Tombstones != 2 {
		t.Fatalf("a failed build moved the epoch: epoch %d -> %d, %+v", epoch, st.Epoch(), s)
	}
	sameBits("after the failed build")

	if err := st.Compact(nil); err != nil {
		t.Fatalf("healthy compaction after a failed one: %v", err)
	}
	s = st.Stats()
	if s.Compactions != 1 || s.CompactionFailures != 1 || s.DeltaRows != 0 || s.Tombstones != 0 {
		t.Fatalf("after the healthy build: %+v", s)
	}
	if metrics.Compactions.Value() != 1 || metrics.CompactionFailures.Value() != 1 {
		t.Fatalf("counters after the healthy build: %d compactions, %d failures",
			metrics.Compactions.Value(), metrics.CompactionFailures.Value())
	}
	sameBits("after the healthy build")
}

// TestCompactionGrowsCapacityN pins the sizing cardinality each build is
// handed: CapacityRows while the rows fit under it, the live row count once
// inserts pass it, so a PIM factory's Theorem 4 choice follows occupancy.
func TestCompactionGrowsCapacityN(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	var capacities []int
	factory := func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
		capacities = append(capacities, capacityN)
		return knn.NewStandard(m), nil
	}
	st, err := New(randMatrix(rng, 20, 8), Options{Factory: factory, CapacityRows: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	grow := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := st.Insert(randVec(rng, 8)); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Compact(nil); err != nil {
			t.Fatal(err)
		}
	}
	grow(10) // 30 live rows, under CapacityRows
	grow(30) // 60 live rows, past it
	if err := st.Delete(0); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	want := []int{40, 40, 60, 59}
	if len(capacities) != len(want) {
		t.Fatalf("capacityN per build = %v, want %v", capacities, want)
	}
	for i := range want {
		if capacities[i] != want[i] {
			t.Fatalf("capacityN per build = %v, want %v", capacities, want)
		}
	}
	if live := st.Stats().LiveRows; live != 59 {
		t.Fatalf("live rows = %d, want 59", live)
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	t.Parallel()
	waitCompactions := func(t *testing.T, st *Store, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for st.Stats().Compactions < want {
			if time.Now().After(deadline) {
				t.Fatalf("auto-compaction never ran: %+v", st.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}
	t.Run("delta fill", func(t *testing.T) {
		rng := rand.New(rand.NewSource(12))
		st, err := New(randMatrix(rng, 20, 4), Options{
			Factory:     hostFactory,
			MaxDelta:    8,
			AutoCompact: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		for i := 0; i < 40; i++ {
			if _, err := st.Insert(randVec(rng, 4)); err != nil {
				t.Fatal(err)
			}
		}
		waitCompactions(t, st, 1)
		q := randVec(rng, 4)
		got, err := st.Search(context.Background(), q, 5, math.Inf(1), nil)
		if err != nil {
			t.Fatal(err)
		}
		assertSameNeighbors(t, got, refSearch(st, q, 5), "after auto-compact")
	})
	t.Run("tombstone ratio", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		st, err := New(randMatrix(rng, 20, 4), Options{Factory: hostFactory, AutoCompact: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		// 5 of 20 base rows (= 0.25) is not above the ratio: no fold.
		for id := 0; id < 5; id++ {
			if err := st.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
		if folded, err := st.CompactIfDue(); folded || err != nil {
			t.Fatalf("CompactIfDue at 5/20 tombstones = %v, %v; want no fold", folded, err)
		}
		if s := st.Stats(); s.Compactions != 0 || s.Tombstones != 5 {
			t.Fatalf("at 5/20 tombstones: %+v, want no fold", s)
		}
		// A 6th (> 0.25) folds them away.
		if err := st.Delete(5); err != nil {
			t.Fatal(err)
		}
		waitCompactions(t, st, 1)
		if s := st.Stats(); s.Tombstones != 0 || s.BaseRows != 14 {
			t.Fatalf("after the fold: %+v, want 14 base rows and no tombstones", s)
		}
	})
}

func TestMetricsPublished(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	st, err := New(randMatrix(rng, 20, 4), Options{
		Factory: hostFactory,
		Metrics: metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Insert(randVec(rng, 4)); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete(3); err != nil {
		t.Fatal(err)
	}
	if metrics.DeltaRows.Value() != 1 || metrics.Tombstones.Value() != 1 {
		t.Fatalf("gauges = %d, %d", metrics.DeltaRows.Value(), metrics.Tombstones.Value())
	}
	if err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	if metrics.Compactions.Value() != 1 {
		t.Fatalf("compactions counter = %d", metrics.Compactions.Value())
	}
	if metrics.CompactionSeconds.Count() != 1 {
		t.Fatalf("latency observations = %d", metrics.CompactionSeconds.Count())
	}
	if metrics.DeltaRows.Value() != 0 || metrics.Tombstones.Value() != 0 {
		t.Fatal("gauges not reset after compaction")
	}
}

// TestHammerConcurrentMutateSearchCompact is the delta-compaction race
// hammer (run under -race in CI): concurrent inserts, deletes, updates,
// searches and explicit compactions, with every search result checked
// for internal consistency (sorted canonical order, no duplicate ids,
// no tombstoned results resurfacing... the oracle check itself would
// race with mutations, so the invariant checked is structural).
func TestHammerConcurrentMutateSearchCompact(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(15))
	st, err := New(randMatrix(rng, 50, 4), Options{
		Factory:     hostFactory,
		MaxDelta:    16,
		AutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	const writers, readers = 4, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch r.Intn(3) {
				case 0:
					if _, err := st.Insert(randVec(r, 4)); err != nil && !errors.Is(err, ErrClosed) {
						errs <- err
						return
					}
				case 1:
					err := st.Delete(r.Intn(200))
					if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrClosed) {
						errs <- err
						return
					}
				case 2:
					err := st.Update(r.Intn(200), randVec(r, 4))
					if err != nil && !errors.Is(err, ErrNotFound) && !errors.Is(err, ErrClosed) {
						errs <- err
						return
					}
				}
			}
		}(int64(100 + w))
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rr := rand.New(rand.NewSource(seed))
			meter := arch.NewMeter()
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := randVec(rr, 4)
				k := 1 + rr.Intn(10)
				nn, err := st.Search(context.Background(), q, k, math.Inf(1), meter)
				if err != nil {
					if errors.Is(err, ErrClosed) {
						return
					}
					errs <- err
					return
				}
				for i := range nn {
					if i > 0 && !(nn[i-1].Dist < nn[i].Dist ||
						(nn[i-1].Dist == nn[i].Dist && nn[i-1].Index < nn[i].Index)) {
						errs <- errors.New("results out of canonical order")
						return
					}
				}
			}
		}(int64(200 + r))
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	st.Close()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}
