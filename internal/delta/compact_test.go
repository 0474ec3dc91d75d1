package delta

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
)

// testModel is a small Theorem 4 model so tile pricing is a handful of
// crossbars, not thousands.
func testModel() *pim.CapacityModel {
	return &pim.CapacityModel{
		M: 64, CellBits: 2, OperandBits: 32,
		Crossbars: 4096, Utilization: 0.5,
	}
}

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

// TestCompactionEnduranceBudgetProperty is the acceptance-criteria
// property test: across random mutate/compact schedules, no crossbar
// tile is ever programmed past its configured write-cycle budget, and
// once the array is spent further compactions are refused with
// ErrEndurance while queries stay exact.
func TestCompactionEnduranceBudgetProperty(t *testing.T) {
	t.Parallel()
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(100 + int64(trial)))
		model := testModel()
		const budget = 3
		tiles := 2 + rng.Intn(6)
		ledger, err := NewLedger(tiles, budget)
		if err != nil {
			t.Fatal(err)
		}
		st, err := New(randMatrix(rng, 20, 4), Options{
			Factory: hostFactory,
			Ledger:  ledger,
			Model:   model,
			// One image of 20..40 rows at s=4 costs 1 data crossbar
			// (×2 payloads); leave thresholds out of the way.
			MaxDelta:         1 << 20,
			VectorsPerObject: 1,
		})
		if errors.Is(err, ErrEndurance) {
			continue // tiny ledger cannot even hold the initial image
		}
		if err != nil {
			t.Fatal(err)
		}
		spent := false
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0:
				if _, err := st.Insert(randVec(rng, 4)); err != nil {
					t.Fatal(err)
				}
			case 1:
				_, ids := st.Materialize()
				if len(ids) > 5 {
					if err := st.Delete(ids[rng.Intn(len(ids))]); err != nil {
						t.Fatal(err)
					}
				}
			case 2:
				err := st.Compact(nil)
				if err != nil && !errors.Is(err, ErrEndurance) {
					t.Fatal(err)
				}
				if errors.Is(err, ErrEndurance) {
					spent = true
					if fails := st.Stats().CompactionFailures; fails == 0 {
						t.Fatal("refused compaction not counted as failure")
					}
				}
			}
			if s := ledger.Stats(); s.MaxWear > budget {
				t.Fatalf("trial %d step %d: wear %d exceeds budget %d", trial, step, s.MaxWear, budget)
			}
			// Queries stay exact regardless of endurance state.
			if step%10 == 9 {
				q := randVec(rng, 4)
				got, err := st.Search(context.Background(), q, 3, math.Inf(1), nil)
				if err != nil {
					t.Fatal(err)
				}
				assertSameNeighbors(t, got, refSearch(st, q, 3), "endurance churn")
			}
		}
		if spent {
			// Once refused, the budget must genuinely be unable to host
			// a fresh image while the current one is held.
			if err := st.Compact(nil); err == nil {
				t.Fatal("compaction succeeded after the array was reported spent")
			}
		}
		st.Close()
	}
}

func TestAutoCompactTriggers(t *testing.T) {
	t.Parallel()
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
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("auto-compaction never ran")
		}
		time.Sleep(time.Millisecond)
	}
	q := randVec(rng, 4)
	got, err := st.Search(context.Background(), q, 5, math.Inf(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameNeighbors(t, got, refSearch(st, q, 5), "after auto-compact")
}

func TestCompactionChoosesTheorem4S(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	model := testModel()
	st, err := New(randMatrix(rng, 50, 8), Options{
		Factory:          hostFactory,
		Model:            model,
		VectorsPerObject: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	wantS := model.ChooseS(50, pim.Divisors(8), 2)
	if got := st.Stats().ChosenS; got != wantS {
		t.Fatalf("initial ChosenS = %d, want %d", got, wantS)
	}
	// Grow occupancy past CapacityRows; the rebuild re-runs ChooseS
	// against the larger cardinality.
	for i := 0; i < 30; i++ {
		if _, err := st.Insert(randVec(rng, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Compact(nil); err != nil {
		t.Fatal(err)
	}
	wantS = model.ChooseS(80, pim.Divisors(8), 2)
	if got := st.Stats().ChosenS; got != wantS {
		t.Fatalf("post-growth ChosenS = %d, want %d", got, wantS)
	}
}

func TestMetricsPublished(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(14))
	reg := obs.NewRegistry()
	metrics := NewMetrics(reg)
	ledger, err := NewLedger(64, 100)
	if err != nil {
		t.Fatal(err)
	}
	st, err := New(randMatrix(rng, 20, 4), Options{
		Factory: hostFactory,
		Ledger:  ledger,
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
	before := metrics.EnduranceRemaining.Value()
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
	if after := metrics.EnduranceRemaining.Value(); after >= before {
		t.Fatalf("endurance remaining did not drop: %d -> %d", before, after)
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
