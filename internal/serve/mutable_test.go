package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/vec"
)

// TestMutableDifferentialVsFresh is the engine-level differential: a
// mutated dataset served through the mutable engine must answer every
// query byte-identically to a fresh immutable engine built over the
// equivalent final dataset — before and after compaction.
func TestMutableDifferentialVsFresh(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	data := vec.NewMatrix(120, 8)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	me, err := NewMutable(data, MutableOptions{
		Options:  Options{Shards: 3, Workers: 2},
		MaxDelta: 1 << 20, // no auto trigger; compaction is explicit below
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	live := map[int]bool{}
	for i := 0; i < data.N; i++ {
		live[i] = true
	}
	rv := func() []float64 {
		v := make([]float64, data.D)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	pick := func() int {
		ids := make([]int, 0, len(live))
		for id := range live {
			ids = append(ids, id)
		}
		// Deterministic pick despite map order: smallest-index trick is
		// biased, so sort then sample.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		return ids[rng.Intn(len(ids))]
	}
	for step := 0; step < 150; step++ {
		switch rng.Intn(3) {
		case 0:
			id, err := me.Insert(rv())
			if err != nil {
				t.Fatal(err)
			}
			live[id] = true
		case 1:
			id := pick()
			if err := me.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(live, id)
		case 2:
			if err := me.Update(pick(), rv()); err != nil {
				t.Fatal(err)
			}
		}
	}

	check := func(phase string) {
		t.Helper()
		final, ids := me.Materialize()
		if final.N != len(live) {
			t.Fatalf("%s: materialized %d rows, want %d", phase, final.N, len(live))
		}
		fresh, err := New(final, Options{Shards: 3, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		defer fresh.Close()
		queries := vec.NewMatrix(20, data.D)
		qrng := rand.New(rand.NewSource(13))
		for i := range queries.Data {
			queries.Data[i] = qrng.Float64()
		}
		got, err := me.SearchBatch(context.Background(), queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SearchBatch(context.Background(), queries, 5)
		if err != nil {
			t.Fatal(err)
		}
		for qi := range want.Results {
			w := want.Results[qi].Neighbors
			g := got.Results[qi].Neighbors
			if len(g) != len(w) {
				t.Fatalf("%s: query %d: got %d neighbors, want %d", phase, qi, len(g), len(w))
			}
			for j := range w {
				// The fresh engine answers in positions of the
				// materialized matrix; map through the id directory
				// (monotone, so canonical tie order is preserved).
				mapped := vec.Neighbor{Index: ids[w[j].Index], Dist: w[j].Dist}
				if g[j] != mapped {
					t.Fatalf("%s: query %d neighbor %d = %+v, want %+v", phase, qi, j, g[j], mapped)
				}
			}
		}
	}

	check("pre-compaction")
	if err := me.Compact(nil); err != nil {
		t.Fatal(err)
	}
	for _, s := range me.Stats() {
		if s.DeltaRows != 0 || s.Tombstones != 0 {
			t.Fatalf("post-compaction stats not clean: %+v", s)
		}
	}
	check("post-compaction")
}

func TestMutableRoutesAcrossShards(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	data := vec.NewMatrix(10, 4)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	me, err := NewMutable(data, MutableOptions{Options: Options{Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	if me.NumShards() != 3 {
		t.Fatalf("NumShards = %d", me.NumShards())
	}
	// Initial ids are range-routed: update/delete across all of them.
	for id := 0; id < data.N; id += 3 {
		if err := me.Update(id, data.Row(id)); err != nil {
			t.Fatalf("update %d: %v", id, err)
		}
	}
	// Inserted ids are table-routed; after delete the route is gone.
	id, err := me.Insert(data.Row(0))
	if err != nil {
		t.Fatal(err)
	}
	if id != data.N {
		t.Fatalf("first inserted id = %d, want %d", id, data.N)
	}
	if err := me.Delete(id); err != nil {
		t.Fatal(err)
	}
	if err := me.Delete(id); !errors.Is(err, delta.ErrNotFound) {
		t.Fatalf("deleting dead route err = %v", err)
	}
	if err := me.Update(9999, data.Row(0)); !errors.Is(err, delta.ErrNotFound) {
		t.Fatalf("updating unknown id err = %v", err)
	}
}

// TestMutableHammerChurnVsSearch is the delta-compaction race hammer:
// concurrent Insert/Update/Delete against SearchBatch with background
// compaction enabled, run under -race in CI. Results are checked for
// structural sanity (canonical order, live-id membership is impossible
// to assert mid-churn, but distances must be sorted and ids distinct).
func TestMutableHammerChurnVsSearch(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	data := vec.NewMatrix(96, 6)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	me, err := NewMutable(data, MutableOptions{
		Options:     Options{Shards: 4, Workers: 4},
		MaxDelta:    8,
		AutoCompact: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	deadline := time.Now().Add(300 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			wrng := rand.New(rand.NewSource(seed))
			var mine []int
			for time.Now().Before(deadline) {
				v := make([]float64, data.D)
				for i := range v {
					v[i] = wrng.Float64()
				}
				switch {
				case len(mine) == 0 || wrng.Intn(3) == 0:
					id, err := me.Insert(v)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, id)
				case wrng.Intn(2) == 0:
					i := wrng.Intn(len(mine))
					if err := me.Update(mine[i], v); err != nil {
						t.Error(err)
						return
					}
				default:
					i := wrng.Intn(len(mine))
					if err := me.Delete(mine[i]); err != nil {
						t.Error(err)
						return
					}
					mine[i] = mine[len(mine)-1]
					mine = mine[:len(mine)-1]
				}
			}
		}(int64(100 + w))
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for time.Now().Before(deadline) {
				queries := vec.NewMatrix(4, data.D)
				for i := range queries.Data {
					queries.Data[i] = qrng.Float64()
				}
				res, err := me.SearchBatch(context.Background(), queries, 5)
				if err != nil {
					t.Error(err)
					return
				}
				for _, r := range res.Results {
					nn := r.Neighbors
					for j := 1; j < len(nn); j++ {
						if nn[j].Dist < nn[j-1].Dist ||
							(nn[j].Dist == nn[j-1].Dist && nn[j].Index <= nn[j-1].Index) {
							t.Errorf("non-canonical result order: %v", nn)
							return
						}
					}
				}
			}
		}(int64(200 + r))
	}
	wg.Wait()

	// Quiesce and verify the final state is exactly searchable.
	if err := me.Compact(nil); err != nil {
		t.Fatal(err)
	}
	final, ids := me.Materialize()
	if final.N != len(ids) || final.N == 0 {
		t.Fatalf("materialized %d rows / %d ids", final.N, len(ids))
	}
	q := final.Row(0)
	res, err := me.Search(context.Background(), q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 1 || res.Neighbors[0].Dist != 0 || res.Neighbors[0].Index != ids[0] {
		t.Fatalf("self-query after quiesce: %+v, want id %d at dist 0", res.Neighbors, ids[0])
	}
}

// TestFanOutJoinsAllShardErrors pins the join discipline: when several
// shards fail in one fan-out, the caller sees every failed shard in a
// joined error, not just whichever goroutine lost the race — the
// placement layer's quorum accounting depends on seeing them all.
func TestFanOutJoinsAllShardErrors(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	data := vec.NewMatrix(90, 6)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	me, err := NewMutable(data, MutableOptions{Options: Options{Shards: 3}})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()

	// Sabotage shards 0 and 2 directly; shard 1 stays healthy.
	me.src.stores[0].Close()
	me.src.stores[2].Close()

	_, err = me.Search(context.Background(), data.Row(0), 3)
	if err == nil {
		t.Fatal("search over two closed shards succeeded")
	}
	if !errors.Is(err, delta.ErrClosed) {
		t.Fatalf("error not rooted in delta.ErrClosed: %v", err)
	}
	for _, want := range []string{"shard 0", "shard 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("joined error omits %q: %v", want, err)
		}
	}
	if strings.Contains(err.Error(), "shard 1") {
		t.Fatalf("healthy shard blamed in %v", err)
	}
}

// TestShardDeltaOptionsTracksDegraded pins the degraded report to the
// shard's latest build, not its worst: a failed variant build serves the
// host scan and is reported, the next healthy rebuild clears it. Builds
// run on compaction goroutines while every query reads the report, so
// the reader below runs concurrently (meaningful under -race). A custom
// Options.Factory is what builds every epoch: handed shard ids 0..S−1 at
// build and the compacted shard's id on Compact, it degrades that epoch
// when it fails.
func TestShardDeltaOptionsTracksDegraded(t *testing.T) {
	t.Parallel()
	builds := 0
	e, err := newMutableEngine(8, 4, MutableOptions{Options: Options{Shards: 1}}, func(*MutableEngine) ([][]int, int, error) { return nil, 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	e.src.build = func(m *vec.Matrix, _, _ int) (knn.Searcher, error) {
		if builds++; builds == 1 {
			return nil, errors.New("dead crossbars")
		}
		return knn.NewStandard(m), nil
	}
	dopts, err := e.shardDeltaOptions(0)
	if err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
				e.DegradedShards()
			}
		}
	}()
	m := closeTestData(8, 4)
	for i, want := range [][]int{{0}, nil} {
		if s, err := dopts.Factory(m, 8); err != nil || s == nil {
			t.Fatalf("build %d: searcher %v, err %v; a failed build must fall back, not fail", i, s, err)
		}
		if got := e.DegradedShards(); len(got) != len(want) || (len(got) == 1 && got[0] != want[0]) {
			t.Fatalf("after build %d: DegradedShards() = %v, want %v", i, got, want)
		}
	}
	close(stop)
	<-done

	// The custom Factory, through the public API. Three shards of ten
	// rows: shard 1 owns ids 10..19.
	data := closeTestData(30, 4)
	var seen []int
	failing := -1
	me, err := NewMutable(data, MutableOptions{
		Options: Options{Shards: 3, Factory: func(m *vec.Matrix, id int) (knn.Searcher, error) {
			seen = append(seen, id)
			if id == failing {
				return nil, errors.New("dead crossbars")
			}
			return knn.NewFNN(m)
		}},
		MaxDelta: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer me.Close()
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Fatalf("factory saw shard ids %v at build, want [0 1 2]", seen)
	}
	for i, step := range []struct {
		fail     bool
		degraded []int
	}{{true, []int{1}}, {false, nil}} {
		seen, failing = nil, -1
		if step.fail {
			failing = 1
		}
		if err := me.Delete(10 + i); err != nil {
			t.Fatal(err)
		}
		if err := me.Compact(nil); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seen, []int{1}) {
			t.Fatalf("compaction %d: factory saw shard ids %v, want [1]", i, seen)
		}
		if got := me.DegradedShards(); !reflect.DeepEqual(got, step.degraded) {
			t.Fatalf("compaction %d: DegradedShards() = %v, want %v", i, got, step.degraded)
		}
		want := liveOracle(me, data, 3)
		for qi := 0; qi < data.N; qi++ {
			res, err := me.Search(context.Background(), data.Row(qi), 3)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Degraded, step.degraded) {
				t.Fatalf("compaction %d query %d: Result.Degraded = %v, want %v", i, qi, res.Degraded, step.degraded)
			}
			assertExact(t, fmt.Sprintf("compaction %d query %d", i, qi), res.Neighbors, want[qi])
		}
	}
}
