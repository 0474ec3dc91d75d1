package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// waitGoroutines polls until the process runs at most want goroutines,
// and fails once the deadline passes first.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for n := runtime.NumGoroutine(); n > want; n = runtime.NumGoroutine() {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left after Close, %d before the build", n, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseReleasesVisitWorkers: a serve engine's parked visit workers
// outlive its queries but not its Close — the goroutine count returns to
// what it was before the engine was built.
func TestCloseReleasesVisitWorkers(t *testing.T) {
	// Not parallel: it counts the process's goroutines.
	data, queries := testData(t, 400, 16, 8)
	before := runtime.NumGoroutine()
	e, err := New(data, Options{Shards: 4, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SearchBatch(context.Background(), queries, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Search(context.Background(), queries.Row(0), 5); err != nil {
		t.Fatal(err)
	}
	e.pipe.idleMu.Lock()
	parked := len(e.pipe.idle)
	e.pipe.idleMu.Unlock()
	if parked == 0 {
		t.Fatal("no visit worker parked after the queries")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	waitGoroutines(t, before)
}

// heldSource serves each shard by an exact host scan of its rows. The
// first visit to shard 0 signals entered and blocks until hold closes.
type heldSource struct {
	shards  []*vec.Matrix
	offsets []int
	entered chan struct{}
	hold    chan struct{}
	held    atomic.Bool

	mu      sync.Mutex
	visited [][]float64 // the query of every visit that ran
}

func newHeldSource(data *vec.Matrix, n int) *heldSource {
	s := &heldSource{entered: make(chan struct{}), hold: make(chan struct{})}
	starts := route.EvenSplit(data.N, n)
	for i := range n {
		s.shards = append(s.shards, data.Slice(starts[i], starts[i+1]))
		s.offsets = append(s.offsets, starts[i])
	}
	return s
}

func (s *heldSource) NumShards() int     { return len(s.shards) }
func (s *heldSource) Available(int) bool { return true }
func (s *heldSource) Degraded() []int    { return nil }
func (s *heldSource) ran(q []float64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, v := range s.visited {
		if &v[0] == &q[0] {
			return true
		}
	}
	return false
}

func (s *heldSource) Visit(_ context.Context, shard int, q []float64, k int, _ float64) (ShardAnswer, error) {
	s.mu.Lock()
	s.visited = append(s.visited, q)
	s.mu.Unlock()
	if shard == 0 && s.held.CompareAndSwap(false, true) {
		close(s.entered)
		<-s.hold
	}
	m := arch.NewMeter()
	nn := knn.NewStandard(s.shards[shard]).Search(q, k, m)
	for i := range nn {
		nn[i].Index += s.offsets[shard]
	}
	return ShardAnswer{Neighbors: nn, Meter: m}, nil
}

// TestFanOutNoHeadOfLineBlocking: while one query's visit to shard 0 is
// held, a second query over every shard still returns its exact answer,
// a query whose ctx is cancelled before dispatch returns its cause and
// runs no visit, and once the hold is released the first query completes
// exactly and Close leaves no worker behind.
func TestFanOutNoHeadOfLineBlocking(t *testing.T) {
	// Not parallel: it counts the process's goroutines.
	const k = 5
	data, queries := testData(t, 400, 16, 3)
	want := oracle(data, queries, k)
	before := runtime.NumGoroutine()
	src := newHeldSource(data, 4)
	p := NewPipeline(src, data.D, nil, 1, nil)

	type outcome struct {
		res *Result
		err error
	}
	first := make(chan outcome, 1)
	go func() {
		r, err := p.Search(context.Background(), queries.Row(0), k, route.ModeAuto)
		first <- outcome{r, err}
	}()
	<-src.entered

	r, err := p.Search(context.Background(), queries.Row(1), k, route.ModeAuto)
	if err != nil {
		t.Fatalf("second query: %v", err)
	}
	assertExact(t, "second query", r.Neighbors, want[1])

	gone := errors.New("client gone")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(gone)
	if _, err := p.Search(ctx, queries.Row(2), k, route.ModeAuto); !errors.Is(err, gone) {
		t.Fatalf("cancelled query: err = %v, want %v", err, gone)
	}
	if src.ran(queries.Row(2)) {
		t.Fatal("cancelled query ran a shard visit")
	}

	close(src.hold)
	o := <-first
	if o.err != nil {
		t.Fatalf("held query: %v", o.err)
	}
	assertExact(t, "held query", o.res.Neighbors, want[0])
	p.Close()
	waitGoroutines(t, before)
}

// TestHeldSearcherVisitBlocksNoOtherVisit: while one query's visit to
// shard 0 is held inside that shard's own searcher (an Options.Factory
// searcher blocking on a channel), a second query over every shard —
// shard 0 included, through the same delta store and the same base —
// returns its exact answer; once the hold is released the first query
// completes exactly too. The deadline only turns a visit that waits for
// the held one into a failure instead of a hang.
func TestHeldSearcherVisitBlocksNoOtherVisit(t *testing.T) {
	const k = 5
	data, queries := testData(t, 400, 16, 2)
	want := oracle(data, queries, k)
	entered, hold := make(chan struct{}), make(chan struct{})
	var held atomic.Bool
	e, err := New(data, Options{Shards: 4, Workers: 2, Factory: func(m *vec.Matrix, id int) (knn.Searcher, error) {
		exact := knn.NewStandard(m)
		return knn.SearcherFunc("held", func(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
			if id == 0 && held.CompareAndSwap(false, true) {
				close(entered)
				<-hold
			}
			return exact.Search(q, k, meter)
		}), nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	release := sync.OnceFunc(func() { close(hold) })
	defer release()

	type outcome struct {
		res *Result
		err error
	}
	first := make(chan outcome, 1)
	go func() {
		r, err := e.Search(context.Background(), queries.Row(0), k)
		first <- outcome{r, err}
	}()
	<-entered

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	r, err := e.Search(ctx, queries.Row(1), k)
	if err != nil {
		t.Fatalf("second query while shard 0's first visit is held: %v", err)
	}
	assertExact(t, "second query", r.Neighbors, want[1])

	release()
	o := <-first
	if o.err != nil {
		t.Fatalf("held query: %v", o.err)
	}
	assertExact(t, "held query", o.res.Neighbors, want[0])
}
