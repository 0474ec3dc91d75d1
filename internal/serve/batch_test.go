package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/vec"
)

// searchProbe watches every search of a probeSearcher: how many ran, how
// many run at once and the peak, and (when onStart is non-nil) calls
// onStart as each one begins.
type searchProbe struct {
	delay                time.Duration
	onStart              func()
	searches, live, peak atomic.Int64
}

// factory builds each shard's searcher as an exact scan behind the probe.
func (p *searchProbe) factory(m *vec.Matrix, _ int) (knn.Searcher, error) {
	return &probeSearcher{inner: knn.NewStandard(m), probe: p}, nil
}

// probeSearcher sleeps probe.delay before each exact answer.
type probeSearcher struct {
	inner knn.Searcher
	probe *searchProbe
}

func (s *probeSearcher) Name() string { return "probe-" + s.inner.Name() }

func (s *probeSearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	p := s.probe
	p.searches.Add(1)
	n := p.live.Add(1)
	defer p.live.Add(-1)
	for peak := p.peak.Load(); n > peak && !p.peak.CompareAndSwap(peak, n); peak = p.peak.Load() {
	}
	if p.onStart != nil {
		p.onStart()
	}
	time.Sleep(p.delay)
	return s.inner.Search(q, k, m)
}

// probeEngine is a one-shard engine over data whose searches go through
// probe; opts sets everything else.
func probeEngine(t *testing.T, data *vec.Matrix, probe *searchProbe, opts Options) *Engine {
	t.Helper()
	opts.Shards, opts.Factory = 1, probe.factory
	e, err := New(data, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestBatchQueueDepthReturnsToZero: pim_serve_batch_queue_depth takes a
// batch in whole and lets each query out exactly once — claimed by a
// worker, or unclaimed after the workers stop — so it reads 0 after a
// batch that completes, one canceled mid-run and one whose queries time
// out, and never reads below 0 while they run.
func TestBatchQueueDepthReturnsToZero(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 6)
	for _, tc := range []struct {
		name    string
		workers int
		timeout time.Duration
		delay   time.Duration
		cancel  bool // cancel the batch once its first query starts
		wantErr error
	}{
		{name: "complete", workers: 2, delay: time.Millisecond},
		{name: "canceled", workers: 1, delay: 50 * time.Millisecond, cancel: true, wantErr: context.Canceled},
		{name: "query-timeout", workers: 2, timeout: 5 * time.Millisecond, delay: 100 * time.Millisecond, wantErr: context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			probe := &searchProbe{delay: tc.delay}
			e := probeEngine(t, data, probe, Options{Workers: tc.workers, QueryTimeout: tc.timeout, Obs: obs.New(obs.Config{})})
			depth := e.pipe.eobs.queueDepth
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			if tc.cancel {
				probe.onStart = cancel
			}
			stop := make(chan struct{})
			var low int64 // read after wg.Wait
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // sample the gauge while the batch runs
				defer wg.Done()
				for {
					low = min(low, depth.Value())
					select {
					case <-stop:
						return
					case <-time.After(50 * time.Microsecond):
					}
				}
			}()
			_, err := e.SearchBatch(ctx, queries, 3)
			close(stop)
			wg.Wait()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("batch err = %v, want %v", err, tc.wantErr)
			}
			if got := depth.Value(); got != 0 {
				t.Errorf("queue depth after the batch = %d, want 0", got)
			}
			if low < 0 {
				t.Errorf("queue depth read %d during the batch", low)
			}
		})
	}
}

// TestBatchQueueDepthCountsClaimedQueries: each query leaves the gauge as
// a worker claims it, before its search runs. With one worker the i-th
// search therefore sees N-1-i queries still waiting.
func TestBatchQueueDepthCountsClaimedQueries(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 8)
	probe := &searchProbe{}
	e := probeEngine(t, data, probe, Options{Workers: 1, Obs: obs.New(obs.Config{})})
	depth := e.pipe.eobs.queueDepth
	var mu sync.Mutex
	var seen []int64
	probe.onStart = func() {
		mu.Lock()
		seen = append(seen, depth.Value())
		mu.Unlock()
	}
	if _, err := e.SearchBatch(context.Background(), queries, 3); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != queries.N {
		t.Fatalf("%d searches for %d queries", len(seen), queries.N)
	}
	for i, d := range seen {
		if want := int64(queries.N - 1 - i); d != want {
			t.Fatalf("search %d saw queue depth %d, want %d (all reads: %v)", i, d, want, seen)
		}
	}
	if got := depth.Value(); got != 0 {
		t.Fatalf("queue depth after the batch = %d, want 0", got)
	}
}

// TestBatchQueueDepthDrainsFailedWorkers: a worker stops at its first
// failed query and claims no more, and the queries it leaves unclaimed
// still leave the gauge.
func TestBatchQueueDepthDrainsFailedWorkers(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 6)
	probe := &searchProbe{delay: 50 * time.Millisecond}
	e := probeEngine(t, data, probe, Options{Workers: 1, QueryTimeout: 5 * time.Millisecond, Obs: obs.New(obs.Config{})})
	_, err := e.SearchBatch(context.Background(), queries, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want DeadlineExceeded", err)
	}
	if !strings.Contains(err.Error(), "query 0:") {
		t.Fatalf("batch err = %v, want the worker's failure on query 0", err)
	}
	if n := probe.searches.Load(); n > 1 {
		t.Fatalf("%d searches after the worker's first failure, want at most 1", n)
	}
	if got := e.pipe.eobs.queueDepth.Value(); got != 0 {
		t.Fatalf("queue depth after the batch = %d, want 0", got)
	}
}

// TestBatchJoinsAllWorkerErrors: when every worker fails, the batch error
// joins each worker's first failure, each naming its own query.
func TestBatchJoinsAllWorkerErrors(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 6)
	probe := &searchProbe{delay: 100 * time.Millisecond}
	e := probeEngine(t, data, probe, Options{Workers: 2, QueryTimeout: 5 * time.Millisecond})
	_, err := e.SearchBatch(context.Background(), queries, 3)
	j, ok := err.(interface{ Unwrap() []error })
	if !ok || len(j.Unwrap()) != 2 {
		t.Fatalf("batch err = %v, want both workers' failures joined", err)
	}
	a, b := j.Unwrap()[0], j.Unwrap()[1]
	if !errors.Is(a, context.DeadlineExceeded) || !errors.Is(b, context.DeadlineExceeded) {
		t.Fatalf("joined failures %v and %v, want DeadlineExceeded each", a, b)
	}
	if a.Error() == b.Error() {
		t.Fatalf("both joined failures read %q, want one per query", a)
	}
}

// TestBatchCancellation: canceling the batch's ctx stops the workers
// claiming queries, and the batch returns context.Canceled.
func TestBatchCancellation(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 40)
	probe := &searchProbe{delay: 5 * time.Millisecond}
	e := probeEngine(t, data, probe, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	probe.onStart = cancel
	if _, err := e.SearchBatch(ctx, queries, 3); !errors.Is(err, context.Canceled) {
		t.Fatalf("batch err = %v, want context.Canceled", err)
	}
	if n := probe.searches.Load(); n >= int64(queries.N) {
		t.Fatalf("%d of %d queries searched: cancellation did not stop the batch", n, queries.N)
	}
}

// TestBatchDeadline: a batch whose ctx deadline passes mid-run returns
// context.DeadlineExceeded without searching the rest.
func TestBatchDeadline(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 200)
	probe := &searchProbe{delay: time.Millisecond}
	e := probeEngine(t, data, probe, Options{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if _, err := e.SearchBatch(ctx, queries, 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch err = %v, want DeadlineExceeded", err)
	}
	if n := probe.searches.Load(); n >= int64(queries.N) {
		t.Fatalf("%d of %d queries searched past the deadline", n, queries.N)
	}
}

// TestBatchEmptyAndClamped: an empty or nil batch returns an empty result
// and searches nothing, and more workers than queries still search each
// query exactly once.
func TestBatchEmptyAndClamped(t *testing.T) {
	t.Parallel()
	const k = 3
	data, queries := testData(t, 100, 16, 2)
	probe := &searchProbe{}
	e := probeEngine(t, data, probe, Options{Workers: 16})
	for _, q := range []*vec.Matrix{nil, vec.NewMatrix(0, data.D)} {
		res, err := e.SearchBatch(context.Background(), q, k)
		if err != nil || len(res.Results) != 0 {
			t.Fatalf("empty batch: %d results, err %v", len(res.Results), err)
		}
	}
	if n := probe.searches.Load(); n != 0 {
		t.Fatalf("empty batches ran %d searches", n)
	}
	res, err := e.SearchBatch(context.Background(), queries, k)
	if err != nil {
		t.Fatal(err)
	}
	if n := probe.searches.Load(); n != int64(queries.N) {
		t.Fatalf("%d searches for %d queries", n, queries.N)
	}
	for qi, want := range oracle(data, queries, k) {
		assertExact(t, fmt.Sprintf("batch query %d", qi), res.Results[qi].Neighbors, want)
	}
}

// TestBatchInFlightBound: a batch runs at most Workers queries at once
// (one shard, so one search a query), and still answers every row
// exactly, in query order.
func TestBatchInFlightBound(t *testing.T) {
	t.Parallel()
	const k, workers = 4, 2
	data, queries := testData(t, 120, 16, 10)
	probe := &searchProbe{delay: 2 * time.Millisecond}
	e := probeEngine(t, data, probe, Options{Workers: workers})
	res, err := e.SearchBatch(context.Background(), queries, k)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("peak searches in flight: %d", probe.peak.Load())
	if p := probe.peak.Load(); p > workers {
		t.Fatalf("%d queries in flight at once, Workers is %d", p, workers)
	}
	if n := probe.searches.Load(); n != int64(queries.N) {
		t.Fatalf("%d searches for %d queries, want each exactly once", n, queries.N)
	}
	if len(res.Results) != queries.N {
		t.Fatalf("%d results for %d queries", len(res.Results), queries.N)
	}
	for qi, want := range oracle(data, queries, k) {
		if res.Results[qi] == nil {
			t.Fatalf("query %d unanswered", qi)
		}
		assertExact(t, fmt.Sprintf("batch query %d", qi), res.Results[qi].Neighbors, want)
	}
}
