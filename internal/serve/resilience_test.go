package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/resilience"
	"pimmine/internal/vec"
)

// flakySearcher wraps an exact searcher and, while `faulty` is set,
// reports PIM faults on the meter the way internal/fault's corrected-dot
// path does (results stay exact — correction preserves exactness; only
// the fault counters tell the resilience layer the hardware is sick).
// calls counts how often the PIM path actually ran.
type flakySearcher struct {
	inner  knn.Searcher
	faulty atomic.Bool
	calls  atomic.Int64
}

func (s *flakySearcher) Name() string { return "flaky-" + s.inner.Name() }

func (s *flakySearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	s.calls.Add(1)
	if s.faulty.Load() {
		m.C("pim-dot").PIMFaults++
	}
	return s.inner.Search(q, k, m)
}

// TestAdmissionControlRejectsTyped saturates a MaxConcurrent=1,
// MaxQueue=0 engine and checks the second concurrent query is refused
// with resilience.ErrOverloaded — quickly, without waiting out the slow
// in-flight query — and that the engine serves normally again afterward.
func TestAdmissionControlRejectsTyped(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 60, 16, 2)
	const delay = 100 * time.Millisecond
	e, err := New(data, Options{
		Shards: 1,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return &slowSearcher{inner: knn.NewStandard(m), delay: delay}, nil
		},
		Resilience: &resilience.Config{MaxConcurrent: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan struct{})
	firstDone := make(chan error, 1)
	go func() {
		close(started)
		_, err := e.Search(context.Background(), queries.Row(0), 3)
		firstDone <- err
	}()
	<-started
	// Wait until the first query actually holds the admission slot.
	deadline := time.Now().Add(delay)
	for e.res.lim.InFlight() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first query never acquired the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	rejectStart := time.Now()
	_, err = e.Search(context.Background(), queries.Row(1), 3)
	if !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("saturated engine returned %v, want ErrOverloaded", err)
	}
	if errors.Is(err, resilience.ErrShedDeadline) || errors.Is(err, resilience.ErrCircuitOpen) {
		t.Fatalf("overload error matched a sibling sentinel: %v", err)
	}
	if waited := time.Since(rejectStart); waited > delay/2 {
		t.Fatalf("rejection took %s — it queued instead of failing fast", waited)
	}
	if err := <-firstDone; err != nil {
		t.Fatalf("admitted query failed: %v", err)
	}
	// Slot released: the engine serves again.
	if _, err := e.Search(context.Background(), queries.Row(1), 3); err != nil {
		t.Fatalf("post-overload query failed: %v", err)
	}
}

// TestAdmissionQueueAdmitsWaiters: with MaxQueue=1 a second query waits
// for the slot (and succeeds) while a third is refused.
func TestAdmissionQueueAdmitsWaiters(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 60, 16, 3)
	block := make(chan struct{})
	var once sync.Once
	e, err := New(data, Options{
		Shards: 1,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			inner := knn.NewStandard(m)
			return knn.SearcherFunc("gated", func(q []float64, k int, mm *arch.Meter) []vec.Neighbor {
				once.Do(func() { <-block }) // only the first query blocks
				return inner.Search(q, k, mm)
			}), nil
		},
		Resilience: &resilience.Config{MaxConcurrent: 1, MaxQueue: 1},
	})
	if err != nil {
		t.Fatal(err)
	}

	results := make(chan error, 2)
	go func() { _, err := e.Search(context.Background(), queries.Row(0), 3); results <- err }()
	// Wait for query 1 to hold the slot, then enqueue query 2.
	for e.res.lim.InFlight() == 0 {
		time.Sleep(time.Millisecond)
	}
	go func() { _, err := e.Search(context.Background(), queries.Row(1), 3); results <- err }()
	for e.res.lim.Queued() == 0 {
		time.Sleep(time.Millisecond)
	}
	// Queue full: query 3 is refused immediately.
	if _, err := e.Search(context.Background(), queries.Row(2), 3); !errors.Is(err, resilience.ErrOverloaded) {
		t.Fatalf("third query got %v, want ErrOverloaded", err)
	}
	close(block)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted query %d failed: %v", i, err)
		}
	}
}

// TestShedDeadlineTyped warms the shedder's latency view with slow
// queries, then checks a query arriving with a doomed deadline is shed
// with resilience.ErrShedDeadline before any shard work happens, while a
// roomy deadline still serves.
func TestShedDeadlineTyped(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 60, 16, 2)
	fs := &flakySearcher{}
	e, err := New(data, Options{
		Shards: 1,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			fs.inner = &slowSearcher{inner: knn.NewStandard(m), delay: 20 * time.Millisecond}
			return fs, nil
		},
		Resilience: &resilience.Config{ShedFactor: 1, MinShedSamples: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := e.Search(context.Background(), queries.Row(0), 3); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	p95, n := e.res.shed.P95()
	if n < 4 || p95 < 20*time.Millisecond {
		t.Fatalf("shedder saw p95=%s over %d samples after warm-up", p95, n)
	}

	calls := fs.calls.Load()
	doomed, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err = e.Search(doomed, queries.Row(1), 3)
	if !errors.Is(err, resilience.ErrShedDeadline) {
		t.Fatalf("doomed query got %v, want ErrShedDeadline", err)
	}
	if errors.Is(err, resilience.ErrOverloaded) || errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("shed error matched a sibling sentinel: %v", err)
	}
	if got := fs.calls.Load(); got != calls {
		t.Fatal("shed query still reached the shard searcher")
	}
	roomy, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	if _, err := e.Search(roomy, queries.Row(1), 3); err != nil {
		t.Fatalf("roomy query shed: %v", err)
	}
}

// TestQueryTimeoutTypedErrorChain: the engine-applied QueryTimeout
// surfaces as ErrQueryTimeout AND still matches
// context.DeadlineExceeded, while a caller-imposed deadline matches only
// the latter — so callers can tell whose deadline fired.
func TestQueryTimeoutTypedErrorChain(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 60, 16, 1)
	slowFactory := func(m *vec.Matrix, _ int) (knn.Searcher, error) {
		return &slowSearcher{inner: knn.NewStandard(m), delay: 200 * time.Millisecond}, nil
	}

	engineTO, err := New(data, Options{Shards: 1, QueryTimeout: 2 * time.Millisecond, Factory: slowFactory})
	if err != nil {
		t.Fatal(err)
	}
	_, err = engineTO.Search(context.Background(), queries.Row(0), 3)
	if !errors.Is(err, ErrQueryTimeout) {
		t.Fatalf("engine timeout returned %v, want ErrQueryTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ErrQueryTimeout must keep matching context.DeadlineExceeded, got %v", err)
	}

	noTO, err := New(data, Options{Shards: 1, Factory: slowFactory})
	if err != nil {
		t.Fatal(err)
	}
	callerCtx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = noTO.Search(callerCtx, queries.Row(0), 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("caller deadline returned %v", err)
	}
	if errors.Is(err, ErrQueryTimeout) {
		t.Fatal("caller deadline must not masquerade as the engine's QueryTimeout")
	}
}

// TestResilienceSentinelsDistinct: no typed rejection of the serving
// pipeline matches another under errors.Is, so a caller can tell them
// apart.
func TestResilienceSentinelsDistinct(t *testing.T) {
	sentinels := []error{
		resilience.ErrOverloaded, resilience.ErrShedDeadline, resilience.ErrCircuitOpen,
		resilience.ErrQuotaExceeded, ErrQueryTimeout, ErrClosed,
	}
	for i, a := range sentinels {
		for j, b := range sentinels {
			if i != j && errors.Is(a, b) {
				t.Fatalf("sentinel %v matches sentinel %v", a, b)
			}
		}
	}
}

// TestDefaultResilienceServes: with every knob of resilience.Default on,
// unhurried traffic is neither rejected nor shed, and single queries and
// a batch return the oracle's answers.
func TestDefaultResilienceServes(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 120, 16, 4)
	cfg := resilience.Default(4)
	e, err := New(data, Options{Shards: 2, Workers: 4, Resilience: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	want := oracle(data, queries, k)
	for qi := 0; qi < queries.N; qi++ {
		res, err := e.Search(context.Background(), queries.Row(qi), k)
		if err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
		assertExact(t, fmt.Sprintf("query %d", qi), res.Neighbors, want[qi])
	}
	batch, err := e.SearchBatch(context.Background(), queries, k)
	if err != nil {
		t.Fatalf("batch under default resilience: %v", err)
	}
	if len(batch.Results) != queries.N {
		t.Fatalf("batch returned %d results for %d queries", len(batch.Results), queries.N)
	}
	for qi, res := range batch.Results {
		assertExact(t, fmt.Sprintf("batch query %d", qi), res.Neighbors, want[qi])
	}
}

// liveOracle is oracle over a mutable engine's live rows, answering in
// global ids.
func liveOracle(e *MutableEngine, queries *vec.Matrix, k int) [][]vec.Neighbor {
	live, ids := e.Materialize()
	out := oracle(live, queries, k)
	for _, nn := range out {
		for i := range nn {
			nn[i].Index = ids[nn[i].Index]
		}
	}
	return out
}

// TestBreakerTripsToHostAndRecovers drives one shard through the full
// breaker arc, on the static engine and on the mutable one: a fault storm
// trips it after FailureThreshold consecutive failures, open-state
// queries serve the exact host scan (the PIM searcher is not called,
// Result.BreakerOpen reports the shard, answers match the oracle — on the
// mutable engine through a live delta and tombstones), and once the storm
// passes a half-open probe re-admits PIM traffic and closes the breaker.
func TestBreakerTripsToHostAndRecovers(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 80, 16, 4)
	cfg := resilience.Config{
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, CoolDown: 20 * time.Millisecond, HalfOpenProbes: 1},
	}
	for _, mutable := range []bool{false, true} {
		fs := &flakySearcher{}
		opts := Options{
			Shards: 1,
			Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
				fs.inner = knn.NewStandard(m)
				return fs, nil
			},
			Resilience: &cfg,
		}
		want := oracle(data, queries, k)
		var e queryEngine
		var states func() []resilience.State
		var trips func() int64
		var churn func() // mutates a mutable engine's live rows; want follows
		if mutable {
			me, err := NewMutable(data, MutableOptions{Options: opts, MaxDelta: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer me.Close()
			e, states, trips = me, me.src.breakers.States, me.src.breakers.Trips
			churn = func() {
				for qi := 0; qi < queries.N; qi++ { // a delta row near every query
					if _, err := me.Insert(queries.Row(qi)); err != nil {
						t.Fatal(err)
					}
				}
				dead := map[int]bool{}
				for _, nn := range want {
					dead[nn[0].Index] = true
				}
				for id := range dead { // tombstones over the queries' best base rows
					if err := me.Delete(id); err != nil {
						t.Fatal(err)
					}
				}
				for id := 0; ; id++ {
					if !dead[id] {
						if err := me.Update(id, queries.Row(1)); err != nil {
							t.Fatal(err)
						}
						break
					}
				}
				want = liveOracle(me, queries, k)
			}
		} else {
			se, err := New(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			e, states, trips, churn = se, se.BreakerStates, se.BreakerTrips, func() {}
		}
		name := map[bool]string{false: "static", true: "mutable"}[mutable]

		// Fault storm: two failing queries trip the breaker (no retry
		// budget configured, so each failure is final).
		fs.faulty.Store(true)
		for i := 0; i < 2; i++ {
			res, err := e.Search(context.Background(), queries.Row(0), k)
			if err != nil {
				t.Fatalf("%s: faulty query %d errored: %v — faults must degrade, not fail", name, i, err)
			}
			assertExact(t, fmt.Sprintf("%s faulty query %d", name, i), res.Neighbors, want[0])
			if len(res.BreakerOpen) != 0 {
				t.Fatalf("%s: breaker reported open before tripping: %v", name, res.BreakerOpen)
			}
		}
		if got := states()[0]; got != resilience.StateOpen {
			t.Fatalf("%s: breaker state after storm = %v, want open", name, got)
		}
		if got := trips(); got != 1 {
			t.Fatalf("%s: trips = %d, want 1", name, got)
		}

		// Open: the host scan serves; the PIM searcher must not be touched.
		churn()
		pimCalls := fs.calls.Load()
		for qi := 0; qi < 3; qi++ {
			res, err := e.Search(context.Background(), queries.Row(qi), k)
			if err != nil {
				t.Fatalf("%s: open-breaker query %d: %v", name, qi, err)
			}
			assertExact(t, fmt.Sprintf("%s open-breaker query %d", name, qi), res.Neighbors, want[qi])
			if len(res.BreakerOpen) != 1 || res.BreakerOpen[0] != 0 {
				t.Fatalf("%s: query %d BreakerOpen = %v, want [0]", name, qi, res.BreakerOpen)
			}
		}
		if fs.calls.Load() != pimCalls {
			t.Fatalf("%s: open breaker still sent traffic to the PIM searcher", name)
		}

		// Storm over + cool-down elapsed: a probe succeeds and closes it.
		fs.faulty.Store(false)
		time.Sleep(cfg.Breaker.CoolDown + 5*time.Millisecond)
		res, err := e.Search(context.Background(), queries.Row(3), k)
		if err != nil {
			t.Fatalf("%s: probe query: %v", name, err)
		}
		assertExact(t, name+" probe query", res.Neighbors, want[3])
		if len(res.BreakerOpen) != 0 {
			t.Fatalf("%s: recovered query still reports BreakerOpen %v", name, res.BreakerOpen)
		}
		if got := states()[0]; got != resilience.StateClosed {
			t.Fatalf("%s: breaker state after recovery = %v, want closed", name, got)
		}
		if fs.calls.Load() == pimCalls {
			t.Fatalf("%s: recovered breaker never re-admitted PIM traffic", name)
		}
	}
}

// TestRetryBudgetRetriesTransient: a searcher that faults exactly once
// gets a second attempt from the retry budget; the query succeeds, the
// meter carries both attempts' work, and no breaker trip is recorded.
func TestRetryBudgetRetriesTransient(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 80, 16, 1)
	want := oracle(data, queries, k)
	var calls atomic.Int64
	e, err := New(data, Options{
		Shards: 1,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			inner := knn.NewStandard(m)
			return knn.SearcherFunc("fault-once", func(q []float64, kk int, mm *arch.Meter) []vec.Neighbor {
				if calls.Add(1) == 1 {
					mm.C("pim-dot").PIMFaults++ // transient: first attempt only
				}
				return inner.Search(q, kk, mm)
			}), nil
		},
		Resilience: &resilience.Config{
			Breaker: resilience.BreakerConfig{FailureThreshold: 3, CoolDown: time.Second, HalfOpenProbes: 1},
			Retry:   resilience.RetryConfig{Ratio: 0.1, Burst: 4, BaseBackoff: 100 * time.Microsecond, MaxBackoff: time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search(context.Background(), queries.Row(0), k)
	if err != nil {
		t.Fatalf("retried query failed: %v", err)
	}
	assertExact(t, "retried query", res.Neighbors, want[0])
	if got := calls.Load(); got != 2 {
		t.Fatalf("searcher ran %d times, want 2 (attempt + retry)", got)
	}
	// Both attempts' activity is accounted (the retry really did re-scan).
	if got := res.Meter.Total().PIMFaults; got != 1 {
		t.Fatalf("meter faults = %d, want 1 (first attempt's)", got)
	}
	if got := e.BreakerTrips(); got != 0 {
		t.Fatalf("trips = %d after a recovered transient, want 0", got)
	}
	// Dead-crossbar recoveries are permanent failures: no retry is spent.
	calls.Store(10) // any value ≠ 0: the fault-once branch stays off
	before := e.res.retry.Tokens()
	e2, err := New(data, Options{
		Shards: 1,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			inner := knn.NewStandard(m)
			return knn.SearcherFunc("dead-xbar", func(q []float64, kk int, mm *arch.Meter) []vec.Neighbor {
				mm.C("pim-dot").PIMRecovered++
				return inner.Search(q, kk, mm)
			}), nil
		},
		Resilience: &resilience.Config{
			Retry: resilience.RetryConfig{Ratio: 0.1, Burst: 4},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Search(context.Background(), queries.Row(0), k); err != nil {
		t.Fatal(err)
	}
	if got := e2.res.retry.Tokens(); got != 4 {
		t.Fatalf("permanent failure spent retry tokens: %v of 4 left", got)
	}
	_ = before
}

// TestOverloadGoodputProperty pins what admission control buys under
// overload: at 4× the admission capacity, every admitted query completes
// exactly (goodput = capacity, ≥80% of peak by construction) and every
// excess query fails fast with the typed rejection — no query hangs, no
// query returns inexact results, no untyped error escapes.
func TestOverloadGoodputProperty(t *testing.T) {
	t.Parallel()
	const (
		k      = 3
		cap    = 2 // MaxConcurrent
		queue  = 1
		burst  = 4 * cap // offered concurrently
		expect = cap + queue
	)
	data, queries := testData(t, 60, 16, 1)
	want := oracle(data, queries, k)
	gate := make(chan struct{})
	e, err := New(data, Options{
		Shards: 1,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			inner := knn.NewStandard(m)
			return knn.SearcherFunc("gated", func(q []float64, kk int, mm *arch.Meter) []vec.Neighbor {
				<-gate
				return inner.Search(q, kk, mm)
			}), nil
		},
		Resilience: &resilience.Config{MaxConcurrent: cap, MaxQueue: queue},
	})
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct{ err error }
	outs := make(chan outcome, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Search(context.Background(), queries.Row(0), k)
			if err == nil {
				for j := range want[0] {
					if res.Neighbors[j] != want[0][j] {
						err = errors.New("inexact result under overload")
					}
				}
			}
			outs <- outcome{err}
		}()
	}
	// Let the offered load settle: cap slots held, queue full, the rest
	// rejected (counts are deterministic; only the settling takes time —
	// a goroutine that has not yet offered its query when the gate opens
	// would be admitted, so the rejections are waited for too).
	deadline := time.Now().Add(2 * time.Second)
	for e.res.lim.InFlight() < cap || e.res.lim.Queued() < queue || len(outs) < burst-expect {
		if time.Now().After(deadline) {
			t.Fatalf("load never settled: inflight=%d queued=%d rejected=%d", e.res.lim.InFlight(), e.res.lim.Queued(), len(outs))
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)
	wg.Wait()
	close(outs)

	succ, rejected := 0, 0
	for o := range outs {
		switch {
		case o.err == nil:
			succ++
		case errors.Is(o.err, resilience.ErrOverloaded):
			rejected++
		default:
			t.Fatalf("untyped overload error: %v", o.err)
		}
	}
	if succ != expect || rejected != burst-expect {
		t.Fatalf("goodput=%d rejected=%d, want %d/%d", succ, rejected, expect, burst-expect)
	}
}

// TestResilienceRaceHammer runs concurrent searches against an engine
// with every resilience knob on while a storm goroutine flips faults on
// and off (tripping and recovering breakers) and a closer shuts the
// engine down mid-flight. The race detector judges; every error must be
// one of the typed outcomes and every success must be exact.
func TestResilienceRaceHammer(t *testing.T) {
	t.Parallel()
	const k = 4
	data, queries := testData(t, 120, 16, 6)
	want := oracle(data, queries, k)
	shards := 3
	flaky := make([]*flakySearcher, shards)
	cfg := resilience.Default(4)
	cfg.Breaker.CoolDown = 200 * time.Microsecond
	cfg.Breaker.FailureThreshold = 2
	cfg.ShedFactor = 1
	cfg.MinShedSamples = 8
	e, err := New(data, Options{
		Shards:       shards,
		QueryTimeout: time.Second,
		Factory: func(m *vec.Matrix, shardID int) (knn.Searcher, error) {
			flaky[shardID] = &flakySearcher{inner: knn.NewStandard(m)}
			return flaky[shardID], nil
		},
		Resilience: &cfg,
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Fault storm: flip shards in and out of fault injection.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			flaky[i%shards].faulty.Store(i%2 == 0)
			time.Sleep(50 * time.Microsecond)
		}
	}()
	// Query hammer.
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (g + i) % queries.N
				ctx := context.Background()
				if i%4 == 0 { // some callers bring their own deadlines
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+i%40)*time.Millisecond)
					defer cancel()
				}
				res, err := e.Search(ctx, queries.Row(qi), k)
				switch {
				case err == nil:
					for j := range want[qi] {
						if res.Neighbors[j] != want[qi][j] {
							t.Errorf("inexact result during storm (query %d)", qi)
							return
						}
					}
				case errors.Is(err, resilience.ErrOverloaded),
					errors.Is(err, resilience.ErrShedDeadline),
					errors.Is(err, context.DeadlineExceeded),
					errors.Is(err, context.Canceled),
					errors.Is(err, ErrClosed):
				default:
					t.Errorf("untyped error during storm: %v", err)
					return
				}
				_ = e.BreakerStates()
				_ = e.BreakerTrips()
			}
		}(g)
	}
	time.Sleep(50 * time.Millisecond)
	if err := e.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	close(stop)
	wg.Wait()
}

// TestMutableEngineResilience checks the mutable engine shares the same
// admission / shed / timeout pipeline.
func TestMutableEngineResilience(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 60, 16, 2)
	e, err := NewMutable(data, MutableOptions{
		Options: Options{
			Shards:       2,
			QueryTimeout: time.Minute,
			Resilience:   &resilience.Config{MaxConcurrent: 1, ShedFactor: 1, MinShedSamples: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 3; i++ {
		if _, err := e.Search(context.Background(), queries.Row(0), 3); err != nil {
			t.Fatalf("warm-up %d: %v", i, err)
		}
	}
	// Doomed deadline → typed shed.
	doomed, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	if _, err := e.Search(doomed, queries.Row(1), 3); !errors.Is(err, resilience.ErrShedDeadline) {
		t.Fatalf("mutable doomed query got %v, want ErrShedDeadline", err)
	}
	// Batch workers are clamped to MaxConcurrent, so a batch never
	// rejects its own jobs.
	if e.opts.Workers != 1 {
		t.Fatalf("workers = %d, want clamped to MaxConcurrent=1", e.opts.Workers)
	}
	if _, err := e.SearchBatch(context.Background(), queries, 3); err != nil {
		t.Fatalf("mutable batch under resilience: %v", err)
	}
}
