package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// queryEngine is what the tests below ask of either serve engine.
type queryEngine interface {
	Search(ctx context.Context, q []float64, k int) (*Result, error)
}

// TestObservedEngineTraceTree runs an observed engine — static and
// mutable — with every query sampled and asserts the acceptance-criterion
// span tree: engine.search → shard → knn searcher → pim-dot / bound-eval
// → refine, and that the engine's query counter counts.
func TestObservedEngineTraceTree(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 200, 32, 4)
	fw := testFramework(t)
	want := oracle(data, queries, k)

	for _, name := range []string{"static", "mutable"} {
		o := obs.New(obs.Config{SampleRate: 1})
		opts := Options{Shards: 3, Variant: VariantFNNPIM, Framework: fw, CapacityN: data.N, Obs: o}
		var e queryEngine
		var err error
		if name == "static" {
			e, err = New(data, opts)
		} else {
			var me *MutableEngine
			if me, err = NewMutable(data, MutableOptions{Options: opts}); err == nil {
				defer me.Close()
			}
			e = me
		}
		if err != nil {
			t.Fatal(err)
		}
		for qi := 0; qi < queries.N; qi++ {
			res, err := e.Search(context.Background(), queries.Row(qi), k)
			if err != nil {
				t.Fatal(err)
			}
			assertExact(t, fmt.Sprintf("%s observed query %d", name, qi), res.Neighbors, want[qi])
		}

		traces := o.Tracer().Recent(0)
		if len(traces) != queries.N {
			t.Fatalf("%s: sampled %d traces, want %d", name, len(traces), queries.N)
		}
		tree := traces[0].Render()
		for _, want := range []string{
			"engine.search",
			"shard 0", "shard 1", "shard 2",
			"knn.FNN-PIM",
			"pim-dot",
			"bound-eval",
			"refine",
		} {
			if !strings.Contains(tree, want) {
				t.Errorf("%s: trace missing span %q:\n%s", name, want, tree)
			}
		}
		// Structural check: refine is nested under bound-eval, which is
		// under the searcher span, which is under a shard span.
		var shardDepth, searcherDepth, refineDepth int
		for _, line := range strings.Split(tree, "\n") {
			switch {
			case strings.Contains(line, "shard 0"):
				shardDepth = indentOf(line)
			case strings.Contains(line, "knn.FNN-PIM") && searcherDepth == 0:
				searcherDepth = indentOf(line)
			case strings.Contains(line, "refine") && refineDepth == 0:
				refineDepth = indentOf(line)
			}
		}
		if !(shardDepth < searcherDepth && searcherDepth < refineDepth) {
			t.Errorf("%s: span nesting wrong: shard@%d searcher@%d refine@%d\n%s",
				name, shardDepth, searcherDepth, refineDepth, tree)
		}
		var b strings.Builder
		if err := o.Registry().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("pim_serve_queries_total %d", queries.N); !strings.Contains(b.String(), want) {
			t.Errorf("%s: metrics missing %q:\n%s", name, want, b.String())
		}
	}
}

// TestRoutedTraceCarriesTau pins where wave 1's τ goes in a traced routed
// query: the routed annotation on engine.search carries it as tau, the one
// wave-1 shard's seed event reports no ceiling, and every wave-2 shard's
// seed event reports τ as its ceiling — the threshold its walk started at.
func TestRoutedTraceCarriesTau(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 400, 32, 16)
	r, err := route.NewEven(route.Config{}, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	o := obs.New(obs.Config{SampleRate: 1})
	e, err := New(data, Options{Shards: 4, Variant: VariantFNNPIM, Framework: testFramework(t), CapacityN: data.N, Router: r, Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	routed := regexp.MustCompile(`routed  \[mode=exact visited=(\d+) skipped=\d+ est_recall=1 tau=([^\]\s]+)\]`)
	ceilings := regexp.MustCompile(`─ seed  \[[^\]]* ceiling=([^\]\s]+) `)
	checked := 0
	for qi := 0; qi < queries.N; qi++ {
		res, err := e.Search(context.Background(), queries.Row(qi), k)
		if err != nil {
			t.Fatal(err)
		}
		tree := o.Tracer().Recent(1)[0].Render()
		m := routed.FindStringSubmatch(tree)
		if m == nil || m[1] != fmt.Sprint(res.Routed.Visited) {
			t.Fatalf("query %d: no routed annotation with tau for %+v:\n%s", qi, res.Routed, tree)
		}
		tau, err := strconv.ParseFloat(m[2], 64)
		if err != nil || tau < res.Neighbors[k-1].Dist {
			t.Fatalf("query %d: tau=%s below the answer's k-th distance %v", qi, m[2], res.Neighbors[k-1].Dist)
		}
		seen := ceilings.FindAllStringSubmatch(tree, -1)
		if len(seen) != res.Routed.Visited {
			t.Fatalf("query %d: %d seed events for %d shards visited:\n%s", qi, len(seen), res.Routed.Visited, tree)
		}
		uncapped := 0
		for _, c := range seen {
			switch c[1] {
			case "+Inf":
				uncapped++
			case m[2]:
			default:
				t.Fatalf("query %d: a shard walked under ceiling=%s, routed tau=%s:\n%s", qi, c[1], m[2], tree)
			}
		}
		if uncapped != 1 {
			t.Fatalf("query %d: %d uncapped walks, want wave 1's alone:\n%s", qi, uncapped, tree)
		}
		if res.Routed.Visited > 1 {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no query reached wave 2: nothing walked under a ceiling")
	}
}

// indentOf measures a rendered trace line's tree depth in prefix bytes.
func indentOf(line string) int {
	for i, r := range line {
		switch r {
		case ' ', '│', '├', '└', '─':
		default:
			return i
		}
	}
	return len(line)
}

// TestObservedEngineMetricsEndpoint scrapes /metrics after a batch and
// asserts the acceptance-criterion series are present in valid Prometheus
// text format.
func TestObservedEngineMetricsEndpoint(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 200, 32, 8)
	fw := testFramework(t)

	o := obs.New(obs.Config{SampleRate: 2})
	e, err := New(data, Options{
		Shards: 2, Variant: VariantFNNPIM, Framework: fw, CapacityN: data.N, Obs: o,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SearchBatch(context.Background(), queries, k); err != nil {
		t.Fatal(err)
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	o.Handler().ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		fmt.Sprintf("pim_serve_queries_total %d", queries.N),
		fmt.Sprintf(`pim_serve_shard_queries_total{shard="0"} %d`, queries.N),
		fmt.Sprintf(`pim_serve_shard_queries_total{shard="1"} %d`, queries.N),
		"# TYPE pim_serve_query_latency_seconds histogram",
		"pim_serve_query_latency_seconds_bucket",
		fmt.Sprintf("pim_serve_query_latency_seconds_count %d", queries.N),
		"pim_faults_total 0",
		"pim_recovered_total 0",
		"pim_serve_shards 2",
		"pim_serve_inflight_queries 0",
		`pim_meter_calls_total{func=`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full /metrics body:\n%s", out)
	}
}

// TestMeterRaceWithBatch is the satellite regression test: Engine.Meter()
// merges per-shard cumulative meters and must lock each shard while a
// concurrent SearchBatch mutates them. Run under -race this test is the
// judge; it also checks the merged totals are monotone.
func TestMeterRaceWithBatch(t *testing.T) {
	t.Parallel()
	const k = 5
	data, queries := testData(t, 180, 32, 12)
	fw := testFramework(t)
	e, err := New(data, Options{Shards: 3, Variant: VariantFNNPIM, Framework: fw, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: hammer Meter() until the batches finish
		defer wg.Done()
		var lastOps int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			tot := e.Meter().Total()
			if tot.Ops < lastOps {
				t.Error("merged meter went backwards")
				return
			}
			lastOps = tot.Ops
		}
	}()
	for b := 0; b < 4; b++ {
		if _, err := e.SearchBatch(context.Background(), queries, k); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestBatchQueryTimeout asserts a per-query deadline surfaces as
// context.DeadlineExceeded through SearchBatch, not just Search.
func TestBatchQueryTimeout(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 4)
	slow, err := New(data, Options{
		Shards:       2,
		Workers:      2,
		QueryTimeout: 5 * time.Millisecond,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return &slowSearcher{inner: knn.NewStandard(m), delay: 200 * time.Millisecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = slow.SearchBatch(context.Background(), queries, 3)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch with slow shards: err = %v, want DeadlineExceeded", err)
	}
}

// TestObservedDeadlineErrorCounted checks failed queries increment the
// error counter and the in-flight gauge drains back to zero.
func TestObservedDeadlineErrorCounted(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 100, 16, 1)
	o := obs.New(obs.Config{SampleRate: 1})
	slow, err := New(data, Options{
		Shards:       2,
		QueryTimeout: 5 * time.Millisecond,
		Obs:          o,
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return &slowSearcher{inner: knn.NewStandard(m), delay: 100 * time.Millisecond}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slow.Search(context.Background(), queries.Row(0), 3); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"pim_serve_query_errors_total 1",
		"pim_serve_inflight_queries 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// benchEngine builds an engine over a fixed workload for the overhead
// benchmarks.
func benchEngine(b *testing.B, o *obs.Observer) (*Engine, *vec.Matrix) {
	b.Helper()
	data, queries := testData(b, 400, 64, 16)
	fw := testFramework(b)
	e, err := New(data, Options{
		Shards: 4, Variant: VariantFNNPIM, Framework: fw, CapacityN: data.N, Workers: 4, Obs: o,
	})
	if err != nil {
		b.Fatal(err)
	}
	return e, queries
}

// BenchmarkServeBatch and BenchmarkServeBatchObserved measure the
// acceptance criterion that registry overhead stays within a few percent:
//
//	go test ./internal/serve -run=NONE -bench='ServeBatch' -benchtime=2s
func BenchmarkServeBatch(b *testing.B) {
	e, queries := benchEngine(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SearchBatch(context.Background(), queries, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkServeBatchObserved(b *testing.B) {
	// SampleRate 64 models production tracing; metrics hit on every query.
	e, queries := benchEngine(b, obs.New(obs.Config{SampleRate: 64}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SearchBatch(context.Background(), queries, 10); err != nil {
			b.Fatal(err)
		}
	}
}
