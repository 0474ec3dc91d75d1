package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// pipelineEngine is the surface the three engines share; the tests below
// hold every engine to one behaviour through it.
type pipelineEngine interface {
	Search(ctx context.Context, q []float64, k int) (*serve.Result, error)
	SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (*serve.Result, error)
	SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*serve.BatchResult, error)
	Router() *route.Router
	Close() error
}

// slowSearcher dwells before every scan, pacing a shard visit the same
// way on every engine.
type slowSearcher struct {
	knn.Searcher
	dwell time.Duration
}

func (s slowSearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	time.Sleep(s.dwell)
	return s.Searcher.Search(q, k, m)
}

// threeEngines builds the static, mutable and cluster engines over the
// same data and shard split, each with its own router from the same
// config (nil cfg = unrouted), and every shard's searcher from one
// factory: an exact scan behind a slowSearcher that dwells for dwell.
func threeEngines(t *testing.T, data *vec.Matrix, shards, workers int, cfg *route.Config, dwell time.Duration) map[string]pipelineEngine {
	t.Helper()
	router := func() *route.Router {
		if cfg == nil {
			return nil
		}
		r, err := route.NewEven(*cfg, data, shards)
		if err != nil {
			t.Fatalf("route.NewEven: %v", err)
		}
		return r
	}
	slow := func(m *vec.Matrix, _ int) (knn.Searcher, error) {
		return slowSearcher{knn.NewStandard(m), dwell}, nil
	}
	sopts := func() serve.Options {
		return serve.Options{Shards: shards, Workers: workers, Router: router(), Factory: slow}
	}
	static, err := serve.New(data, sopts())
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	mutable, err := serve.NewMutable(data, serve.MutableOptions{Options: sopts()})
	if err != nil {
		t.Fatalf("serve.NewMutable: %v", err)
	}
	clu, err := New(data, Options{Nodes: 3, Replicas: 2, Shards: shards, Workers: workers,
		Router: router(), Factory: slow})
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	engines := map[string]pipelineEngine{"static": static, "mutable": mutable, "cluster": clu}
	t.Cleanup(func() {
		for _, e := range engines {
			e.Close()
		}
	})
	return engines
}

// TestThreeSourceDifferential pins that the three engines are one query
// path over three shard sources: the same data, router config and
// queries give bit-identical neighbors, equal RouteInfo and identically
// advancing router statistics, whichever engine serves them.
func TestThreeSourceDifferential(t *testing.T) {
	t.Parallel()
	const shards, d = 6, 12
	data := clusteredData(t, 360, d, shards, 21)
	shardRows := data.N / shards
	cases := []struct {
		name string
		cfg  *route.Config
		mode route.Mode
	}{
		{"unrouted", nil, route.ModeAuto},
		{"exact", &route.Config{Seed: 11}, route.ModeExact},
		{"approx", &route.Config{Seed: 11, Recall: 0.6}, route.ModeApprox},
		{"approx-audited", &route.Config{Seed: 11, Recall: 0.6, AuditEvery: 1}, route.ModeApprox},
	}
	ctx := context.Background()
	for _, tc := range cases {
		engines := threeEngines(t, data, shards, 2, tc.cfg, 0)
		static := engines["static"]
		skippedAny := false
		for _, k := range []int{1, 10, shardRows + 5} {
			for qi := 0; qi < 24; qi++ {
				q := data.Row(qi * 13 % data.N)
				want, err := static.SearchMode(ctx, q, k, tc.mode)
				if err != nil {
					t.Fatalf("%s static k=%d q%d: %v", tc.name, k, qi, err)
				}
				if want.Routed != nil && want.Routed.Skipped > 0 {
					skippedAny = true
				}
				for _, name := range []string{"mutable", "cluster"} {
					got, err := engines[name].SearchMode(ctx, q, k, tc.mode)
					if err != nil {
						t.Fatalf("%s %s k=%d q%d: %v", tc.name, name, k, qi, err)
					}
					if !sameNeighbors(got.Neighbors, want.Neighbors) {
						t.Fatalf("%s %s k=%d q%d: neighbors differ from static\n got %v\nwant %v",
							tc.name, name, k, qi, got.Neighbors, want.Neighbors)
					}
					if !reflect.DeepEqual(got.Routed, want.Routed) {
						t.Fatalf("%s %s k=%d q%d: RouteInfo differs from static\n got %+v\nwant %+v",
							tc.name, name, k, qi, got.Routed, want.Routed)
					}
				}
			}
		}
		if tc.cfg == nil {
			continue
		}
		if !skippedAny {
			t.Fatalf("%s: no query skipped a shard — the differential compared nothing routed", tc.name)
		}
		wantV, wantS := static.Router().Stats()
		for _, name := range []string{"mutable", "cluster"} {
			if v, s := engines[name].Router().Stats(); v != wantV || s != wantS {
				t.Fatalf("%s %s: Router.Stats() = (%d, %d), static has (%d, %d)", tc.name, name, v, s, wantV, wantS)
			}
		}
	}
}

// TestPipelineEdgeBehaviours pins the behaviours the engines used to
// disagree on: a nil ctx is context.Background(), and an empty batch is
// an empty result, not an error.
func TestPipelineEdgeBehaviours(t *testing.T) {
	t.Parallel()
	data := randMatrix(60, 6, 5)
	for name, eng := range threeEngines(t, data, 3, 2, nil, 0) {
		var nilCtx context.Context // the behaviour under test
		res, err := eng.Search(nilCtx, data.Row(0), 3)
		if err != nil || !sameNeighbors(res.Neighbors, exactTruth(data, data.Row(0), 3)) {
			t.Fatalf("%s: nil ctx: res %+v err %v", name, res, err)
		}
		br, err := eng.SearchBatch(context.Background(), vec.NewMatrix(0, 6), 3)
		if err != nil || br == nil || len(br.Results) != 0 || br.Meter == nil {
			t.Fatalf("%s: empty batch: got %+v, %v; want an empty BatchResult", name, br, err)
		}
	}
}

// TestCloseDuringBatch pins the per-query close lease: a Close arriving
// while a batch is in flight lets the running queries finish, fails the
// rest with ErrClosed, and returns — on every engine. (A batch-wide
// lease deadlocks instead: its workers queue behind the pending Close.)
func TestCloseDuringBatch(t *testing.T) {
	t.Parallel()
	data := randMatrix(400, 16, 7)
	queries := randMatrix(40, 16, 8)
	ctx := context.Background()
	engines := threeEngines(t, data, 4, 1, &route.Config{Seed: 3}, 2*time.Millisecond)
	for _, name := range []string{"static", "mutable", "cluster"} {
		eng := engines[name]
		batchErr := make(chan error, 1)
		go func() {
			_, err := eng.SearchBatch(ctx, queries, 3)
			batchErr <- err
		}()
		// Every routed query advances the router's counters: wait for
		// the first few to have been served.
		deadline := time.Now().Add(5 * time.Second)
		for v, _ := eng.Router().Stats(); v < 3; v, _ = eng.Router().Stats() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: batch served no query in 5 s", name)
			}
			time.Sleep(50 * time.Microsecond)
		}
		closeErr := make(chan error, 1)
		go func() { closeErr <- eng.Close() }()
		within5s := func(what string, ch chan error) error {
			select {
			case err := <-ch:
				return err
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %s did not return within 5 s of a mid-batch Close", name, what)
				return nil
			}
		}
		if err := within5s("SearchBatch", batchErr); err != nil && !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("%s: batch across a concurrent close: %v, want nil or ErrClosed", name, err)
		}
		if err := within5s("Close", closeErr); err != nil {
			t.Fatalf("%s: close during a batch: %v", name, err)
		}
		if _, err := eng.Search(ctx, queries.Row(0), 3); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("%s: search after close: %v, want ErrClosed", name, err)
		}
		if _, err := eng.SearchBatch(ctx, queries, 3); !errors.Is(err, serve.ErrClosed) {
			t.Fatalf("%s: batch after close: %v, want ErrClosed", name, err)
		}
	}
}
