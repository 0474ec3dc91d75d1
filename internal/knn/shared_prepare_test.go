package knn_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/cluster"
	"pimmine/internal/core"
	"pimmine/internal/knn"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// The tests below serve one query through every shard of an engine and
// hold the shards to one preparation of it: serve.Pipeline.Search hands
// every visit a knn.QueryContext, and each shard's cascade reads the
// query's features from its memo.

const (
	sharedShards = 4
	sharedK      = 5
)

// sharedData is the dataset and the queries the engines below serve:
// d = 64 gives LB_FNN three distinct granularities (1, 4 and 16).
func sharedData() (data, queries *vec.Matrix) {
	uniform := func(n int, seed int64) *vec.Matrix {
		rng := rand.New(rand.NewSource(seed))
		m := vec.NewMatrix(n, 64)
		for i := range m.Data {
			m.Data[i] = rng.Float64()
		}
		return m
	}
	return uniform(240, 1), uniform(12, 2)
}

func framework(t *testing.T, mode pim.Mode) *core.Framework {
	t.Helper()
	fw, err := core.New(arch.Default(), quant.DefaultAlpha, mode)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

// pimFNN builds an LB_PIM-FNN cascade over m on a fresh engine of fw.
func pimFNN(fw *core.Framework) func(*vec.Matrix) (*knn.Cascade, error) {
	return func(m *vec.Matrix) (*knn.Cascade, error) {
		eng, err := fw.NewEngine()
		if err != nil {
			return nil, err
		}
		return knn.NewFNNPIM(eng, m, fw.Quant, m.N)
	}
}

// privateQuery hands its cascade a copy of every query, so the cascade
// finds no memo made for that slice and prepares the query itself: what
// every shard visit did before the shards shared one memo.
type privateQuery struct{ *knn.Cascade }

func (p privateQuery) SearchCeiling(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter) []vec.Neighbor {
	return p.Cascade.SearchCeiling(ctx, slices.Clone(q), k, ceiling, meter)
}

// servedEngine is what the serve and cluster engines share here.
type servedEngine interface {
	Search(ctx context.Context, q []float64, k int) (*serve.Result, error)
	SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*serve.BatchResult, error)
	Close() error
}

// TestSharedPrepareMatchesPrivate: an engine whose shards read the query's
// features from one memo answers and meters every query exactly as one
// whose shards each prepare it privately — neighbours to the bit, every
// meter bucket of the query and of each shard — for host LB_FNN and for
// LB_PIM-FNN on an exact and a simulated array, on a serve engine routed
// and unrouted, through Search and SearchBatch, and on an R = 2 cluster.
func TestSharedPrepareMatchesPrivate(t *testing.T) {
	t.Parallel()
	data, queries := sharedData()
	cascades := []struct {
		name  string
		build func(*vec.Matrix) (*knn.Cascade, error)
	}{
		{"fnn", knn.NewFNN},
		{"fnn-pim/exact", pimFNN(framework(t, pim.ModeExact))},
		{"fnn-pim/simulate", pimFNN(framework(t, pim.ModeSimulate))},
	}
	ctx := context.Background()
	for _, c := range cascades {
		shared := func(m *vec.Matrix, _ int) (knn.Searcher, error) { return c.build(m) }
		private := func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			s, err := c.build(m)
			return privateQuery{s}, err
		}
		for _, routed := range []bool{false, true} {
			for _, onCluster := range []bool{false, true} {
				what := fmt.Sprintf("%s routed=%v cluster=%v", c.name, routed, onCluster)
				build := func(factory func(*vec.Matrix, int) (knn.Searcher, error)) servedEngine {
					var router *route.Router
					if routed {
						var err error
						if router, err = route.NewEven(route.Config{}, data, sharedShards); err != nil {
							t.Fatal(err)
						}
					}
					var e servedEngine
					var err error
					if onCluster {
						e, err = cluster.New(data, cluster.Options{Nodes: 3, Replicas: 2, Shards: sharedShards, Router: router, Factory: factory})
					} else {
						e, err = serve.New(data, serve.Options{Shards: sharedShards, Router: router, Factory: factory})
					}
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					t.Cleanup(func() { e.Close() })
					return e
				}
				a, b := build(shared), build(private)
				for qi := 0; qi < queries.N; qi++ {
					ra, err := a.Search(ctx, queries.Row(qi), sharedK)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					rb, err := b.Search(ctx, queries.Row(qi), sharedK)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					sameResult(t, fmt.Sprintf("%s query %d", what, qi), ra, rb)
				}
				ba, err := a.SearchBatch(ctx, queries, sharedK)
				if err != nil {
					t.Fatalf("%s: batch: %v", what, err)
				}
				bb, err := b.SearchBatch(ctx, queries, sharedK)
				if err != nil {
					t.Fatalf("%s: batch: %v", what, err)
				}
				for qi := range ba.Results {
					sameResult(t, fmt.Sprintf("%s batch query %d", what, qi), ba.Results[qi], bb.Results[qi])
				}
				sameMeter(t, what+" batch", ba.Meter, bb.Meter)
			}
		}
	}
}

func sameResult(t *testing.T, what string, got, want *serve.Result) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbours, want %d", what, len(got.Neighbors), len(want.Neighbors))
	}
	for i, w := range want.Neighbors {
		g := got.Neighbors[i]
		if g.Index != w.Index || math.Float64bits(g.Dist) != math.Float64bits(w.Dist) {
			t.Fatalf("%s: neighbour %d is %+v, want %+v", what, i, g, w)
		}
	}
	sameMeter(t, what, got.Meter, want.Meter)
	if len(got.ShardMeters) != len(want.ShardMeters) {
		t.Fatalf("%s: %d shard meters, want %d", what, len(got.ShardMeters), len(want.ShardMeters))
	}
	for s := range want.ShardMeters {
		if (got.ShardMeters[s] == nil) != (want.ShardMeters[s] == nil) {
			t.Fatalf("%s: shard %d visited on one side only", what, s)
		}
		if want.ShardMeters[s] != nil {
			sameMeter(t, fmt.Sprintf("%s shard %d", what, s), got.ShardMeters[s], want.ShardMeters[s])
		}
	}
}

func sameMeter(t *testing.T, what string, got, want *arch.Meter) {
	t.Helper()
	if !slices.Equal(got.Functions(), want.Functions()) {
		t.Fatalf("%s: meter buckets %v, want %v", what, got.Functions(), want.Functions())
	}
	for _, fn := range want.Functions() {
		if got.Get(fn) != want.Get(fn) {
			t.Fatalf("%s: bucket %s is %+v, want %+v", what, fn, got.Get(fn), want.Get(fn))
		}
	}
}

// TestQueryFeaturesComputedOncePerRequest counts the features a 4-shard
// engine computes: 3 a query — LB_FNN's three granularities, or
// LB_PIM-FNN's and the two host levels behind it — not 3 per shard visit.
func TestQueryFeaturesComputedOncePerRequest(t *testing.T) {
	// Not parallel: the count is process-wide.
	data, queries := sharedData()
	fw := framework(t, pim.ModeExact)
	for _, v := range []serve.Variant{serve.VariantFNN, serve.VariantFNNPIM} {
		eng, err := serve.New(data, serve.Options{Shards: sharedShards, Variant: v, Framework: fw})
		if err != nil {
			t.Fatal(err)
		}
		stop := knn.CountFeatures()
		var res []*serve.Result
		for qi := 0; qi < queries.N; qi++ {
			r, err := eng.Search(context.Background(), queries.Row(qi), sharedK)
			if err != nil {
				stop()
				t.Fatalf("%s: %v", v, err)
			}
			res = append(res, r)
		}
		n := stop()
		eng.Close()
		for _, r := range res {
			if len(r.Degraded) > 0 {
				t.Fatalf("%s: shards %v serve the host scan", v, r.Degraded)
			}
		}
		if want := int64(3 * queries.N); n != want {
			t.Fatalf("%s: %d features computed for %d queries on %d shards, want %d (3 a query)", v, n, queries.N, sharedShards, want)
		}
	}
}

// TestEngineSearchAllocs pins what one Search allocates, across every
// goroutine of its fan-out: the memo is pooled, carrying it is the
// context itself, and each visit runs on a parked worker as a frame sent
// by value, not on a new goroutine with a closure.
func TestEngineSearchAllocs(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's mallocs.
	if raceEnabled {
		t.Skip("the race detector drops pooled memos")
	}
	data, queries := sharedData()
	fw := framework(t, pim.ModeExact)
	for _, v := range []serve.Variant{serve.VariantFNN, serve.VariantFNNPIM} {
		for _, tc := range []struct {
			routed bool
			limit  float64
		}{{false, 54}, {true, 71}} {
			opts := serve.Options{Shards: sharedShards, Variant: v, Framework: fw, Workers: 1}
			if tc.routed {
				r, err := route.NewEven(route.Config{}, data, sharedShards)
				if err != nil {
					t.Fatal(err)
				}
				opts.Router = r
			}
			eng, err := serve.New(data, opts)
			if err != nil {
				t.Fatal(err)
			}
			ctx, qi := context.Background(), 0
			search := func() {
				if _, err := eng.Search(ctx, queries.Row(qi%queries.N), sharedK); err != nil {
					t.Fatal(err)
				}
				qi++
			}
			for range 2 * queries.N {
				search()
			}
			allocs := testing.AllocsPerRun(100, search)
			eng.Close()
			t.Logf("%s routed=%v: %v allocations a Search", v, tc.routed, allocs)
			if allocs > tc.limit {
				t.Errorf("%s routed=%v: Search allocates %v times, want at most %v", v, tc.routed, allocs, tc.limit)
			}
		}
	}
}

// TestClusterSearchAllocs is TestEngineSearchAllocs' cluster twin: one
// unrouted Search on an R = 2 cluster of 4 shards, host LB_FNN and
// LB_PIM-FNN on a simulated array, counted across every goroutine.
func TestClusterSearchAllocs(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's mallocs.
	if raceEnabled {
		t.Skip("the race detector drops pooled memos")
	}
	data, queries := sharedData()
	for _, c := range []struct {
		name  string
		build func(*vec.Matrix) (*knn.Cascade, error)
	}{
		{"fnn", knn.NewFNN},
		{"fnn-pim/simulate", pimFNN(framework(t, pim.ModeSimulate))},
	} {
		factory := func(m *vec.Matrix, _ int) (knn.Searcher, error) { return c.build(m) }
		eng, err := cluster.New(data, cluster.Options{Nodes: 3, Replicas: 2, Shards: sharedShards, Workers: 1, Factory: factory})
		if err != nil {
			t.Fatal(err)
		}
		ctx, qi := context.Background(), 0
		search := func() {
			if _, err := eng.Search(ctx, queries.Row(qi%queries.N), sharedK); err != nil {
				t.Fatal(err)
			}
			qi++
		}
		for range 2 * queries.N {
			search()
		}
		allocs := testing.AllocsPerRun(100, search)
		eng.Close()
		t.Logf("%s: %v allocations a Search", c.name, allocs)
		if allocs > 66 {
			t.Errorf("%s: cluster Search allocates %v times, want at most 66", c.name, allocs)
		}
	}
}
