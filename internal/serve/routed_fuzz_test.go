package serve_test

import (
	"context"
	"math"
	"math/rand"
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

// FuzzRoutedExact holds exact routing over placed rows to the unrouted
// engine and to brute force, to the Float64bits, on all three engines: the
// static and mutable engines and the cluster each partition by their
// router's placement (route.Place splits on the norm), wave 2's FNN-PIM
// walks — lazy first stage and all — prune below wave 1's τ, and none of
// it may move an answer. The data repeats rows and reverses others, so
// distances tie across the k-th place and norms tie across shard
// boundaries; the rows sit on a 1/8 grid, so more of both tie. k is 1, a
// shard's size and more than every row.
func FuzzRoutedExact(f *testing.F) {
	f.Add(int64(1), uint8(40), uint8(3), uint8(3))
	f.Add(int64(7), uint8(6), uint8(0), uint8(5))
	f.Add(int64(42), uint8(47), uint8(5), uint8(0))
	f.Add(int64(-3), uint8(17), uint8(1), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, rows, dims, shards uint8) {
		n, d, s := int(rows%48)+6, int(dims%6)+2, int(shards%6)+1
		data := tiedRows(rand.New(rand.NewSource(seed)), n, d)
		ctx := context.Background()
		router := func() *route.Router {
			r, err := route.NewEven(route.Config{Seed: seed}, data, s)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		fw, err := core.New(arch.Default(), quant.DefaultAlpha, pim.ModeExact)
		if err != nil {
			t.Fatal(err)
		}
		fnnPIM := func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			eng, err := fw.NewEngine()
			if err != nil {
				return nil, err
			}
			return knn.NewFNNPIM(eng, m, fw.Quant, capacityN)
		}
		opts := func(r *route.Router) serve.Options {
			return serve.Options{Shards: s, Workers: 1, Variant: serve.VariantFNNPIM, Framework: fw, Router: r}
		}
		plain, err := serve.New(data, opts(nil))
		if err != nil {
			t.Fatal(err)
		}
		static, err := serve.New(data, opts(router()))
		if err != nil {
			t.Fatal(err)
		}
		mutable, err := serve.NewMutable(data, serve.MutableOptions{Options: opts(router())})
		if err != nil {
			t.Fatal(err)
		}
		clu, err := cluster.New(data, cluster.Options{Nodes: 2, Replicas: 1, Shards: s, Workers: 1,
			Router: router(), Factory: fnnPIM})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, c := range []interface{ Close() error }{plain, static, mutable, clu} {
				c.Close()
			}
		}()
		routed := map[string]func(q []float64, k int) (*serve.Result, error){
			"static":  func(q []float64, k int) (*serve.Result, error) { return static.SearchMode(ctx, q, k, route.ModeExact) },
			"mutable": func(q []float64, k int) (*serve.Result, error) { return mutable.SearchMode(ctx, q, k, route.ModeExact) },
			"cluster": func(q []float64, k int) (*serve.Result, error) { return clu.SearchMode(ctx, q, k, route.ModeExact) },
		}
		brute := knn.NewStandard(data)
		queries := [][]float64{data.Row(n / 2), tiedRows(rand.New(rand.NewSource(seed+1)), 1, d).Row(0), make([]float64, d)}
		for _, k := range []int{1, (n + s - 1) / s, n + 3} {
			for qi, q := range queries {
				truth := brute.Search(q, k, arch.NewMeter())
				res, err := plain.Search(ctx, q, k)
				if err != nil {
					t.Fatal(err)
				}
				sameBits(t, "unrouted", k, qi, res.Neighbors, truth)
				for name, search := range routed {
					res, err := search(q, k)
					if err != nil {
						t.Fatalf("%s k=%d query %d: %v", name, k, qi, err)
					}
					sameBits(t, name, k, qi, res.Neighbors, truth)
				}
			}
		}
	})
}

// tiedRows returns n rows of d dims on a 1/8 grid in [0, 1]: a third drawn
// at random, the rest copies and reversals of those (same norm, and for a
// copy the same distances).
func tiedRows(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	distinct := (n + 2) / 3
	for i := 0; i < n; i++ {
		row := m.Row(i)
		if i < distinct {
			for j := range row {
				row[j] = float64(rng.Intn(9)) / 8
			}
			continue
		}
		src := m.Row(rng.Intn(distinct))
		for j := range row {
			row[j] = src[j]
			if i%2 == 1 {
				row[j] = src[d-1-j]
			}
		}
	}
	return m
}

func sameBits(t *testing.T, engine string, k, qi int, got, want []vec.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s k=%d query %d: %d neighbours, brute force %d", engine, k, qi, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s k=%d query %d: neighbour %d is %+v, brute force %+v", engine, k, qi, i, got[i], want[i])
		}
	}
}
