package exp

import (
	"context"
	"fmt"
	"sort"
	"time"

	"pimmine/internal/dataset"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

func init() {
	register("ext-route", ExtRoute)
}

// routeClustered generates a clustered dataset with rows grouped by
// mixture component, so contiguous shards are content-local — the
// locality time- or key-partitioned ingest gives a deployment. (Interleaved
// rows give every contiguous shard the same bounding box and nothing can be
// pruned; route.NewEven's norm placement is the answer there.)
func routeClustered(n, d, clusters int, spread float64, seed int64) *vec.Matrix {
	prof := dataset.Profile{Name: "route-sweep", FullN: n, D: d, Clusters: clusters, Correlation: 0.4, Spread: spread}
	ds := dataset.Generate(prof, n, seed)
	m := vec.NewMatrix(n, d)
	i := 0
	for c := 0; c < clusters; c++ {
		for r := 0; r < n; r++ {
			if ds.Labels[r] == c {
				copy(m.Row(i), ds.X.Row(r))
				i++
			}
		}
	}
	return m
}

// ExtRoute sweeps the sketch-based shard-routing tier: for each shard
// count, the same query stream runs unrouted (full fan-out), with exact
// routing (admissible pruning, bit-identical results — verified on every
// run) and with approximate routing at the suite's recall target, both
// over the ingest's contiguous shards (route.New), and with exact routing
// over rows the router placed by norm (route.NewEven). The
// table reports shards visited per query, modeled work, wall-clock p95
// latency, and — for the approximate mode — the measured recall against
// the unrouted truth.
func ExtRoute(s *Suite) (*Table, error) {
	target := s.Recall
	if target <= 0 || target > 1 {
		return nil, fmt.Errorf("ext-route: recall target %v outside (0, 1]", target)
	}
	t := &Table{
		ID:     "ext-route",
		Title:  fmt.Sprintf("Sketch-based shard routing (clustered, k=10, recall target %.2f)", target),
		Header: []string{"Shards", "Mode", "Visited/query", "Work ms/query", "p95 ms", "Recall"},
	}
	const k = 10
	const clusters = 8
	n := s.ScaleN
	if n < 16*clusters {
		n = 16 * clusters
	}
	// Spread is set where clusters overlap at the edges: tight clusters
	// make exact pruning unbeatable, full overlap starves the sketches.
	// The overlapped-edge regime is where the approximate mode earns its
	// keep — admissible bounds cannot prune what geometrically overlaps,
	// but similarity mass still concentrates where the answers live.
	data := routeClustered(n, 64, clusters, 0.45, s.Seed)
	nq := 8 * s.Queries
	queries := vec.NewMatrix(nq, data.D)
	for i := 0; i < nq; i++ {
		copy(queries.Row(i), data.Row((i*131)%data.N))
	}

	maxShards := s.Shards
	if maxShards < 2 {
		maxShards = 2
	}
	for shards := 2; shards <= maxShards; shards *= 2 {
		// A light size prior: the sweep measures how far sketch mass alone
		// can carry routing; the default 0.3 hedge would force a near-full
		// fan-out at high recall targets regardless of the sketches.
		cfg := route.Config{Recall: target, SizePrior: 0.05, Seed: s.Seed}
		starts := route.EvenSplit(data.N, shards)
		parts := make([]*vec.Matrix, shards)
		for id := range parts {
			parts[id] = data.Slice(starts[id], starts[id+1])
		}
		r, err := route.New(cfg, parts)
		if err != nil {
			return nil, err
		}
		routed, err := serve.New(data, serve.Options{Shards: shards, Router: r, Obs: s.Obs})
		if err != nil {
			return nil, err
		}
		byNorm, err := route.NewEven(cfg, data, shards)
		if err != nil {
			return nil, err
		}
		placed, err := serve.New(data, serve.Options{Shards: shards, Router: byNorm})
		if err != nil {
			return nil, err
		}
		plain, err := serve.New(data, serve.Options{Shards: shards})
		if err != nil {
			return nil, err
		}

		// Unrouted truth (and its latency distribution). Exact modes are
		// verified bit-identical against it — ids and distances both.
		truth := make([][]vec.Neighbor, nq)
		run := func(search func(q []float64, k int) (*serve.Result, error), exact bool) (visited, workMs, p95ms, recall float64, err error) {
			durs := make([]float64, nq)
			var work, vis, rec float64
			for qi := 0; qi < nq; qi++ {
				start := time.Now()
				res, err := search(queries.Row(qi), k)
				if err != nil {
					return 0, 0, 0, 0, err
				}
				durs[qi] = float64(time.Since(start).Nanoseconds()) / 1e6
				work += s.modeledMs(res.Meter)
				if res.Routed != nil {
					vis += float64(res.Routed.Visited)
				} else {
					vis += float64(shards)
				}
				switch {
				case truth[qi] == nil:
					truth[qi] = res.Neighbors
					rec += 1
				case exact:
					for i := range truth[qi] {
						if res.Neighbors[i] != truth[qi][i] {
							return 0, 0, 0, 0, fmt.Errorf("query %d inexact at rank %d", qi, i)
						}
					}
					rec += 1
				default:
					rec += overlap(res.Neighbors, truth[qi])
				}
			}
			sort.Float64s(durs)
			return vis / float64(nq), work / float64(nq), durs[(nq*95)/100], rec / float64(nq), nil
		}

		type modeRun struct {
			name   string
			search func(q []float64, k int) (*serve.Result, error)
			exact  bool
		}
		ctx := context.Background()
		runs := []modeRun{
			{"unrouted", func(q []float64, k int) (*serve.Result, error) { return plain.Search(ctx, q, k) }, true},
			{"exact", func(q []float64, k int) (*serve.Result, error) {
				return routed.SearchMode(ctx, q, k, route.ModeExact)
			}, true},
			{"approx", func(q []float64, k int) (*serve.Result, error) {
				return routed.SearchMode(ctx, q, k, route.ModeApprox)
			}, false},
			{"exact (norm)", func(q []float64, k int) (*serve.Result, error) {
				return placed.SearchMode(ctx, q, k, route.ModeExact)
			}, true},
		}
		for _, mr := range runs {
			vis, work, p95, rec, err := run(mr.search, mr.exact)
			if err != nil {
				return nil, fmt.Errorf("ext-route: shards=%d %s: %w", shards, mr.name, err)
			}
			recCell := fmt.Sprintf("%.3f", rec)
			if mr.exact {
				recCell = "1.000 (exact)"
			}
			t.AddRow(
				fmt.Sprintf("%d", shards),
				mr.name,
				fmt.Sprintf("%.2f", vis),
				ms(work),
				fmt.Sprintf("%.3f", p95),
				recCell,
			)
		}
	}
	t.Note("rows grouped by cluster so contiguous shards are content-local; exact (norm) places the same rows by norm (route.NewEven) instead; exact routing is verified bit-identical to the unrouted fan-out on every query; approx recall is measured against the unrouted truth over %d queries", nq)
	return t, nil
}

// overlap is |got ∩ want| / |want| by row id.
func overlap(got, want []vec.Neighbor) float64 {
	if len(want) == 0 {
		return 1
	}
	ids := make(map[int]bool, len(got))
	for _, n := range got {
		ids[n.Index] = true
	}
	hit := 0
	for _, n := range want {
		if ids[n.Index] {
			hit++
		}
	}
	return float64(hit) / float64(len(want))
}
