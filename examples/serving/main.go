// Serving: the sharded concurrent query engine.
//
// Partitions an MSD-like dataset across shards (one PIM array per
// shard), serves a concurrent batch of kNN queries with a bounded number
// in flight, verifies every answer is exactly the sequential linear
// scan's, and demonstrates per-query deadlines and the degraded-shard
// fallback.
//
//	go run ./examples/serving
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"strings"
	"time"

	"pimmine"
)

func main() {
	// 1. Data: a scaled-down synthetic MSD; Theorem 4 sizing still uses
	// the full-scale cardinality, split evenly across shards.
	prof, err := pimmine.DatasetByName("MSD")
	if err != nil {
		log.Fatal(err)
	}
	ds := pimmine.GenerateDataset(prof, 3000, 7)
	queries := ds.Queries(64, 8)
	fw, err := pimmine.NewFramework(pimmine.DefaultConfig(), pimmine.DefaultAlpha)
	if err != nil {
		log.Fatal(err)
	}

	// 2. The engine: 4 shards, an FNN-PIM searcher (own PIM array) per
	// shard, a per-query deadline, and at most Workers batch queries in
	// flight — observed: the Observer collects live metrics and traces
	// one query in eight.
	observer := pimmine.NewObserver(pimmine.ObserverConfig{SampleRate: 8})
	eng, err := pimmine.NewQueryEngine(ds.X, pimmine.QueryEngineOptions{
		Shards:       4,
		Variant:      pimmine.ServeFNNPIM,
		Framework:    fw,
		CapacityN:    prof.FullN,
		Workers:      4,
		QueryTimeout: 2 * time.Second,
		Obs:          observer,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("engine: %d shards of sizes %v, degraded=%v\n",
		eng.NumShards(), eng.ShardSizes(), eng.DegradedShards())

	// 3. Serve a concurrent batch and verify exactness per query.
	exact := pimmine.NewExactKNN(ds.X)
	start := time.Now()
	batch, err := eng.SearchBatch(context.Background(), queries, 10)
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	for qi := 0; qi < queries.N; qi++ {
		want := exact.Search(queries.Row(qi), 10, pimmine.NewMeter())
		got := batch.Results[qi].Neighbors
		for i := range want {
			if got[i] != want[i] {
				log.Fatalf("query %d neighbor %d: %v != %v", qi, i, got[i], want[i])
			}
		}
	}
	fmt.Printf("batch: %d queries in %v (%.0f qps), all exactly equal to the linear scan ✓\n",
		queries.N, wall.Round(time.Millisecond), float64(queries.N)/wall.Seconds())

	// 4. Modeled serving latency: shards answer in parallel, so a query
	// costs its slowest shard under the Table 5 model.
	cfg := pimmine.DefaultConfig()
	var latencyNs float64
	for _, r := range batch.Results {
		qMax := 0.0
		for _, m := range r.ShardMeters {
			if m == nil {
				continue
			}
			_, b := cfg.TimeMeter(m)
			if ns := b.Total(); ns > qMax {
				qMax = ns
			}
		}
		latencyNs += qMax
	}
	fmt.Printf("modeled latency: %.3f ms/query (slowest shard per query)\n",
		latencyNs/1e6/float64(queries.N))

	// 5. Cancellation: an expired context aborts cleanly.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.Search(canceled, queries.Row(0), 10); errors.Is(err, context.Canceled) {
		fmt.Println("cancellation: expired context rejected with context.Canceled ✓")
	} else {
		log.Fatalf("expected context.Canceled, got %v", err)
	}

	// 6. Graceful degradation: a factory that fails on one shard falls
	// back to the exact host scan there — answers stay exact.
	degEng, err := pimmine.NewQueryEngine(ds.X, pimmine.QueryEngineOptions{
		Shards: 3,
		Factory: func(shard *pimmine.Matrix, shardID int) (pimmine.KNNSearcher, error) {
			if shardID == 2 {
				return nil, errors.New("simulated shard hardware failure")
			}
			return pimmine.NewExactKNN(shard), nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := degEng.Search(context.Background(), queries.Row(0), 10)
	if err != nil {
		log.Fatal(err)
	}
	want := exact.Search(queries.Row(0), 10, pimmine.NewMeter())
	for i := range want {
		if res.Neighbors[i] != want[i] {
			log.Fatalf("degraded engine inexact at %d", i)
		}
	}
	fmt.Printf("degradation: shard(s) %v fell back to the host scan, results still exact ✓\n",
		res.Degraded)

	// 7. Observability: the registry holds everything the batch did —
	// Prometheus text for scrapers, and a sampled per-query trace showing
	// where each query's time went (shard fan-out → PIM dot → bounds →
	// refine). In a real deployment observer.Handler() would be mounted
	// on an HTTP listener (see `pimbench -metrics-addr`).
	fmt.Println("\nmetrics excerpt (/metrics):")
	var prom strings.Builder
	if err := observer.Registry().WritePrometheus(&prom); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(prom.String(), "\n") {
		if strings.HasPrefix(line, "pim_serve_queries_total") ||
			strings.HasPrefix(line, "pim_serve_shard_queries_total") ||
			strings.HasPrefix(line, "pim_faults_total") ||
			strings.HasPrefix(line, "pim_serve_query_latency_seconds_count") {
			fmt.Println("  " + line)
		}
	}
	// Pick the deepest recent trace (the newest one is the canceled
	// probe from step 5, which never reached a shard).
	var best string
	for _, tr := range observer.Tracer().Recent(8) {
		if r := tr.Render(); strings.Count(r, "\n") > strings.Count(best, "\n") {
			best = r
		}
	}
	if best != "" {
		fmt.Println("\nsampled query trace (/debug/traces):")
		fmt.Print(best)
	}
}
