package pimmine_test

import (
	"context"
	"strings"
	"testing"

	"pimmine"
)

// TestFacadeObservedEngine drives the observability surface end to end
// through the public facade: serving with QueryEngineOptions.Obs set,
// scraped metrics, and a rendered trace.
func TestFacadeObservedEngine(t *testing.T) {
	prof, err := pimmine.DatasetByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := pimmine.GenerateDataset(prof, 400, 11)
	queries := ds.Queries(6, 12)
	fw, err := pimmine.NewFramework(pimmine.DefaultConfig(), pimmine.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}

	o := pimmine.NewObserver(pimmine.ObserverConfig{SampleRate: 1})
	eng, err := pimmine.NewQueryEngine(ds.X, pimmine.QueryEngineOptions{
		Shards:    2,
		Variant:   pimmine.ServeFNNPIM,
		Framework: fw,
		CapacityN: prof.FullN,
		Obs:       o,
	})
	if err != nil {
		t.Fatal(err)
	}

	exact := pimmine.NewExactKNN(ds.X)
	for qi := 0; qi < queries.N; qi++ {
		res, err := eng.Search(context.Background(), queries.Row(qi), 5)
		if err != nil {
			t.Fatal(err)
		}
		want := exact.Search(queries.Row(qi), 5, pimmine.NewMeter())
		for i := range want {
			if res.Neighbors[i] != want[i] {
				t.Fatalf("observed engine inexact: query %d neighbor %d", qi, i)
			}
		}
	}

	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	metrics := b.String()
	for _, want := range []string{
		"pim_serve_queries_total 6",
		`pim_serve_shard_queries_total{shard="0"} 6`,
		"pim_serve_query_latency_seconds_count 6",
		"pim_faults_total 0",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("facade metrics missing %q", want)
		}
	}

	traces := o.Tracer().Recent(0)
	if len(traces) != queries.N {
		t.Fatalf("sampled %d traces, want %d", len(traces), queries.N)
	}
	tree := traces[0].Render()
	for _, want := range []string{"engine.search", "shard 0", "pim-dot", "bound-eval", "refine"} {
		if !strings.Contains(tree, want) {
			t.Errorf("facade trace missing %q:\n%s", want, tree)
		}
	}
}
