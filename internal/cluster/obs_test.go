package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/resilience"
	"pimmine/internal/vec"
)

// fnnPIM is a replica factory building FNN-PIM on its own array.
func fnnPIM(t *testing.T) Factory {
	t.Helper()
	fw, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	return func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
		eng, err := fw.NewEngine()
		if err != nil {
			return nil, err
		}
		return knn.NewFNNPIM(eng, m, fw.Quant, capacityN)
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

// firstLine returns the first line of tree containing s ("" if none).
func firstLine(tree, s string) string {
	for _, line := range strings.Split(tree, "\n") {
		if strings.Contains(line, s) {
			return line
		}
	}
	return ""
}

func prometheus(t *testing.T, o *obs.Observer) string {
	t.Helper()
	var b strings.Builder
	if err := o.Registry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestObservedClusterTraceTree runs a cluster with every query sampled
// and asserts the serve engines' span tree with the replica pick inside
// it — engine.search → shard N → cluster.pick-replica → knn searcher →
// pim-dot / bound-eval → refine — and that the pipeline's query counters
// count beside the cluster's own.
func TestObservedClusterTraceTree(t *testing.T) {
	t.Parallel()
	const k, nq = 5, 4
	prof := dataset.Profile{Name: "cluster-obs", FullN: 200, D: 32, Clusters: 8, Correlation: 0.8, Spread: 0.1}
	ds := dataset.Generate(prof, 200, 42)
	data, queries := ds.X, ds.Queries(nq, 43)
	o := obs.New(obs.Config{SampleRate: 1})
	eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2, Shards: 3, Factory: fnnPIM(t), Obs: o})
	for qi := 0; qi < nq; qi++ {
		q := queries.Row(qi)
		res, err := eng.Search(context.Background(), q, k)
		if err != nil {
			t.Fatal(err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(data, q, k)) {
			t.Fatalf("observed query %d inexact", qi)
		}
	}

	traces := o.Tracer().Recent(0)
	if len(traces) != nq {
		t.Fatalf("sampled %d traces, want %d", len(traces), nq)
	}
	tree := traces[0].Render()
	for _, want := range []string{
		"engine.search",
		"shard 0", "shard 1", "shard 2",
		"cluster.pick-replica",
		"knn.FNN-PIM",
		"pim-dot",
		"bound-eval",
		"refine",
	} {
		if !strings.Contains(tree, want) {
			t.Errorf("trace missing span %q:\n%s", want, tree)
		}
	}
	shard, pick := indentOf(firstLine(tree, "shard 0")), indentOf(firstLine(tree, "cluster.pick-replica"))
	searcher, refine := indentOf(firstLine(tree, "knn.FNN-PIM")), indentOf(firstLine(tree, "refine"))
	if !(shard < pick && pick < searcher && searcher < refine) {
		t.Errorf("span nesting wrong: shard@%d pick-replica@%d searcher@%d refine@%d\n%s",
			shard, pick, searcher, refine, tree)
	}
	out := prometheus(t, o)
	for _, want := range []string{
		fmt.Sprintf("pim_serve_queries_total %d", nq),
		fmt.Sprintf(`pim_serve_shard_queries_total{shard="2"} %d`, nq),
		fmt.Sprintf("pim_cluster_queries_total %d", nq),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
}

// TestPickReplicaSpanNamesFailover injects a fault on the shard's
// preferred node: the answer stays bit-exact, and the pick-replica span
// says which node was passed over and why.
func TestPickReplicaSpanNamesFailover(t *testing.T) {
	t.Parallel()
	data := randMatrix(90, 8, 18)
	o := obs.New(obs.Config{SampleRate: 1})
	eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2, Shards: 1, Obs: o})
	victim := eng.shards[0].replicas[0].node.id
	if err := eng.InjectFaults(victim, 1); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	q := data.Row(4)
	res, err := eng.Search(context.Background(), q, 5)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !sameNeighbors(res.Neighbors, exactTruth(data, q, 5)) {
		t.Fatal("fail-over answer inexact")
	}
	if len(res.BreakerOpen) != 1 {
		t.Fatalf("BreakerOpen = %v, want the fail-over reported on shard 0", res.BreakerOpen)
	}
	tree := o.Tracer().Recent(1)[0].Render()
	want := fmt.Sprintf("skip  [node=%d reason=error: %v]", victim, errInjectedFault)
	skipLine, pick := firstLine(tree, want), firstLine(tree, "cluster.pick-replica")
	if skipLine == "" || pick == "" || indentOf(skipLine) <= indentOf(pick) {
		t.Fatalf("pick-replica span does not record %q under it:\n%s", want, tree)
	}
	if !strings.Contains(tree, "breaker-open") {
		t.Fatalf("shard span does not annotate the fail-over:\n%s", tree)
	}
}

// faultySearcher answers exactly but reports corrected PIM faults on the
// meter, the way internal/fault's corrected-dot path does.
type faultySearcher struct{ knn.Searcher }

func (s faultySearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	m.C("pim-dot").PIMFaults++
	return s.Searcher.Search(q, k, m)
}

// TestNodeBreakersCountPIMFaults pins that a replica visit reporting PIM
// faults is a failed attempt for its node's breaker — the rule a serve
// shard's breaker follows — so every node breaker trips, while the
// breaker-blind second pass keeps every answer exact.
func TestNodeBreakersCountPIMFaults(t *testing.T) {
	t.Parallel()
	data := randMatrix(120, 8, 19)
	eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2, Shards: 3,
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, CoolDown: time.Hour},
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return faultySearcher{knn.NewStandard(m)}, nil
		}})
	ctx := context.Background()
	sawFailover := false
	for i := 0; i < 12; i++ {
		q := data.Row(i * 7 % data.N)
		res, err := eng.Search(ctx, q, 4)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(data, q, 4)) {
			t.Fatalf("search %d inexact with faulting replicas", i)
		}
		if res.Meter.Total().PIMFaults == 0 {
			t.Fatalf("search %d: fault meters did not reach the result", i)
		}
		sawFailover = sawFailover || len(res.BreakerOpen) > 0
	}
	if !sawFailover {
		t.Fatal("no result reported a breaker-open fail-over")
	}
	for _, n := range eng.Nodes() {
		if st := eng.BreakerStates()[n.ID]; n.Replicas > 0 && st != resilience.StateOpen {
			t.Fatalf("node %d (%d replicas) breaker %v, want open", n.ID, n.Replicas, st)
		}
	}
}
