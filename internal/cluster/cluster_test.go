package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
)

func randMatrix(n, d int, seed int64) *vec.Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func newTestEngine(t *testing.T, data *vec.Matrix, opts Options) *Engine {
	t.Helper()
	eng, err := New(data, opts)
	if err != nil {
		t.Fatalf("cluster.New: %v", err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// exactTruth computes the sequential-scan answer, the bit-exact oracle.
func exactTruth(data *vec.Matrix, q []float64, k int) []vec.Neighbor {
	return knn.NewStandard(data).Search(q, k, arch.NewMeter())
}

func sameNeighbors(a, b []vec.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index ||
			math.Float64bits(a[i].Dist) != math.Float64bits(b[i].Dist) {
			return false
		}
	}
	return true
}

func TestValidation(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 8, 1)
	if _, err := New(nil, Options{}); err == nil {
		t.Fatal("nil data accepted")
	}
	if _, err := New(data, Options{Nodes: 2, Replicas: 3}); err == nil {
		t.Fatal("replicas > nodes accepted")
	}
	if _, err := New(data, Options{Nodes: -1}); err == nil {
		t.Fatal("negative nodes accepted")
	}
	if _, err := New(data, Options{Replicas: -2}); err == nil {
		t.Fatal("negative replicas accepted")
	}
	r, err := route.NewEven(route.Config{}, data, 3)
	if err != nil {
		t.Fatalf("route.NewEven: %v", err)
	}
	if _, err := New(data, Options{Nodes: 4, Shards: 5, Router: r}); !errors.Is(err, route.ErrShardMismatch) {
		t.Fatalf("router shard mismatch not rejected: %v", err)
	}
}

func TestAccessorsAndPlacement(t *testing.T) {
	t.Parallel()
	data := randMatrix(100, 8, 2)
	eng := newTestEngine(t, data, Options{Nodes: 4, Replicas: 2, Shards: 8})
	if eng.Dims() != 8 || eng.Rows() != 100 || eng.NumShards() != 8 ||
		eng.NumNodes() != 4 || eng.Replicas() != 2 || eng.NodesUp() != 4 {
		t.Fatalf("accessors: dims=%d rows=%d shards=%d nodes=%d R=%d up=%d",
			eng.Dims(), eng.Rows(), eng.NumShards(), eng.NumNodes(), eng.Replicas(), eng.NodesUp())
	}
	// Every shard holds exactly R replicas on distinct nodes.
	total := 0
	for _, sh := range eng.shards {
		seen := map[int]bool{}
		for _, r := range sh.replicas {
			if seen[r.node.id] {
				t.Fatalf("shard %d has two replicas on node %d", sh.id, r.node.id)
			}
			seen[r.node.id] = true
		}
		if len(sh.replicas) != 2 {
			t.Fatalf("shard %d has %d replicas, want 2", sh.id, len(sh.replicas))
		}
		total += len(sh.replicas)
	}
	// Initial installs count as wear.
	wear := int64(0)
	for _, w := range eng.Wear() {
		wear += w
	}
	if wear != int64(total) {
		t.Fatalf("total wear %d != total installs %d", wear, total)
	}
}

func TestFailoverOnInjectedFaultsStaysExact(t *testing.T) {
	t.Parallel()
	data := randMatrix(200, 12, 3)
	eng := newTestEngine(t, data, Options{
		Nodes: 4, Replicas: 2, Shards: 6,
		Breaker: resilience.BreakerConfig{FailureThreshold: 2, CoolDown: time.Hour},
	})
	ctx := context.Background()
	// Every visit to the node holding shard 0's preferred replica fails
	// for a while: reads must fail over and stay bit-exact throughout.
	victim := eng.shards[0].replicas[0].node.id
	if err := eng.InjectFaults(victim, 50); err != nil {
		t.Fatalf("InjectFaults: %v", err)
	}
	sawFailover := false
	for i := 0; i < 20; i++ {
		q := data.Row(i * 7 % data.N)
		res, err := eng.Search(ctx, q, 5)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(data, q, 5)) {
			t.Fatalf("search %d inexact under injected faults", i)
		}
		if len(res.BreakerOpen) > 0 {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Fatal("no result reported fail-over despite injected faults")
	}
	states := eng.BreakerStates()
	if states[victim] != resilience.StateOpen {
		t.Fatalf("node %d breaker state %v, want open", victim, states[victim])
	}
}

func TestNoQuorumTyped(t *testing.T) {
	t.Parallel()
	data := randMatrix(60, 8, 4)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 1, Shards: 4})
	victim := eng.shards[0].replicas[0].node.id
	if err := eng.KillNode(victim); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	_, err := eng.Search(context.Background(), data.Row(0), 3)
	if !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("search with R=1 and host killed: got %v, want ErrNoQuorum", err)
	}
	// All dead shards are reported, not just the first to fail.
	lost := 0
	for _, sh := range eng.shards {
		if len(sh.snapshot()) == 0 {
			lost++
		}
	}
	if lost < 2 {
		t.Skipf("placement put fewer than 2 shards on node 0 (%d)", lost)
	}
	if got := strings.Count(err.Error(), "shard "); got < lost {
		t.Fatalf("joined error mentions %d shards, want >= %d: %v", got, lost, err)
	}
}

func TestRebalancingTypedWhenOnlyStaleSurvives(t *testing.T) {
	t.Parallel()
	data := randMatrix(80, 8, 5)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 2, Shards: 2, Seed: 3})
	// Pause node 1, write to every shard (replicas on node 1 go stale),
	// then kill node 0: only stale copies survive.
	if err := eng.PauseNode(1); err != nil {
		t.Fatalf("PauseNode: %v", err)
	}
	for i := 0; i < 8; i++ {
		if _, err := eng.Insert(data.Row(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if err := eng.UnpauseNode(1); err != nil {
		t.Fatalf("UnpauseNode: %v", err)
	}
	if err := eng.KillNode(0); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	_, err := eng.Search(context.Background(), data.Row(0), 3)
	if !errors.Is(err, ErrRebalancing) {
		t.Fatalf("search with only stale replicas: got %v, want ErrRebalancing", err)
	}
}

func TestRepairRestoresReplicationAfterKill(t *testing.T) {
	t.Parallel()
	data := randMatrix(120, 10, 6)
	eng := newTestEngine(t, data, Options{Nodes: 4, Replicas: 2, Shards: 8})
	if err := eng.KillNode(2); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if up := eng.NodesUp(); up != 3 {
		t.Fatalf("NodesUp after a kill = %d, want 3", up)
	}
	ships, err := eng.Repair()
	if err != nil {
		t.Fatalf("Repair: %v", err)
	}
	if ships == 0 {
		t.Fatal("Repair shipped nothing after a kill")
	}
	for _, sh := range eng.shards {
		live := 0
		for _, r := range sh.snapshot() {
			if r.node.state.Load() != nodeDown {
				live++
			}
		}
		if live != 2 {
			t.Fatalf("shard %d has %d live replicas after repair, want 2", sh.id, live)
		}
	}
	st := eng.ShipStats()
	if st.Ships != ships || st.Bytes <= 0 || st.ModeledNs <= 0 {
		t.Fatalf("ship stats %+v inconsistent with %d ships", st, ships)
	}
	// Transfer is priced at LinkGBs GB/s == bytes/ns.
	wantNs := float64(st.Bytes) / 12.5
	if math.Abs(st.ModeledNs-wantNs) > 1e-6*wantNs {
		t.Fatalf("modeled ns %v, want %v", st.ModeledNs, wantNs)
	}
	// Queries are exact again with node 2 still down.
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		q := data.Row(i * 11 % data.N)
		res, err := eng.Search(ctx, q, 4)
		if err != nil {
			t.Fatalf("post-repair search: %v", err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(data, q, 4)) {
			t.Fatalf("post-repair search %d inexact", i)
		}
	}
}

func TestPausedStaleReplicaExcludedUntilRepair(t *testing.T) {
	t.Parallel()
	data := randMatrix(90, 8, 7)
	eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2, Shards: 3})
	ctx := context.Background()
	if err := eng.PauseNode(1); err != nil {
		t.Fatalf("PauseNode: %v", err)
	}
	// Writes land only on reachable replicas; paused copies go stale.
	extra := randMatrix(6, 8, 70)
	for i := 0; i < extra.N; i++ {
		if _, err := eng.Insert(extra.Row(i)); err != nil {
			t.Fatalf("insert: %v", err)
		}
	}
	if err := eng.UnpauseNode(1); err != nil {
		t.Fatalf("UnpauseNode: %v", err)
	}
	// Model of the post-churn dataset for the oracle.
	model := vec.NewMatrix(data.N+extra.N, 8)
	copy(model.Data, data.Data)
	copy(model.Data[data.N*8:], extra.Data)
	for i := 0; i < 12; i++ {
		q := model.Row(i * 13 % model.N)
		res, err := eng.Search(ctx, q, 5)
		if err != nil {
			t.Fatalf("search: %v", err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(model, q, 5)) {
			t.Fatalf("search %d inexact with stale replica present", i)
		}
	}
	if ships, err := eng.Repair(); err != nil || ships == 0 {
		t.Fatalf("Repair: ships=%d err=%v", ships, err)
	}
	// After anti-entropy, every replica is current again.
	for _, sh := range eng.shards {
		cur := sh.version.Load()
		for _, r := range sh.snapshot() {
			if r.version.Load() < cur {
				t.Fatalf("shard %d still has a stale replica after Repair", sh.id)
			}
		}
	}
}

func TestAsymmetricPartition(t *testing.T) {
	t.Parallel()
	data := randMatrix(100, 8, 8)
	eng := newTestEngine(t, data, Options{Nodes: 4, Replicas: 2, Shards: 8})
	ctx := context.Background()
	if err := eng.SetLink(-1, 1, false); err != nil {
		t.Fatalf("SetLink: %v", err)
	}
	for i := 0; i < 10; i++ {
		q := data.Row(i * 9 % data.N)
		res, err := eng.Search(ctx, q, 4)
		if err != nil {
			t.Fatalf("search under partition: %v", err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(data, q, 4)) {
			t.Fatalf("search %d inexact under partition", i)
		}
	}
	if err := eng.HealLinks(); err != nil {
		t.Fatalf("HealLinks: %v", err)
	}
}

func TestWriteRefusedWithoutQuorum(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 6, 9)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 1, Shards: 2})
	if err := eng.KillNode(0); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	// Find an id whose shard lost its only replica.
	target := -1
	for id := 0; id < data.N; id++ {
		if len(eng.shards[eng.w.Shard(id)].snapshot()) == 0 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Skip("node 0 hosted no shard")
	}
	if err := eng.Update(target, data.Row(0)); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("update into lost shard: got %v, want ErrNoQuorum", err)
	}
	if err := eng.Delete(target); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("delete into lost shard: got %v, want ErrNoQuorum", err)
	}
}

func TestAdminOpsOnDeadNode(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 6, 10)
	eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2})
	if err := eng.KillNode(1); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	if err := eng.PauseNode(1); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("pause dead node: got %v, want ErrNodeDown", err)
	}
	if err := eng.SlowNode(1, time.Millisecond); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("slow dead node: got %v, want ErrNodeDown", err)
	}
	if err := eng.InjectFaults(1, 3); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("inject into dead node: got %v, want ErrNodeDown", err)
	}
	if err := eng.KillNode(7); err == nil {
		t.Fatal("out-of-range node accepted")
	}
}

// TestMutationsMatchSingleStoreModel drives one seeded write history
// through the cluster and through a one-shard serve engine, its model,
// at every replication factor. Valid writes must leave both with
// Float64bits-identical answers after every step. Writes that must be
// rejected — a value outside [0, 1], a wrong-dims vector, an unknown
// id, a negative id, a double delete — must be rejected by both with
// the same sentinel and the same message, never as one error per
// replica, and must change nothing.
func TestMutationsMatchSingleStoreModel(t *testing.T) {
	t.Parallel()
	data := randMatrix(100, 8, 11)
	for _, r := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("R=%d", r), func(t *testing.T) {
			t.Parallel()
			mutationsMatchModel(t, data, r)
		})
	}
}

func mutationsMatchModel(t *testing.T, data *vec.Matrix, replicas int) {
	eng := newTestEngine(t, data, Options{Nodes: 4, Replicas: replicas, Shards: 4, Seed: 5})
	ctx := context.Background()
	model, err := serve.NewMutable(data, serve.MutableOptions{Options: serve.Options{Shards: 1}})
	if err != nil {
		t.Fatalf("NewMutable: %v", err)
	}
	t.Cleanup(func() { model.Close() })

	rng := rand.New(rand.NewSource(99))
	live := map[int]bool{}
	for i := 0; i < data.N; i++ {
		live[i] = true
	}
	nextID := data.N
	randVec := func(d int) []float64 {
		v := make([]float64, d)
		for j := range v {
			v[j] = rng.Float64()
		}
		return v
	}
	// rejected applies one write that must fail to both engines.
	rejected := func(step int, what string, sentinel error, write func(mutator) error) {
		t.Helper()
		got, want := write(eng), write(model)
		switch {
		case got == nil || want == nil:
			t.Fatalf("step %d %s: cluster %v, model %v: want both rejected", step, what, got, want)
		case sentinel != nil && (!errors.Is(got, sentinel) || !errors.Is(want, sentinel)):
			t.Fatalf("step %d %s: cluster %v, model %v: want %v", step, what, got, want, sentinel)
		case got.Error() != want.Error():
			t.Fatalf("step %d %s: cluster %q, model %q", step, what, got, want)
		case joined(got):
			t.Fatalf("step %d %s: one error per replica: %v", step, what, got)
		}
	}
	for step := 0; step < 150; step++ {
		switch op := rng.Intn(4); {
		case op == 0:
			v := randVec(8)
			id, err := eng.Insert(v)
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			mid, err := model.Insert(v)
			if err != nil {
				t.Fatalf("model insert: %v", err)
			}
			if id != mid || id != nextID {
				t.Fatalf("step %d: cluster id %d, model id %d, want %d", step, id, mid, nextID)
			}
			live[id] = true
			nextID++
		case op == 1:
			id := pickLive(rng, live)
			v := randVec(8)
			if err := eng.Update(id, v); err != nil {
				t.Fatalf("step %d update %d: %v", step, id, err)
			}
			if err := model.Update(id, v); err != nil {
				t.Fatalf("model update: %v", err)
			}
		case op == 2 && len(live) > 1:
			id := pickLive(rng, live)
			if err := eng.Delete(id); err != nil {
				t.Fatalf("step %d delete %d: %v", step, id, err)
			}
			if err := model.Delete(id); err != nil {
				t.Fatalf("model delete: %v", err)
			}
			delete(live, id)
			if rng.Intn(2) == 0 {
				rejected(step, "double delete", delta.ErrNotFound, func(m mutator) error { return m.Delete(id) })
			}
		case op == 3:
			id := pickLive(rng, live)
			switch rng.Intn(5) {
			case 0:
				v := randVec(8)
				v[rng.Intn(8)] = 1 + rng.Float64()
				rejected(step, "out-of-range insert", quant.ErrOutOfRange, func(m mutator) error { _, err := m.Insert(v); return err })
			case 1:
				v := randVec(8)
				v[rng.Intn(8)] = -rng.Float64() - 0.01
				rejected(step, "out-of-range update", quant.ErrOutOfRange, func(m mutator) error { return m.Update(id, v) })
			case 2:
				v := randVec(7)
				rejected(step, "wrong-dims insert", nil, func(m mutator) error { _, err := m.Insert(v); return err })
				rejected(step, "wrong-dims update", nil, func(m mutator) error { return m.Update(id, v) })
			case 3:
				unknown := nextID + 1 + rng.Intn(50)
				rejected(step, "unknown-id update", delta.ErrNotFound, func(m mutator) error { return m.Update(unknown, randVec(8)) })
				rejected(step, "unknown-id delete", delta.ErrNotFound, func(m mutator) error { return m.Delete(unknown) })
			case 4:
				neg := -1 - rng.Intn(50)
				rejected(step, "negative-id update", delta.ErrNotFound, func(m mutator) error { return m.Update(neg, randVec(8)) })
				rejected(step, "negative-id delete", delta.ErrNotFound, func(m mutator) error { return m.Delete(neg) })
			}
		}
		q := randVec(8)
		got, err := eng.Search(ctx, q, 6)
		if err != nil {
			t.Fatalf("step %d search: %v", step, err)
		}
		want, err := model.Search(ctx, q, 6)
		if err != nil {
			t.Fatalf("model search: %v", err)
		}
		if !sameNeighbors(got.Neighbors, want.Neighbors) {
			t.Fatalf("step %d: cluster diverged from model", step)
		}
	}
	// Materialize agrees with the model's flattened view.
	gm, gids, err := eng.Materialize()
	if err != nil {
		t.Fatalf("Materialize: %v", err)
	}
	mm, mids := model.Materialize()
	if len(gids) != len(mids) {
		t.Fatalf("materialize ids: %d vs %d", len(gids), len(mids))
	}
	for i := range gids {
		if gids[i] != mids[i] {
			t.Fatalf("materialize id %d: %d vs %d", i, gids[i], mids[i])
		}
		for j := 0; j < 8; j++ {
			if math.Float64bits(gm.Row(i)[j]) != math.Float64bits(mm.Row(i)[j]) {
				t.Fatalf("materialize row %d differs", i)
			}
		}
	}
}

// mutator is the write surface the cluster and its serve model share.
type mutator interface {
	Insert(v []float64) (int, error)
	Update(id int, v []float64) error
	Delete(id int) error
}

// joined reports whether err's chain holds an errors.Join.
func joined(err error) bool {
	for ; err != nil; err = errors.Unwrap(err) {
		if _, ok := err.(interface{ Unwrap() []error }); ok {
			return true
		}
	}
	return false
}

func pickLive(rng *rand.Rand, live map[int]bool) int {
	ids := make([]int, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	min := ids[0]
	for _, id := range ids {
		if id < min {
			min = id
		}
	}
	// Deterministic choice independent of map order.
	n := rng.Intn(len(ids))
	sortInts(ids)
	return ids[n]
}

func sortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func TestSearchBatchMatchesSingleQueries(t *testing.T) {
	t.Parallel()
	data := randMatrix(150, 10, 12)
	eng := newTestEngine(t, data, Options{Nodes: 4, Replicas: 2, Shards: 6})
	ctx := context.Background()
	queries := randMatrix(12, 10, 13)
	br, err := eng.SearchBatch(ctx, queries, 5)
	if err != nil {
		t.Fatalf("SearchBatch: %v", err)
	}
	for i := 0; i < queries.N; i++ {
		want := exactTruth(data, queries.Row(i), 5)
		if !sameNeighbors(br.Results[i].Neighbors, want) {
			t.Fatalf("batch query %d inexact", i)
		}
	}
}

func TestClosedEngine(t *testing.T) {
	t.Parallel()
	data := randMatrix(50, 6, 14)
	eng, err := New(data, Options{Nodes: 2, Replicas: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := eng.Search(context.Background(), data.Row(0), 3); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("search on closed engine: got %v, want serve.ErrClosed", err)
	}
	if _, err := eng.Insert(data.Row(0)); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("insert on closed engine: got %v, want serve.ErrClosed", err)
	}
	if _, err := eng.SubscribeKNN(data.Row(0), 3); !errors.Is(err, serve.ErrClosed) {
		t.Fatalf("subscribe on closed engine: got %v, want serve.ErrClosed", err)
	}
}

func TestSubscriptionValidation(t *testing.T) {
	t.Parallel()
	data := randMatrix(50, 6, 15)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 2})
	if _, err := eng.SubscribeKNN([]float64{1, 2}, 3); !errors.Is(err, standing.ErrBadSubscription) {
		t.Fatalf("bad dims subscription: got %v, want ErrBadSubscription", err)
	}
}

func TestRoutedExactSkipsDeadShard(t *testing.T) {
	t.Parallel()
	// Content-local shards so routing can prove far shards out; then a
	// dead shard that the bound excludes must not fail the query.
	data := clusteredData(t, 240, 16, 6, 21)
	r, err := route.NewEven(route.Config{}, data, 6)
	if err != nil {
		t.Fatalf("route.NewEven: %v", err)
	}
	eng := newTestEngine(t, data, Options{Nodes: 6, Replicas: 1, Shards: 6, Router: r})
	ctx := context.Background()
	// Hosted shards per node (R=1: killing a node loses its shards).
	hosted := make([][]int, eng.NumNodes())
	for _, sh := range eng.shards {
		for _, rep := range sh.snapshot() {
			hosted[rep.node.id] = append(hosted[rep.node.id], sh.id)
		}
	}
	// Find a query whose routed plan skips every shard of some node.
	var q []float64
	killNode := -1
	for i := 0; i < data.N && killNode < 0; i++ {
		res, err := eng.SearchMode(ctx, data.Row(i), 5, route.ModeExact)
		if err != nil {
			t.Fatalf("routed search: %v", err)
		}
		if res.Routed == nil || len(res.Routed.SkippedShards) == 0 {
			continue
		}
		skipped := map[int]bool{}
		for _, s := range res.Routed.SkippedShards {
			skipped[s] = true
		}
		for n, shs := range hosted {
			if len(shs) == 0 {
				continue
			}
			all := true
			for _, s := range shs {
				if !skipped[s] {
					all = false
					break
				}
			}
			if all {
				q, killNode = data.Row(i), n
				break
			}
		}
	}
	if killNode < 0 {
		t.Skip("no query's skip set covered a whole node on this dataset")
	}
	// Killing that node loses its shards entirely — yet the routed
	// query succeeds, because the admissible bound proves every lost
	// shard irrelevant to this query's top-k.
	if err := eng.KillNode(killNode); err != nil {
		t.Fatalf("KillNode: %v", err)
	}
	res, err := eng.SearchMode(ctx, q, 5, route.ModeExact)
	if err != nil {
		t.Fatalf("routed search with skipped shard dead: %v", err)
	}
	if !sameNeighbors(res.Neighbors, exactTruth(data, q, 5)) {
		t.Fatal("routed answer inexact with dead skipped shard")
	}
	// Unrouted fan-out over the same engine must fail: it cannot prove
	// the dead shard out.
	if _, err := eng.pipe.Requery(q, 5); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("unrouted fan-out with dead shard: got %v, want ErrNoQuorum", err)
	}
}

func TestRebalanceMovesOffMostWornNode(t *testing.T) {
	t.Parallel()
	data := randMatrix(120, 8, 16)
	eng := newTestEngine(t, data, Options{Nodes: 4, Replicas: 2, Shards: 8})
	// Wear node 0 artificially: kill/restore/repair cycles ship onto
	// others, so instead bump its counter directly through the ledger
	// the engine consults.
	eng.nodes[0].wear.Add(50)
	moved, err := eng.Rebalance()
	if err != nil {
		t.Fatalf("Rebalance: %v", err)
	}
	if !moved {
		t.Fatal("Rebalance declined to move off a node with 50 extra wear")
	}
	// The move itself must not cost exactness.
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		q := data.Row(i * 17 % data.N)
		res, err := eng.Search(ctx, q, 4)
		if err != nil {
			t.Fatalf("post-rebalance search: %v", err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(data, q, 4)) {
			t.Fatalf("post-rebalance search %d inexact", i)
		}
	}
}
