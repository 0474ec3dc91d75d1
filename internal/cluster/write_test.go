package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/route"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// vecConcat stacks matrices row-wise into one dataset model.
func vecConcat(ms ...*vec.Matrix) *vec.Matrix {
	n := 0
	for _, m := range ms {
		n += m.N
	}
	out := vec.NewMatrix(n, ms[0].D)
	at := 0
	for _, m := range ms {
		copy(out.Data[at:], m.Data)
		at += len(m.Data)
	}
	return out
}

// TestStaleReplicaExcludedFromWritesAfterUnpause pins the write-path
// version gate: a replica that went stale while its node was paused
// must not receive (and be promoted by) writes after the node rejoins —
// it would be stamped current while missing the mutations that landed
// during the pause. Pause B; insert; unpause B; insert; every read must
// still be bit-exact, and B's stale copies must stay stale until Repair.
func TestStaleReplicaExcludedFromWritesAfterUnpause(t *testing.T) {
	t.Parallel()
	data := randMatrix(80, 8, 31)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 2, Shards: 2, Seed: 3})
	ctx := context.Background()
	if err := eng.PauseNode(1); err != nil {
		t.Fatalf("PauseNode: %v", err)
	}
	phase1 := randMatrix(6, 8, 310)
	for i := 0; i < phase1.N; i++ {
		if _, err := eng.Insert(phase1.Row(i)); err != nil {
			t.Fatalf("paused-phase insert %d: %v", i, err)
		}
	}
	// Shards that took a write while node 1 was paused now hold a stale
	// replica on node 1.
	staleShards := map[int]bool{}
	for _, sh := range eng.shards {
		if sh.version.Load() > 0 {
			staleShards[sh.id] = true
		}
	}
	if len(staleShards) == 0 {
		t.Fatal("no shard took a write while node 1 was paused")
	}
	if err := eng.UnpauseNode(1); err != nil {
		t.Fatalf("UnpauseNode: %v", err)
	}
	phase2 := randMatrix(6, 8, 311)
	for i := 0; i < phase2.N; i++ {
		if _, err := eng.Insert(phase2.Row(i)); err != nil {
			t.Fatalf("post-unpause insert %d: %v", i, err)
		}
	}
	// The post-unpause writes must have skipped node 1's stale copies.
	for _, sh := range eng.shards {
		if !staleShards[sh.id] {
			continue
		}
		cur := sh.version.Load()
		for _, r := range sh.snapshot() {
			if r.node.id == 1 && r.version.Load() >= cur {
				t.Fatalf("shard %d: node 1 replica promoted to current by a post-unpause write", sh.id)
			}
		}
	}
	// Reads stay bit-exact against the full post-churn dataset.
	model := vecConcat(data, phase1, phase2)
	for i := 0; i < 16; i++ {
		q := model.Row(i * 11 % model.N)
		res, err := eng.Search(ctx, q, 5)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(model, q, 5)) {
			t.Fatalf("search %d inexact with a rejoined stale replica present", i)
		}
	}
	// Repair re-ships the stale copies; everything is current and still
	// exact.
	if ships, err := eng.Repair(); err != nil || ships == 0 {
		t.Fatalf("Repair: ships=%d err=%v", ships, err)
	}
	for _, sh := range eng.shards {
		cur := sh.version.Load()
		for _, r := range sh.snapshot() {
			if r.version.Load() < cur {
				t.Fatalf("shard %d still has a stale replica after Repair", sh.id)
			}
		}
	}
	for i := 0; i < 8; i++ {
		q := model.Row(i * 13 % model.N)
		res, err := eng.Search(ctx, q, 5)
		if err != nil {
			t.Fatalf("post-repair search: %v", err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(model, q, 5)) {
			t.Fatalf("post-repair search %d inexact", i)
		}
	}
}

// TestPartialWriteFailureCommitsAndMarksFailedStale pins the commit
// rule: when an op applies on some writable replicas and fails on
// others, the mutation commits on the successes and the failed replicas
// go stale (for Repair) instead of surviving as divergent current
// copies. When every replica fails, nothing commits.
func TestPartialWriteFailureCommitsAndMarksFailedStale(t *testing.T) {
	t.Parallel()
	data := randMatrix(60, 8, 32)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 2, Shards: 1})
	ctx := context.Background()
	sh := eng.shards[0]
	victim := sh.replicas[1]
	boom := errors.New("boom")

	// Partial failure: replica 0 applies, the victim fails.
	v := data.Row(1)
	unlock, err := eng.w.Lock()
	if err != nil {
		t.Fatal(err)
	}
	err = eng.commitLocked(0, wal.OpUpdate, func(st *delta.Store) error {
		if st == victim.store {
			return boom
		}
		return st.Update(0, v)
	})
	unlock()
	if err != nil {
		t.Fatalf("partial failure did not commit: %v", err)
	}
	if got := sh.version.Load(); got != 1 {
		t.Fatalf("shard version %d after partial failure, want 1", got)
	}
	if victim.version.Load() != 0 {
		t.Fatal("failed replica was stamped current")
	}

	// Total failure: no replica applies, nothing commits, the surviving
	// current replica keeps its version.
	if unlock, err = eng.w.Lock(); err != nil {
		t.Fatal(err)
	}
	err = eng.commitLocked(0, wal.OpUpdate, func(*delta.Store) error { return boom })
	unlock()
	if !errors.Is(err, boom) {
		t.Fatalf("all-replica failure: got %v, want the joined op error", err)
	}
	if got := sh.version.Load(); got != 1 {
		t.Fatalf("shard version %d after all-replica failure, want 1", got)
	}
	if sh.replicas[0].version.Load() != 1 {
		t.Fatal("all-replica failure disturbed the current replica's version")
	}

	// A follow-up write through the public API skips the stale copy.
	if err := eng.Update(5, data.Row(6)); err != nil {
		t.Fatalf("follow-up update: %v", err)
	}
	if victim.version.Load() != 0 {
		t.Fatal("stale replica received a follow-up write")
	}

	// Reads serve only the committed state, bit-exactly.
	model := data.Clone()
	copy(model.Row(0), v)
	copy(model.Row(5), data.Row(6))
	for i := 0; i < 10; i++ {
		q := model.Row(i * 7 % model.N)
		res, err := eng.Search(ctx, q, 5)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(model, q, 5)) {
			t.Fatalf("search %d inexact with a divergent stale replica present", i)
		}
	}

	// Repair replaces the stale copy; the shard is fully current and
	// still exact.
	if ships, err := eng.Repair(); err != nil || ships == 0 {
		t.Fatalf("Repair: ships=%d err=%v", ships, err)
	}
	cur := sh.version.Load()
	for _, r := range sh.snapshot() {
		if r.version.Load() < cur {
			t.Fatal("shard still has a stale replica after Repair")
		}
	}
	q := model.Row(3)
	res, err := eng.Search(ctx, q, 5)
	if err != nil {
		t.Fatalf("post-repair search: %v", err)
	}
	if !sameNeighbors(res.Neighbors, exactTruth(model, q, 5)) {
		t.Fatal("post-repair search inexact")
	}
}

// TestWriteRefusedWhenOnlyStaleReplicasSurvive mirrors the read path's
// ErrRebalancing: a shard whose only live replicas are stale refuses
// writes with ErrRebalancing (Repair can fix it), not ErrNoQuorum.
func TestWriteRefusedWhenOnlyStaleReplicasSurvive(t *testing.T) {
	t.Parallel()
	data := randMatrix(80, 8, 33)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 2, Shards: 2, Seed: 3})
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
	// Find an id in a shard that took writes: only node 1's stale copy
	// survives there.
	target := -1
	for id := 0; id < data.N; id++ {
		if eng.shards[eng.w.Shard(id)].version.Load() > 0 {
			target = id
			break
		}
	}
	if target < 0 {
		t.Fatal("no initial shard took a write")
	}
	if err := eng.Update(target, data.Row(0)); !errors.Is(err, ErrRebalancing) {
		t.Fatalf("write to all-stale shard: got %v, want ErrRebalancing", err)
	}
}

// TestSingleNodeDefaultReplicasClamp pins the Options default: Replicas
// unset clamps to min(2, Nodes) instead of failing a single-node
// cluster, while explicitly-set Replicas > Nodes is still rejected.
func TestSingleNodeDefaultReplicasClamp(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 8, 34)
	eng := newTestEngine(t, data, Options{Nodes: 1})
	if eng.Replicas() != 1 {
		t.Fatalf("Replicas() = %d on a single-node cluster, want 1", eng.Replicas())
	}
	q := data.Row(0)
	res, err := eng.Search(context.Background(), q, 3)
	if err != nil {
		t.Fatalf("search: %v", err)
	}
	if !sameNeighbors(res.Neighbors, exactTruth(data, q, 3)) {
		t.Fatal("single-node search inexact")
	}
	if _, err := New(data, Options{Nodes: 1, Replicas: 2}); err == nil {
		t.Fatal("explicit replicas > nodes accepted")
	}
}

// TestUnknownIDIsErrNotFound pins the cluster's answer to a write that
// addresses no row — an id never issued, a negative one, one already
// deleted — to delta.ErrNotFound, the serve engine's sentinel, at every
// replication factor.
func TestUnknownIDIsErrNotFound(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 6, 41)
	for _, r := range []int{1, 2} {
		eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: r, Shards: 2, Seed: 4})
		if err := eng.Delete(3); err != nil {
			t.Fatalf("R=%d: Delete(3): %v", r, err)
		}
		for _, id := range []int{999, -1, 3} {
			if err := eng.Update(id, data.Row(0)); !errors.Is(err, delta.ErrNotFound) {
				t.Errorf("R=%d: Update(%d) = %v, want delta.ErrNotFound", r, id, err)
			}
			if err := eng.Delete(id); !errors.Is(err, delta.ErrNotFound) {
				t.Errorf("R=%d: Delete(%d) = %v, want delta.ErrNotFound", r, id, err)
			}
		}
	}
}

// TestDeleteDropsDirectoryEntry pins that a delete leaves nothing behind
// in the writer's id directory, which would otherwise grow with every
// insert ever made: the deleted id is unknown to it, and a later Update
// or Delete of it is delta.ErrNotFound, at every replication factor.
func TestDeleteDropsDirectoryEntry(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 6, 42)
	for _, r := range []int{1, 2} {
		eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: r, Shards: 2, Seed: 4})
		id, err := eng.Insert(data.Row(5))
		if err != nil {
			t.Fatalf("R=%d: Insert: %v", r, err)
		}
		if err := eng.Delete(id); err != nil {
			t.Fatalf("R=%d: Delete(%d): %v", r, id, err)
		}
		if sh := eng.w.Shard(id); sh >= 0 {
			t.Errorf("R=%d: directory still routes deleted id %d to shard %d", r, id, sh)
		}
		if err := eng.Update(id, data.Row(0)); !errors.Is(err, delta.ErrNotFound) {
			t.Errorf("R=%d: Update(%d) = %v, want delta.ErrNotFound", r, id, err)
		}
		if err := eng.Delete(id); !errors.Is(err, delta.ErrNotFound) {
			t.Errorf("R=%d: Delete(%d) = %v, want delta.ErrNotFound", r, id, err)
		}
	}
}

// TestRoutedWritesStayExact pins that exact routing on a routed cluster
// sees written rows: each replica's insert or update grows its shard's
// routing summary before the row is visible, as the serve engine's
// stores do, so no shard holding a written row is routed away. Every
// written row is a built row nudged by 0.001, on the shard the id ring
// names or the one its id was built on, and the query is that row.
func TestRoutedWritesStayExact(t *testing.T) {
	t.Parallel()
	data := clusteredData(t, 240, 16, 6, 21)
	r, err := route.NewEven(route.Config{}, data, 6)
	if err != nil {
		t.Fatalf("route.NewEven: %v", err)
	}
	eng := newTestEngine(t, data, Options{Nodes: 6, Replicas: 2, Shards: 6, Router: r})
	model := data.Clone()
	for i := 0; i < 40; i++ {
		row := vec.NewMatrix(1, data.D)
		v := row.Row(0)
		copy(v, data.Row(i*6%data.N))
		if v[0] > 0.5 {
			v[0] -= 0.001
		} else {
			v[0] += 0.001
		}
		if i%2 == 0 {
			if _, err := eng.Insert(v); err != nil {
				t.Fatalf("insert %d: %v", i, err)
			}
			model = vecConcat(model, row)
		} else {
			id := (i*6 + 120) % data.N
			if err := eng.Update(id, v); err != nil {
				t.Fatalf("update %d: %v", id, err)
			}
			copy(model.Row(id), v)
		}
		res, err := eng.SearchMode(context.Background(), v, 3, route.ModeExact)
		if err != nil {
			t.Fatalf("write %d: routed search: %v", i, err)
		}
		if want := exactTruth(model, v, 3); !sameNeighbors(res.Neighbors, want) {
			t.Fatalf("write %d: routed exact %v, want %v", i, res.Neighbors, want)
		}
	}
}

// TestReplicaFoldsKeepAnswersExact pins the cluster's fold rule: a
// routed 2-shard R = 2 cluster takes enough inserts, updates and deletes
// that each shard's delta passes delta's 256-row trigger at least twice.
// Every current replica must then have folded (Compactions > 0,
// DeltaRows < 256), each node's wear must have risen by exactly the
// folds of the replicas it holds, and routed-exact answers, during the
// writes and after them, must be Float64bits-equal to a sequential scan
// over Materialize(). The kill case runs the writes with one node down
// and Repairs after them.
func TestReplicaFoldsKeepAnswersExact(t *testing.T) {
	t.Parallel()
	for _, kill := range []bool{false, true} {
		t.Run(fmt.Sprintf("kill=%v", kill), func(t *testing.T) {
			t.Parallel()
			data := clusteredData(t, 200, 8, 4, 31)
			r, err := route.NewEven(route.Config{}, data, 2)
			if err != nil {
				t.Fatalf("route.NewEven: %v", err)
			}
			eng := newTestEngine(t, data, Options{Nodes: 3, Replicas: 2, Shards: 2, Router: r})
			if kill {
				if err := eng.KillNode(eng.shards[0].replicas[0].node.id); err != nil {
					t.Fatalf("KillNode: %v", err)
				}
			}
			wear0 := eng.Wear()
			ctx := context.Background()
			exactNow := func(when string, q []float64) {
				t.Helper()
				m, ids, err := eng.Materialize()
				if err != nil {
					t.Fatalf("%s: Materialize: %v", when, err)
				}
				want := exactTruth(m, q, 5)
				for i := range want {
					want[i].Index = ids[want[i].Index]
				}
				res, err := eng.SearchMode(ctx, q, 5, route.ModeExact)
				if err != nil {
					t.Fatalf("%s: routed search: %v", when, err)
				}
				if !sameNeighbors(res.Neighbors, want) {
					t.Fatalf("%s: routed exact %v, want %v", when, res.Neighbors, want)
				}
			}

			rng := rand.New(rand.NewSource(41))
			live := make([]int, data.N)
			for i := range live {
				live[i] = i
			}
			for w := 0; w < 2000; w++ {
				v := make([]float64, data.D)
				copy(v, data.Row(rng.Intn(data.N)))
				for j := range v {
					v[j] = min(1, max(0, v[j]+0.02*(rng.Float64()-0.5)))
				}
				switch p := rng.Intn(10); {
				case p < 8:
					id, err := eng.Insert(v)
					if err != nil {
						t.Fatalf("write %d: insert: %v", w, err)
					}
					live = append(live, id)
				case p < 9:
					if err := eng.Update(live[rng.Intn(len(live))], v); err != nil {
						t.Fatalf("write %d: update: %v", w, err)
					}
				default:
					i := rng.Intn(len(live))
					if err := eng.Delete(live[i]); err != nil {
						t.Fatalf("write %d: delete: %v", w, err)
					}
					live[i] = live[len(live)-1]
					live = live[:len(live)-1]
				}
				if w%100 == 99 {
					exactNow(fmt.Sprintf("write %d", w), v)
				}
			}

			folds := make([]int64, len(eng.nodes))
			for _, sh := range eng.shards {
				reps, err := eng.current(sh, sh.snapshot(), nil)
				if err != nil {
					t.Fatalf("shard %d: %v", sh.id, err)
				}
				for _, rep := range reps {
					st := rep.store.Stats()
					if st.Compactions < 2 || st.DeltaRows >= 256 || st.CompactionFailures != 0 {
						t.Fatalf("shard %d on node %d: %+v, want 2+ folds, a delta under 256 rows and no failures",
							sh.id, rep.node.id, st)
					}
					folds[rep.node.id] += int64(st.Compactions)
				}
			}
			for n, w := range eng.Wear() {
				if w-wear0[n] != folds[n] {
					t.Fatalf("node %d wear rose by %d, want its replicas' %d folds", n, w-wear0[n], folds[n])
				}
			}

			if kill {
				ships, err := eng.Repair()
				if err != nil || ships == 0 {
					t.Fatalf("Repair = %d, %v; want ships", ships, err)
				}
				for _, sh := range eng.shards {
					reps, err := eng.current(sh, sh.snapshot(), nil)
					if err != nil || len(reps) != 2 {
						t.Fatalf("shard %d after Repair: %d current replicas, %v", sh.id, len(reps), err)
					}
				}
			}
			for i := 0; i < 20; i++ {
				q := make([]float64, data.D)
				for j := range q {
					q[j] = rng.Float64()
				}
				exactNow(fmt.Sprintf("query %d", i), q)
			}
		})
	}
}

// TestFailedFoldKeepsWriteCommitted pins the other half of the fold
// rule: a fold whose rebuild fails does not fail the write that tripped
// it, does not mark the replica stale and costs no wear. Both replicas
// keep their old epoch, count the failure and stay current, and answers
// stay exact over the unfolded delta.
func TestFailedFoldKeepsWriteCommitted(t *testing.T) {
	t.Parallel()
	data := randMatrix(64, 6, 51)
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 2, Shards: 1,
		Factory: func(base *vec.Matrix, _ int) (knn.Searcher, error) {
			if base.N > data.N {
				return nil, errors.New("crossbar programming failed")
			}
			return knn.NewStandard(base), nil
		}})
	wear0 := eng.Wear()
	rows := randMatrix(256, data.D, 52)
	for i := 0; i < rows.N; i++ {
		if _, err := eng.Insert(rows.Row(i)); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	sh := eng.shards[0]
	reps, err := eng.current(sh, sh.snapshot(), nil)
	if err != nil || len(reps) != 2 {
		t.Fatalf("%d current replicas after a failed fold (%v), want 2", len(reps), err)
	}
	for _, rep := range reps {
		if st := rep.store.Stats(); st.Compactions != 0 || st.CompactionFailures != 1 || st.DeltaRows != 256 {
			t.Fatalf("node %d: %+v, want one failed fold and the delta kept", rep.node.id, st)
		}
	}
	if w := eng.Wear(); w[0] != wear0[0] || w[1] != wear0[1] {
		t.Fatalf("wear %v after a failed fold, want %v", w, wear0)
	}
	all := vecConcat(data, rows)
	for i := 0; i < 10; i++ {
		q := all.Row(i * 31 % all.N)
		res, err := eng.Search(context.Background(), q, 4)
		if err != nil {
			t.Fatalf("search %d: %v", i, err)
		}
		if !sameNeighbors(res.Neighbors, exactTruth(all, q, 4)) {
			t.Fatalf("search %d inexact after a failed fold", i)
		}
	}
}
