package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/vec"
)

// TestStandingLockstepAcrossFailover is the satellite subscription
// test: standing kNN views must stay lockstep-equivalent to one-shot
// re-queries after every single mutation, including while a node is
// killed mid-churn and repaired back to R replicas. The requery hook
// serves from whichever current replicas survive, so fail-over must be
// invisible in the stream.
func TestStandingLockstepAcrossFailover(t *testing.T) {
	t.Parallel()
	data := randMatrix(150, 10, 31)
	eng := newTestEngine(t, data, Options{
		Nodes: 4, Replicas: 2, Shards: 5, Seed: 5, StandingBuffer: 4096,
	})
	ctx := context.Background()
	const k = 6

	subs := make(map[int][]float64, 3)
	for i := 0; i < 3; i++ {
		q := append([]float64(nil), data.Row(i*47)...)
		sub, err := eng.SubscribeKNN(q, k)
		if err != nil {
			t.Fatalf("SubscribeKNN: %v", err)
		}
		subs[sub.ID()] = q
	}
	checkLockstep := func(step string) {
		t.Helper()
		for id, q := range subs {
			res, err := eng.Search(ctx, q, k)
			if err != nil {
				t.Fatalf("%s: one-shot re-query: %v", step, err)
			}
			if !sameNeighbors(eng.StandingView(id), res.Neighbors) {
				t.Fatalf("%s: subscription %d view diverged from one-shot re-query", step, id)
			}
		}
	}
	checkLockstep("initial")

	rng := rand.New(rand.NewSource(8))
	live := make([]int, data.N)
	for i := range live {
		live[i] = i
	}
	randVec := func() []float64 {
		v := make([]float64, data.D)
		for i := range v {
			v[i] = rng.Float64()
		}
		return v
	}
	mutate := func(step string) {
		t.Helper()
		switch rng.Intn(3) {
		case 0:
			id, err := eng.Insert(randVec())
			if err != nil {
				t.Fatalf("%s: insert: %v", step, err)
			}
			live = append(live, id)
		case 1:
			id := live[rng.Intn(len(live))]
			if err := eng.Update(id, randVec()); err != nil {
				t.Fatalf("%s: update %d: %v", step, id, err)
			}
		case 2:
			if len(live) <= 4*k {
				return
			}
			i := rng.Intn(len(live))
			if err := eng.Delete(live[i]); err != nil {
				t.Fatalf("%s: delete %d: %v", step, live[i], err)
			}
			live = append(live[:i], live[i+1:]...)
		}
	}

	for i := 0; i < 25; i++ {
		mutate("pre-kill churn")
		checkLockstep("pre-kill churn")
	}

	// Kill a node whose loss keeps every shard quorate, keep churning:
	// the subscriptions now ride fail-over replicas.
	victim := -1
	for id := range eng.nodes {
		if eng.canDisable(id) {
			victim = id
			break
		}
	}
	if victim < 0 {
		t.Fatal("no node can be killed without losing quorum")
	}
	if err := eng.KillNode(victim); err != nil {
		t.Fatalf("KillNode(%d): %v", victim, err)
	}
	checkLockstep("after kill")
	for i := 0; i < 25; i++ {
		mutate("mid-failover churn")
		checkLockstep("mid-failover churn")
	}

	// Restore + repair back to R replicas, then keep going.
	if err := eng.RestoreNode(victim); err != nil {
		t.Fatalf("RestoreNode(%d): %v", victim, err)
	}
	if _, err := eng.Repair(); err != nil {
		t.Fatalf("Repair: %v", err)
	}
	checkLockstep("after repair")
	for i := 0; i < 15; i++ {
		mutate("post-repair churn")
		checkLockstep("post-repair churn")
	}

	// The event stream agrees with the final view: the last event each
	// subscription delivered carries its current canonical result.
	for id, q := range subs {
		res, err := eng.Search(ctx, q, k)
		if err != nil {
			t.Fatalf("final re-query: %v", err)
		}
		if !sameNeighbors(eng.StandingView(id), res.Neighbors) {
			t.Fatalf("subscription %d final view diverged", id)
		}
		eng.Unsubscribe(id)
	}
}

// gatedSearcher runs visit before every search of its shard's base.
type gatedSearcher struct {
	knn.Searcher
	visit func()
}

func (g gatedSearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	g.visit()
	return g.Searcher.Search(q, k, m)
}

// TestSubscribeSeesConcurrentInsert pins that a kNN subscription opened
// while an insert commits holds that insert. The subscription's initial
// query visits both shards; the visit to the shard the insert does not
// go to is held open until the insert has either committed or parked
// behind the mutation lock. Registration holds that lock, so the insert
// lands before the initial view is computed or after the subscription is
// registered, never in between, and the view ends up equal to a fresh
// search, which holds the inserted row at distance 0.
func TestSubscribeSeesConcurrentInsert(t *testing.T) {
	t.Parallel()
	data := randMatrix(40, 6, 43)
	var builds, held atomic.Int32
	var armed atomic.Bool
	visited, release := make(chan struct{}, 2), make(chan struct{})
	factory := func(base *vec.Matrix, _ int) (knn.Searcher, error) {
		// R = 1: New builds shard 0's one replica, then shard 1's.
		shard := builds.Add(1) - 1
		return gatedSearcher{Searcher: knn.NewStandard(base), visit: func() {
			if !armed.Load() {
				return
			}
			visited <- struct{}{}
			if shard == held.Load() {
				<-release
			}
		}}, nil
	}
	eng := newTestEngine(t, data, Options{Nodes: 2, Replicas: 1, Shards: 2, Seed: 9, Factory: factory})
	if eng.shards[0].replicas[0].node == eng.shards[1].replicas[0].node {
		t.Fatal("both shards on one node: its visits would serialize")
	}
	// Hold the visit to the shard the next insert does not go to.
	held.Store(int32(1 - eng.idRing.owner(fmt.Sprintf("id-%d", data.N))))

	const k = 3
	q := randMatrix(1, data.D, 44).Row(0)
	armed.Store(true)
	type subscribed struct {
		id  int
		err error
	}
	subDone := make(chan subscribed, 1)
	go func() {
		sub, err := eng.SubscribeKNN(q, k)
		if err != nil {
			subDone <- subscribed{err: err}
			return
		}
		subDone <- subscribed{id: sub.ID()}
	}()
	// Both shards' snapshots are pinned once their visits have begun.
	<-visited
	<-visited
	armed.Store(false)

	inserted := make(chan error, 1)
	go func() {
		_, err := eng.Insert(q)
		inserted <- err
	}()
	var insertErr error
	returned := false
	for !returned && !insertParked() {
		select {
		case insertErr = <-inserted:
			returned = true
		default:
			runtime.Gosched()
		}
	}
	close(release)
	sub := <-subDone
	if sub.err != nil {
		t.Fatalf("SubscribeKNN: %v", sub.err)
	}
	if !returned {
		insertErr = <-inserted
	}
	if insertErr != nil {
		t.Fatalf("Insert: %v", insertErr)
	}
	res, err := eng.Search(context.Background(), q, k)
	if err != nil {
		t.Fatalf("Search: %v", err)
	}
	if res.Neighbors[0].Index != data.N || res.Neighbors[0].Dist != 0 {
		t.Fatalf("fresh search %v misses the inserted row %d", res.Neighbors, data.N)
	}
	if view := eng.StandingView(sub.id); !sameNeighbors(view, res.Neighbors) {
		t.Fatalf("standing view %v, fresh search %v", view, res.Neighbors)
	}
}

// insertParked reports whether the Insert that
// TestSubscribeSeesConcurrentInsert started is blocked acquiring a
// mutex: the only one it can wait on is the mutation lock.
func insertParked() bool {
	buf := make([]byte, 1<<16)
	for n := runtime.Stack(buf, true); ; n = runtime.Stack(buf, true) {
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[sync.Mutex.Lock") &&
			strings.Contains(g, "cluster.(*Engine).Insert(") &&
			strings.Contains(g, "created by pimmine/internal/cluster.TestSubscribeSeesConcurrentInsert") {
			return true
		}
	}
	return false
}
