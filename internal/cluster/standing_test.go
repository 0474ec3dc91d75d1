package cluster

import (
	"context"
	"math/rand"
	"testing"
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
