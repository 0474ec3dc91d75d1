package exp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/cluster"
	"pimmine/internal/knn"
	"pimmine/internal/vec"
)

func init() {
	register("ext-cluster", ExtCluster)
}

// Cluster-experiment shape: a fixed shard count is placed over a
// growing fleet of simulated PIM nodes, each node a serialized pipeline
// running the real searchers unpaced — no service-time sleep — so a
// node's capacity is CPU time and goodput can scale with the node count
// only as far as the runner has CPUs to give the extra nodes. The final
// cell re-runs the largest fleet and kills one node mid-window: R-way
// replication plus least-inflight replica selection must absorb the
// loss with every surviving answer still bit-exact.
var clusterWindow = raceScale * 300 * time.Millisecond

const clusterShards = 8

// ExtCluster measures goodput versus node count on the multi-node
// placement layer, then mid-sweep-kills a node at the largest fleet.
// Every success is verified exact against the sequential scan; failures
// must be the typed cluster sentinels (tolerated only as a transient
// around the kill instant).
func ExtCluster(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "ext-cluster",
		Title:  fmt.Sprintf("Goodput vs node count, R=%d replication, one mid-run node kill (MSD, k=10)", s.Replicas),
		Header: []string{"Nodes", "Replicas", "Clients", "Attempts", "Goodput qps", "OK", "Typed fail", "Scaling"},
	}
	const k = 10
	ds, err := s.Data("MSD")
	if err != nil {
		return nil, err
	}
	nq := 4 * s.Queries
	queries := ds.Queries(nq, s.Seed+303)
	exact := knn.NewStandard(ds.X)
	truth := make([][]vec.Neighbor, queries.N)
	for qi := 0; qi < queries.N; qi++ {
		truth[qi] = exact.Search(queries.Row(qi), k, arch.NewMeter())
	}

	reps := func(nodes int) int {
		r := s.Replicas
		if r > nodes {
			r = nodes
		}
		return r
	}
	build := func(nodes int) (*cluster.Engine, error) {
		return cluster.New(ds.X, cluster.Options{
			Nodes:    nodes,
			Replicas: reps(nodes),
			Shards:   clusterShards,
			Seed:     s.Seed,
			Obs:      s.Obs,
		})
	}

	type cell struct {
		attempts int64
		ok       int64
		typed    int64
	}
	runCell := func(eng *cluster.Engine, clients int, mid func()) (*cell, error) {
		// Warm-up outside the measured window.
		for i := 0; i < 8; i++ {
			if _, err := eng.Search(context.Background(), queries.Row(i%queries.N), k); err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
		c := &cell{}
		var untyped atomic.Value
		stop := time.Now().Add(clusterWindow)
		var timer *time.Timer
		if mid != nil {
			timer = time.AfterFunc(clusterWindow/2, mid)
		}
		var wg sync.WaitGroup
		for w := 0; w < clients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; time.Now().Before(stop); i++ {
					qi := (w + i*clients) % queries.N
					res, err := eng.Search(context.Background(), queries.Row(qi), k)
					atomic.AddInt64(&c.attempts, 1)
					switch {
					case err == nil:
						for j := range truth[qi] {
							if res.Neighbors[j] != truth[qi][j] {
								untyped.Store(fmt.Errorf("query %d inexact under placement", qi))
								return
							}
						}
						atomic.AddInt64(&c.ok, 1)
					case errors.Is(err, cluster.ErrNoQuorum), errors.Is(err, cluster.ErrRebalancing):
						// A read can race the kill instant; typed and
						// transient, so counted, never fatal.
						atomic.AddInt64(&c.typed, 1)
					default:
						untyped.Store(fmt.Errorf("untyped cluster error: %w", err))
						return
					}
				}
			}(w)
		}
		wg.Wait()
		if timer != nil {
			timer.Stop()
		}
		if err, ok := untyped.Load().(error); ok && err != nil {
			return nil, err
		}
		return c, nil
	}

	maxNodes := s.Nodes
	if maxNodes < 1 {
		maxNodes = 1
	}
	var sweep []int
	for n := 1; n <= maxNodes; n *= 2 {
		sweep = append(sweep, n)
	}
	goodputs := make(map[int]float64, len(sweep))
	for _, nodes := range sweep {
		eng, err := build(nodes)
		if err != nil {
			return nil, err
		}
		clients := 2 * nodes
		c, err := runCell(eng, clients, nil)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("ext-cluster %d nodes: %w", nodes, err)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		goodput := float64(c.ok) / clusterWindow.Seconds()
		goodputs[nodes] = goodput
		t.AddRow(
			fmt.Sprintf("%d", nodes),
			fmt.Sprintf("%d", reps(nodes)),
			fmt.Sprintf("%d", clients),
			fmt.Sprintf("%d", c.attempts),
			fmt.Sprintf("%.0f", goodput),
			pctShare(c.ok, c.attempts),
			pctShare(c.typed, c.attempts),
			fmt.Sprintf("%.2fx", goodput/goodputs[1]),
		)
	}

	// Mid-run kill at the largest fleet: one node dies halfway through
	// the window, chosen by the seeded chaos draw.
	last := sweep[len(sweep)-1]
	retained := 100.0
	if last > 1 && reps(last) > 1 {
		eng, err := build(last)
		if err != nil {
			return nil, err
		}
		victim := rand.New(rand.NewSource(s.ChaosSeed)).Intn(last)
		var killErr atomic.Value
		c, err := runCell(eng, 2*last, func() {
			if err := eng.KillNode(victim); err != nil {
				killErr.Store(err)
			}
		})
		if err == nil {
			if e, ok := killErr.Load().(error); ok && e != nil {
				err = fmt.Errorf("mid-run kill: %w", e)
			}
		}
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("ext-cluster kill cell: %w", err)
		}
		if err := eng.Close(); err != nil {
			return nil, err
		}
		goodput := float64(c.ok) / clusterWindow.Seconds()
		retained = 100 * goodput / goodputs[last]
		t.AddRow(
			fmt.Sprintf("%d (node %d killed mid-run)", last, victim),
			fmt.Sprintf("%d", reps(last)),
			fmt.Sprintf("%d", 2*last),
			fmt.Sprintf("%d", c.attempts),
			fmt.Sprintf("%.0f", goodput),
			pctShare(c.ok, c.attempts),
			pctShare(c.typed, c.attempts),
			fmt.Sprintf("%.0f%% retained", retained),
		)
	}
	t.Note("unpaced: fixed %d shards placed by consistent hashing, each shard visit costing its real search and no service-time sleep, so node scaling is bounded by the runner's CPUs (GOMAXPROCS %d); closed-loop clients, every success verified exact against the sequential scan",
		clusterShards, runtime.GOMAXPROCS(0))
	t.Note("kill cell: one node destroyed mid-window; R-way replicas plus least-inflight selection absorb the loss with answers bit-identical throughout (retention is timing-dependent and reported as measured)")
	return t, nil
}

// pctShare formats n/total as a percentage.
func pctShare(n, total int64) string {
	if total == 0 {
		return "0.0%"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(n)/float64(total))
}
