package cluster

import (
	"errors"
	"fmt"
	"slices"

	"pimmine/internal/delta"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Every write goes through the engine's serve.Writer, the serve engine's
// write path too: it validates the vector once, looks the id up in its
// directory (an insert: places it on the id ring), and holds the one
// mutation lock that admin ops, Repair, Rebalance and Materialize also
// take. commitLocked is the apply it calls. A write applies to every
// writable replica of the owning shard. Writable is what reads serve
// from (current): live AND current. A replica that went stale while
// paused or partitioned stays excluded from writes after its node
// rejoins — otherwise the first post-rejoin write would stamp it current
// while it still misses the intermediate mutations. Stale replicas
// return to service only through Repair's snapshot ship, so every
// current replica has seen the same prefix of the same mutation
// sequence.
//
// Commit rule: a mutation commits iff at least one writable replica
// applies it. The shard version then bumps and the replicas that
// applied are stamped with it; a replica whose apply failed keeps its
// old version and is treated exactly like one that was paused for the
// write — stale, excluded from reads, re-shipped by the next Repair —
// so a divergent copy can never serve. Only when every writable replica
// fails is the mutation refused with the joined errors, no version
// change and no change to the writer's directory. A write that finds no
// writable replica at all is refused before touching anything:
// ErrRebalancing when live-but-stale replicas exist (anti-entropy will
// make a retry succeed), ErrNoQuorum when no replica is live.

// commitLocked runs write on every writable replica of shard id and
// applies the commit rule. It is the apply function the engine hands its
// serve.Writer, which calls it under the mutation lock.
func (e *Engine) commitLocked(id int, _ wal.Op, write func(*delta.Store) error) error {
	sh := e.shards[id]
	reps, err := e.current(sh, slices.Clone(sh.replicas), nil)
	if err != nil {
		return fmt.Errorf("cluster: shard %d: %w", id, err)
	}
	var applied []*replica
	var errs []error
	for _, r := range reps {
		if err := write(r.store); err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", r.node.id, err))
			continue
		}
		applied = append(applied, r)
	}
	if len(applied) == 0 {
		return fmt.Errorf("cluster: shard %d: %w", id, errors.Join(errs...))
	}
	ver := sh.version.Load() + 1
	for _, r := range applied {
		r.version.Store(ver)
	}
	sh.version.Store(ver)
	if len(errs) > 0 {
		// Failed replicas stay at the old version: stale, excluded
		// from reads and writes, re-shipped by the next Repair.
		e.met.inc(e.met.degradedWrites)
	}
	return nil
}

// Materialize flattens the live dataset (rows ascending by global id),
// reading one current replica per shard.
func (e *Engine) Materialize() (*vec.Matrix, []int, error) {
	unlock, err := e.w.Lock()
	if err != nil {
		return nil, nil, err
	}
	defer unlock()
	stores := make([]*delta.Store, len(e.shards))
	for i, sh := range e.shards {
		reps, err := e.current(sh, slices.Clone(sh.replicas), nil)
		if err != nil {
			return nil, nil, fmt.Errorf("cluster: shard %d: %w", sh.id, err)
		}
		stores[i] = reps[0].store
	}
	out, ids := delta.MaterializeAll(stores)
	return out, ids, nil
}
