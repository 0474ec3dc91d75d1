package cluster

import (
	"errors"
	"fmt"
	"slices"

	"pimmine/internal/delta"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
)

// Writes apply to every writable replica of the owning shard under the
// engine mutation lock. Writable is what reads serve from (current): live
// AND current. A replica that went stale while paused or partitioned
// stays excluded from writes after its node rejoins — otherwise the
// first post-rejoin write would stamp it current while it still misses
// the intermediate mutations.
// Stale replicas return to service only through Repair's snapshot ship,
// so every current replica has seen the same prefix of the same
// mutation sequence.
//
// Commit rule: a mutation commits iff at least one writable replica
// applies it. The shard version then bumps and the replicas that
// applied are stamped with it; a replica whose apply failed keeps its
// old version and is treated exactly like one that was paused for the
// write — stale, excluded from reads, re-shipped by the next Repair —
// so a divergent copy can never serve. Only when every writable replica
// fails is the mutation refused with the joined errors and no version
// change. A write that finds no writable replica at all is refused
// before touching anything: ErrRebalancing when live-but-stale replicas
// exist (anti-entropy will make a retry succeed), ErrNoQuorum when no
// replica is live.

// shardOf maps a global id to its shard: initial ids by where they were
// placed, inserted ids by the consistent-hash id ring (recorded in routes
// at insert time). An id it cannot place is delta.ErrNotFound, as on the
// serve engine.
func (e *Engine) shardOf(id int) (int, error) {
	if id >= 0 && id < len(e.owner) {
		return int(e.owner[id]), nil
	}
	if sh, ok := e.routes[id]; ok {
		return sh, nil
	}
	return 0, fmt.Errorf("cluster: %w: %d", delta.ErrNotFound, id)
}

// commitLocked runs op on every writable replica of sh and applies the
// commit rule. Caller holds e.mu.
func (e *Engine) commitLocked(sh *cshard, op func(*replica) error) error {
	reps, err := e.current(sh, slices.Clone(sh.replicas), nil)
	if err != nil {
		return err
	}
	var applied []*replica
	var errs []error
	for _, r := range reps {
		if err := op(r); err != nil {
			errs = append(errs, fmt.Errorf("node %d: %w", r.node.id, err))
			continue
		}
		applied = append(applied, r)
	}
	if len(applied) == 0 {
		return errors.Join(errs...)
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

// Insert adds a vector, assigning the next global id. The id is routed
// to a shard by consistent hash and the insert lands on every writable
// replica of that shard.
func (e *Engine) Insert(v []float64) (int, error) {
	release, err := e.pipe.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	if len(v) != e.d {
		return 0, fmt.Errorf("cluster: vector dims %d != data dims %d", len(v), e.d)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	shID := e.idRing.owner(fmt.Sprintf("id-%d", id))
	err = e.commitLocked(e.shards[shID], func(r *replica) error { return r.store.InsertAt(id, v) })
	if err != nil {
		return 0, fmt.Errorf("cluster: insert shard %d: %w", shID, err)
	}
	e.routes[id] = shID
	e.nextID++
	e.standing.OnInsert(id, v)
	return id, nil
}

// Update replaces the vector stored under id on every writable replica.
func (e *Engine) Update(id int, v []float64) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	if len(v) != e.d {
		return fmt.Errorf("cluster: vector dims %d != data dims %d", len(v), e.d)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyLocked(id, func(r *replica) error { return r.store.Update(id, v) },
		func() { e.standing.OnUpdate(id, v) })
}

// Delete tombstones id on every writable replica.
func (e *Engine) Delete(id int) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.applyLocked(id, func(r *replica) error { return r.store.Delete(id) },
		func() { e.standing.OnDelete(id) })
}

func (e *Engine) applyLocked(id int, op func(*replica) error, hook func()) error {
	shID, err := e.shardOf(id)
	if err != nil {
		return err
	}
	if err := e.commitLocked(e.shards[shID], op); err != nil {
		return fmt.Errorf("cluster: shard %d: %w", shID, err)
	}
	hook()
	return nil
}

// SubscribeKNN opens a standing k-nearest-neighbors subscription whose
// events stay lockstep-equivalent to one-shot re-queries — including
// across replica fail-over, because the requery hook serves from
// whatever current replicas survive.
func (e *Engine) SubscribeKNN(q []float64, k int) (*standing.Subscription, error) {
	release, err := e.pipe.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if len(q) != e.d {
		return nil, fmt.Errorf("cluster: query dims %d != data dims %d: %w", len(q), e.d, standing.ErrBadSubscription)
	}
	return e.standing.SubscribeKNN(q, k)
}

// SubscribeRadius opens a standing radius watch.
func (e *Engine) SubscribeRadius(q []float64, radius float64) (*standing.Subscription, error) {
	release, err := e.pipe.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if len(q) != e.d {
		return nil, fmt.Errorf("cluster: query dims %d != data dims %d: %w", len(q), e.d, standing.ErrBadSubscription)
	}
	return e.standing.SubscribeRadius(q, radius)
}

// StandingView returns a copy of a kNN subscription's current result
// view (nil for unknown or radius subscriptions).
func (e *Engine) StandingView(id int) []vec.Neighbor {
	release, err := e.pipe.Acquire()
	if err != nil {
		return nil
	}
	defer release()
	return e.standing.Current(id)
}

// Unsubscribe tears down a standing subscription. Safe on unknown ids
// and after Close (which already ended every subscription).
func (e *Engine) Unsubscribe(id int) { e.standing.Unsubscribe(id) }

// Materialize flattens the live dataset (rows ascending by global id),
// reading one current replica per shard.
func (e *Engine) Materialize() (*vec.Matrix, []int, error) {
	release, err := e.pipe.Acquire()
	if err != nil {
		return nil, nil, err
	}
	defer release()
	e.mu.Lock()
	defer e.mu.Unlock()
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
