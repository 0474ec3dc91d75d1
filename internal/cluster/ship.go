package cluster

import (
	"errors"
	"fmt"

	"pimmine/internal/delta"
	"pimmine/internal/wal"
)

// Snapshot shipping moves a shard replica between nodes as an encoded
// PIMSNAP1 image — the same CRC-framed format the durability layer
// writes to disk, so a shipped replica is byte-for-byte the image a
// crash recovery would install. The transfer is priced like any other
// data movement in this repo: bytes over a link running at
// Options.LinkGBs (GB/s == bytes/ns), accumulated in ShipStats and the
// pim_cluster_ship_* metrics. Installing the image programs the target
// node's crossbars, so the target's wear counter advances — which is
// exactly what Repair and Rebalance consult to pick the least-worn
// destination.

// shipLocked copies sh's state from src onto node dst and returns the
// installed replica. Caller holds the mutation lock. The source node
// must be up and its link to dst intact.
func (e *Engine) shipLocked(sh *cshard, src *replica, dst *node) (*replica, error) {
	if src.node.state.Load() != nodeUp {
		return nil, fmt.Errorf("cluster: ship shard %d from node %d: %w", sh.id, src.node.id, ErrNodeDown)
	}
	if !e.reachable(src.node.id, dst.id) {
		return nil, fmt.Errorf("cluster: ship shard %d: link %d->%d severed", sh.id, src.node.id, dst.id)
	}
	data, ids := src.store.Materialize()
	snap := &wal.Snapshot{
		Dims:   e.d,
		NextID: src.store.NextID(),
		RR:     0,
		Shards: []wal.ShardState{{IDs: ids, Data: append([]float64(nil), data.Data...)}},
	}
	img := wal.EncodeSnapshot(snap)
	dec, err := wal.DecodeSnapshot(img)
	if err != nil {
		return nil, fmt.Errorf("cluster: ship shard %d: %w", sh.id, err)
	}
	st, err := restoreShard(dec, 0, e.replicaDeltaOptions(sh.id))
	if err != nil {
		return nil, fmt.Errorf("cluster: install shard %d on node %d: %w", sh.id, dst.id, err)
	}
	bytes := int64(len(img))
	ns := float64(bytes) / e.opts.LinkGBs
	e.shipMu.Lock()
	e.ship.Ships++
	e.ship.Bytes += bytes
	e.ship.ModeledNs += ns
	e.shipMu.Unlock()
	e.met.shipped(bytes, ns)
	dst.wear.Add(1)
	e.met.wearAdd(dst.id, 1)
	rep := &replica{node: dst, store: st}
	rep.version.Store(src.version.Load())
	return rep, nil
}

// restoreShard turns one decoded snapshot shard into a delta store.
func restoreShard(snap *wal.Snapshot, shard int, opts delta.Options) (*delta.Store, error) {
	ss := snap.Shards[shard]
	m := matrixFrom(ss.Data, snap.Dims)
	return delta.Restore(m, ss.IDs, snap.NextID, opts)
}

// Repair is anti-entropy: every shard is brought back to R current
// replicas — stale copies on live nodes are replaced, missing copies
// are shipped to the least-worn eligible node. Returns the number of
// snapshot installs performed. A shard with no live current replica at
// all cannot be repaired and contributes an ErrNoQuorum to the joined
// error; the other shards are still repaired.
func (e *Engine) Repair() (int, error) {
	unlock, err := e.w.Lock()
	if err != nil {
		return 0, err
	}
	defer unlock()
	ships := 0
	var errs []error
	for _, sh := range e.shards {
		n, err := e.repairShardLocked(sh)
		ships += n
		if err != nil {
			errs = append(errs, err)
		}
	}
	if ships > 0 {
		e.met.add(e.met.repairs, int64(ships))
	}
	return ships, errors.Join(errs...)
}

func (e *Engine) repairShardLocked(sh *cshard) (int, error) {
	cur := sh.version.Load()
	var src *replica
	for _, r := range sh.replicas {
		if e.nodeLive(r.node) && r.version.Load() >= cur {
			src = r
			break
		}
	}
	if src == nil {
		return 0, fmt.Errorf("cluster: repair shard %d: %w", sh.id, ErrNoQuorum)
	}
	ships := 0
	// Replace stale replicas on live nodes in place.
	for i, r := range sh.replicas {
		if r == src || r.version.Load() >= cur || !e.nodeLive(r.node) {
			continue
		}
		fresh, err := e.shipLocked(sh, src, r.node)
		if err != nil {
			continue // unreachable from src right now; a later Repair retries
		}
		old := r
		sh.mu.Lock()
		sh.replicas[i] = fresh
		sh.mu.Unlock()
		old.store.Close()
		ships++
	}
	// Ship missing replicas to the least-worn eligible nodes.
	for e.liveReplicaCountLocked(sh) < e.opts.Replicas {
		dst := e.leastWornTargetLocked(sh, src)
		if dst == nil {
			break // nowhere eligible; R stays degraded until topology heals
		}
		fresh, err := e.shipLocked(sh, src, dst)
		if err != nil {
			break
		}
		sh.mu.Lock()
		sh.replicas = append(sh.replicas, fresh)
		sh.mu.Unlock()
		ships++
	}
	return ships, nil
}

func (e *Engine) liveReplicaCountLocked(sh *cshard) int {
	n := 0
	for _, r := range sh.replicas {
		if r.node.state.Load() != nodeDown {
			n++
		}
	}
	return n
}

// leastWornTargetLocked picks the least-worn up node that does not
// already hold a replica of sh and is reachable from src.
func (e *Engine) leastWornTargetLocked(sh *cshard, src *replica) *node {
	holds := make(map[int]bool, len(sh.replicas))
	for _, r := range sh.replicas {
		holds[r.node.id] = true
	}
	var best *node
	for _, n := range e.nodes {
		if n.state.Load() != nodeUp || holds[n.id] || !e.reachable(src.node.id, n.id) {
			continue
		}
		if best == nil || n.wear.Load() < best.wear.Load() ||
			(n.wear.Load() == best.wear.Load() && n.id < best.id) {
			best = n
		}
	}
	return best
}

// Rebalance performs one endurance-leveling move: among all replicas,
// it moves one off the most-worn node onto the least-worn node that
// could take it, and returns whether a move happened. Wear only grows
// on install, so repeated calls converge instead of ping-ponging.
func (e *Engine) Rebalance() (bool, error) {
	unlock, err := e.w.Lock()
	if err != nil {
		return false, err
	}
	defer unlock()
	// Find the most-worn node hosting at least one movable replica.
	var worst *node
	for _, n := range e.nodes {
		if n.state.Load() != nodeUp {
			continue
		}
		if worst == nil || n.wear.Load() > worst.wear.Load() {
			worst = n
		}
	}
	if worst == nil {
		return false, ErrNoQuorum
	}
	for _, sh := range e.shards {
		cur := sh.version.Load()
		for i, r := range sh.replicas {
			if r.node != worst || r.version.Load() < cur {
				continue
			}
			dst := e.leastWornTargetLocked(sh, r)
			if dst == nil || dst.wear.Load()+1 >= worst.wear.Load() {
				continue // the move would not level anything
			}
			fresh, err := e.shipLocked(sh, r, dst)
			if err != nil {
				continue
			}
			sh.mu.Lock()
			sh.replicas[i] = fresh
			sh.mu.Unlock()
			r.store.Close()
			e.met.inc(e.met.rebalances)
			return true, nil
		}
	}
	return false, nil
}
