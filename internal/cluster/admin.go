package cluster

import (
	"fmt"
	"slices"
	"time"
)

// Admin operations drive the failure model; the chaos harness calls
// them, and operators (or tests) can too. All placement-affecting ops
// take the writer's mutation lock (serve.Writer.Lock), the lock every
// write holds, so reads always observe a consistent replica list.

func (e *Engine) nodeByID(id int) (*node, error) {
	if id < 0 || id >= len(e.nodes) {
		return nil, fmt.Errorf("cluster: node %d outside 0..%d", id, len(e.nodes)-1)
	}
	return e.nodes[id], nil
}

// KillNode takes a node down hard: its replicas are destroyed (stores
// closed), as if the DIMM lost power. Shards it hosted drop below R
// until Repair re-ships them. Killing a dead node is a no-op.
func (e *Engine) KillNode(id int) error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return err
	}
	if n.state.Load() == nodeDown {
		return nil
	}
	e.killLocked(n)
	return nil
}

// killLocked destroys n's replicas and marks it down. Caller holds the
// mutation lock.
func (e *Engine) killLocked(n *node) {
	n.state.Store(nodeDown)
	for _, sh := range e.shards {
		sh.mu.Lock()
		kept := sh.replicas[:0]
		for _, r := range sh.replicas {
			if r.node == n {
				r.store.Close()
				continue
			}
			kept = append(kept, r)
		}
		sh.replicas = kept
		sh.mu.Unlock()
	}
	e.met.inc(e.met.kills)
	e.met.nodesUp(e.NodesUp())
}

// RestoreNode brings a killed or paused node back up, empty. Replicas
// it lost come back only through Repair (anti-entropy re-replication).
func (e *Engine) RestoreNode(id int) error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return err
	}
	n.state.Store(nodeUp)
	e.met.nodesUp(e.NodesUp())
	return nil
}

// PauseNode stops a node serving reads and receiving writes but keeps
// its state; under churn its replicas go stale and are excluded from
// reads until Repair catches them up. Pausing a dead node is an error.
func (e *Engine) PauseNode(id int) error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return err
	}
	if n.state.Load() == nodeDown {
		return fmt.Errorf("cluster: pause node %d: %w", id, ErrNodeDown)
	}
	n.state.Store(nodePaused)
	e.met.nodesUp(e.NodesUp())
	return nil
}

// UnpauseNode resumes a paused node. Its replicas rejoin reads only if
// still current (no writes landed meanwhile) — otherwise Repair must
// re-ship first.
func (e *Engine) UnpauseNode(id int) error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return err
	}
	if n.state.Load() == nodeDown {
		return fmt.Errorf("cluster: unpause node %d: %w", id, ErrNodeDown)
	}
	n.state.Store(nodeUp)
	e.met.nodesUp(e.NodesUp())
	return nil
}

// SlowNode injects extra per-visit dwell on a node (0 clears it).
func (e *Engine) SlowNode(id int, d time.Duration) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	n, err := e.nodeByID(id)
	if err != nil {
		return err
	}
	if n.state.Load() == nodeDown {
		return fmt.Errorf("cluster: slow node %d: %w", id, ErrNodeDown)
	}
	n.slow.Store(int64(d))
	return nil
}

// InjectFaults makes the node's next count shard visits fail, feeding
// its breaker; reads fail over to replicas, bit-identically.
func (e *Engine) InjectFaults(id, count int) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	n, err := e.nodeByID(id)
	if err != nil {
		return err
	}
	if n.state.Load() == nodeDown {
		return fmt.Errorf("cluster: inject faults node %d: %w", id, ErrNodeDown)
	}
	n.faults.Store(int64(count))
	return nil
}

// SetLink severs or heals one direction of a link. from/to of -1
// address the coordinator, so SetLink(-1, 3, false) makes node 3
// unreachable for queries and writes (an asymmetric partition: node 3
// could still ship snapshots out if its outbound links are up).
func (e *Engine) SetLink(from, to int, up bool) error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	if from < -1 || from >= len(e.nodes) || to < -1 || to >= len(e.nodes) {
		return fmt.Errorf("cluster: link %d->%d outside -1..%d", from, to, len(e.nodes)-1)
	}
	e.links[from+1][to+1].Store(up)
	return nil
}

// HealLinks restores every link.
func (e *Engine) HealLinks() error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	for i := range e.links {
		for j := range e.links[i] {
			e.links[i][j].Store(true)
		}
	}
	return nil
}

// NodeState describes one node for introspection and the chaos harness.
type NodeState struct {
	ID        int
	Up        bool
	Paused    bool
	Reachable bool // coordinator -> node link
	Wear      int64
	Replicas  int
}

// Nodes returns a snapshot of node states.
func (e *Engine) Nodes() []NodeState {
	out := make([]NodeState, len(e.nodes))
	counts := make([]int, len(e.nodes))
	for _, sh := range e.shards {
		for _, r := range sh.snapshot() {
			counts[r.node.id]++
		}
	}
	for i, n := range e.nodes {
		s := n.state.Load()
		out[i] = NodeState{
			ID:        i,
			Up:        s == nodeUp,
			Paused:    s == nodePaused,
			Reachable: e.reachable(-1, i),
			Wear:      n.wear.Load(),
			Replicas:  counts[i],
		}
	}
	return out
}

// disableResult reports what a check-and-disable helper did.
type disableResult int

const (
	disableApplied   disableResult = iota
	disableRedundant               // node already in the requested state
	disableUnsafe                  // would leave a shard with no live current replica
)

// The *IfSafe helpers decide quorum safety and apply the state change
// under one hold of the mutation lock: checking canDisable and then
// calling KillNode/PauseNode/SetLink separately would let a concurrent
// admin op or write invalidate the check in between. The chaos harness
// routes every disabling step through these so its safety bound ("a
// query issued at any point between steps can always be answered")
// holds even against concurrent mutation.

// killNodeIfSafe kills node id iff it is not already down and (force or
// quorum-safe).
func (e *Engine) killNodeIfSafe(id int, force bool) (disableResult, error) {
	unlock, err := e.w.Lock()
	if err != nil {
		return 0, err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return 0, err
	}
	if n.state.Load() == nodeDown {
		return disableRedundant, nil
	}
	if !force && !e.canDisable(id) {
		return disableUnsafe, nil
	}
	e.killLocked(n)
	return disableApplied, nil
}

// pauseNodeIfSafe pauses node id iff it is up and (force or quorum-safe).
func (e *Engine) pauseNodeIfSafe(id int, force bool) (disableResult, error) {
	unlock, err := e.w.Lock()
	if err != nil {
		return 0, err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return 0, err
	}
	if n.state.Load() != nodeUp {
		return disableRedundant, nil
	}
	if !force && !e.canDisable(id) {
		return disableUnsafe, nil
	}
	n.state.Store(nodePaused)
	e.met.nodesUp(e.NodesUp())
	return disableApplied, nil
}

// severCoordLinkIfSafe severs the coordinator->id link iff it is intact,
// the node is up, and (force or quorum-safe).
func (e *Engine) severCoordLinkIfSafe(id int, force bool) (disableResult, error) {
	unlock, err := e.w.Lock()
	if err != nil {
		return 0, err
	}
	defer unlock()
	n, err := e.nodeByID(id)
	if err != nil {
		return 0, err
	}
	if !e.reachable(-1, id) {
		return disableRedundant, nil
	}
	if n.state.Load() != nodeUp || (!force && !e.canDisable(id)) {
		return disableUnsafe, nil
	}
	e.links[0][id+1].Store(false)
	return disableApplied, nil
}

// canDisable reports whether taking node id out of service (kill,
// pause, or partition from the coordinator) leaves every shard at least
// one live, reachable, current replica. Callers that act on the answer
// must hold the mutation lock across check and action (see the *IfSafe helpers).
func (e *Engine) canDisable(id int) bool {
	for _, sh := range e.shards {
		others := slices.DeleteFunc(sh.snapshot(), func(r *replica) bool { return r.node.id == id })
		if _, err := e.current(sh, others, nil); err != nil {
			return false
		}
	}
	return true
}
