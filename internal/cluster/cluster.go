// Package cluster is the multi-node placement layer: the sharded exact
// engine generalized so every shard lives as R bit-identical replicas on
// simulated PIM nodes. Shards are placed on nodes by a consistent-hash
// ring (R-distinct-node preference lists), inserted ids are routed onto
// shards by a second ring over the id space, and every replica of a
// shard applies the same mutation sequence to an identical delta.Store —
// which is the whole correctness story: any current replica returns
// Float64bits-identical neighbors, so fail-over (node kill, pause,
// partition, breaker-open) never changes an answer, only who computes
// it. The differential goldens in diff_test.go pin that across all six
// mining tasks with any single node down.
//
// Queries run through serve.Pipeline, which opens each visited shard's
// "shard N" span. Under it a read picks the least-loaded current replica
// (current: live, reachable node and version ≥ the shard's — one rule
// for reads and writes) in a cluster.pick-replica span that records every
// replica passed over and why, breaker-approved first (breakers are
// ignored on the second pass because serving an exact answer beats
// protecting a node). Each replica tried is one serve.Attempt, the serve
// engines' store attempt, so a node's breaker counts errors and PIM-fault
// meters alike. With Options.Obs set the cluster traces engine.search →
// shard N → cluster.pick-replica → knn.* and exports the pipeline's
// pim_serve_* and pim_route_* metrics beside its own pim_cluster_* ones.
//
// Writes go through a serve.Writer, the serve engine's write path, and
// apply to every writable (live and current) replica under its mutation
// lock. A replica whose delta trigger trips (delta's 256 rows, or
// tombstones above a quarter of its base) folds in that same commit,
// and the fold counts in its node's wear as an install does. Replicas on
// paused or partitioned nodes go stale (their version falls behind the
// shard's) and are excluded from reads and later writes until
// anti-entropy (Repair) ships them a fresh PIMSNAP1 snapshot — the same
// image format the durability layer uses on disk, priced against the
// inter-node link bandwidth like any other data movement. Typed errors
// tell callers what retrying buys: ErrNoQuorum (no live replica at all),
// ErrRebalancing (replicas exist but are stale — anti-entropy will catch
// them up), ErrNodeDown (an admin op addressed a dead node).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
)

// Typed placement-layer errors. All three surface through netserve's
// sentinel→status table as 503s; ErrNoQuorum and ErrRebalancing carry
// Retry-After (anti-entropy or a node restore can make a retry succeed),
// ErrNodeDown does not (a dead node stays dead until something repairs
// the cluster).
var (
	// ErrNoQuorum reports that a shard has no replica on any live,
	// reachable node (reads), or no writable replica (writes).
	ErrNoQuorum = errors.New("cluster: no live replica for shard")
	// ErrNodeDown reports an operation addressed to a node that is down.
	ErrNodeDown = errors.New("cluster: node is down")
	// ErrRebalancing reports that a shard's surviving replicas are all
	// stale or mid-install; anti-entropy will catch them up — retry.
	ErrRebalancing = errors.New("cluster: shard replicas stale, rebalancing")
)

// Node states.
const (
	nodeUp int32 = iota
	nodePaused
	nodeDown
)

// Factory builds the per-replica base searcher, mirroring delta.Options.
// The searcher must be safe for concurrent use (see delta.Factory).
type Factory = delta.Factory

const (
	// virtualNodes is how many points each member takes on a placement
	// ring.
	virtualNodes = 16
	// linkGBs prices inter-node snapshot shipping, in GB/s == bytes/ns: a
	// 100 Gb/s fabric, deliberately slower than arch.Config.InternalBusGBs
	// (crossing nodes costs more than crossing a bus).
	linkGBs = 12.5
)

// Options configures a cluster engine.
type Options struct {
	// Nodes is the simulated PIM node count (default 4).
	Nodes int
	// Replicas is R, the copies kept per shard (default min(2, Nodes)).
	// New rejects explicitly-set Replicas > Nodes.
	Replicas int
	// Shards partitions the id space (default Nodes, clamped to the row
	// count as serve.Options.Shards is).
	Shards int
	// Seed perturbs the placement rings (default 1).
	Seed int64
	// Workers bounds SearchBatch: how many of its queries are in flight
	// at once (default GOMAXPROCS).
	Workers int
	// Factory builds each replica's base searcher (default exact host
	// scan, knn.NewStandard).
	Factory Factory
	// Router enables sketch-routed fan-out. Must cover exactly Shards
	// shards over the same dimensionality.
	Router *route.Router
	// Breaker configures the per-node circuit breakers; the zero value
	// disables them.
	Breaker resilience.BreakerConfig
	// StandingBuffer sizes standing-subscription event channels.
	StandingBuffer int
	// Obs, when set, exports the pim_cluster_* metrics and the query
	// pipeline's, and samples span trees (see the package comment).
	Obs *obs.Observer
}

type node struct {
	id       int
	mu       sync.Mutex // serializes this node's shard visits (one PIM pipeline)
	state    atomic.Int32
	slow     atomic.Int64 // injected extra dwell, ns
	faults   atomic.Int64 // injected search failures remaining
	wear     atomic.Int64 // crossbar programmings (replica installs and folds)
	inflight atomic.Int64
	breaker  *resilience.Breaker
}

var errInjectedFault = errors.New("cluster: injected node fault")

type replica struct {
	node    *node
	store   *delta.Store
	version atomic.Uint64 // last mutation applied (or snapshot version installed)
}

// search is one store search on r's node, holding the node's pipeline:
// an injected slow-down dwells first, and an injected fault fails the
// visit before the store is touched.
func (r *replica) search(ctx context.Context, q []float64, k int, ceiling float64, m *arch.Meter) ([]vec.Neighbor, error) {
	n := r.node
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if d := time.Duration(n.slow.Load()); d > 0 {
		time.Sleep(d)
	}
	if f := n.faults.Load(); f > 0 && n.faults.CompareAndSwap(f, f-1) {
		return nil, errInjectedFault
	}
	return r.store.Search(ctx, q, k, ceiling, m)
}

type cshard struct {
	id      int
	version atomic.Uint64 // bumps once per applied mutation
	mu      sync.RWMutex  // guards the replicas slice (placement changes)
	// replicas in ring-preference order; reads rotate by load.
	replicas []*replica
}

func (sh *cshard) snapshot() []*replica {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	out := make([]*replica, len(sh.replicas))
	copy(out, sh.replicas)
	return out
}

// Engine is a multi-node placement layer over replicated shard stores.
// It keeps placement, versioning and replica selection; queries run
// through the same serve.Pipeline as the single-process engines, over a
// shard source that visits the best available replica.
type Engine struct {
	d        int
	opts     Options
	nodes    []*node
	breakers *resilience.BreakerSet // one breaker per node
	shards   []*cshard
	idRing   *ring // inserted ids -> shards

	// links[from][to]: directed reachability; index 0 is the
	// coordinator/host, 1+i is node i. Asymmetric partitions sever
	// individual directions.
	links [][]atomic.Bool

	// pipe is the query path; its lease gates mutations and admin
	// operations against Close as well.
	pipe *serve.Pipeline
	// w is the write path: the id directory, validation, standing
	// queries, and the mutation lock that also orders placement changes.
	w   *serve.Writer
	met *metrics

	shipMu sync.Mutex
	ship   ShipStats
}

// ShipStats accumulates snapshot-shipping traffic and its modeled cost.
type ShipStats struct {
	// Ships counts replica installs from a shipped snapshot.
	Ships int
	// Bytes is total encoded PIMSNAP1 bytes moved between nodes.
	Bytes int64
	// ModeledNs is the transfer time those bytes cost at linkGBs.
	ModeledNs float64
}

// New builds the placement layer over data. The initial image is split
// into shards exactly as serve.New and serve.NewMutable split it
// (route.Partition: the router's placement, or contiguous ranges when
// unrouted), so the engines agree shard for shard; each shard is then
// installed on its R preferred nodes.
func New(data *vec.Matrix, opts Options) (*Engine, error) {
	if data == nil || data.N == 0 {
		return nil, fmt.Errorf("cluster: empty dataset")
	}
	if opts.Nodes == 0 {
		opts.Nodes = 4
	}
	if opts.Nodes < 0 {
		return nil, fmt.Errorf("cluster: node count %d must be positive", opts.Nodes)
	}
	if opts.Replicas == 0 {
		opts.Replicas = min(2, opts.Nodes)
	}
	if opts.Replicas < 0 {
		return nil, fmt.Errorf("cluster: replica count %d must be positive", opts.Replicas)
	}
	if opts.Replicas > opts.Nodes {
		return nil, fmt.Errorf("cluster: replicas %d > nodes %d", opts.Replicas, opts.Nodes)
	}
	if opts.Shards == 0 {
		opts.Shards = opts.Nodes
	}
	if opts.Shards < 0 {
		return nil, fmt.Errorf("cluster: shard count %d must be positive", opts.Shards)
	}
	if opts.Shards > data.N {
		opts.Shards = data.N
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Factory == nil {
		opts.Factory = func(base *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewStandard(base), nil
		}
	}
	if opts.Router != nil {
		if opts.Router.NumShards() != opts.Shards {
			return nil, fmt.Errorf("cluster: router covers %d shards, engine has %d: %w",
				opts.Router.NumShards(), opts.Shards, route.ErrShardMismatch)
		}
		if opts.Router.Dims() != data.D {
			return nil, fmt.Errorf("cluster: router dims %d != data dims %d: %w",
				opts.Router.Dims(), data.D, route.ErrShardMismatch)
		}
	}

	place, err := route.Partition(opts.Router, data.N, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	e := &Engine{d: data.D, opts: opts}
	e.met = newMetrics(opts.Obs, opts.Nodes)

	e.breakers = resilience.NewBreakerSet(opts.Nodes, opts.Breaker)
	e.nodes = make([]*node, opts.Nodes)
	for i := range e.nodes {
		e.nodes[i] = &node{id: i, breaker: e.breakers.Get(i)}
	}
	e.links = make([][]atomic.Bool, opts.Nodes+1)
	for i := range e.links {
		e.links[i] = make([]atomic.Bool, opts.Nodes+1)
		for j := range e.links[i] {
			e.links[i][j].Store(true)
		}
	}

	nodeRing := newRing(opts.Nodes, virtualNodes, opts.Seed)
	e.idRing = newRing(opts.Shards, virtualNodes, opts.Seed+1)

	e.shards = make([]*cshard, opts.Shards)
	for id, ids := range place {
		sh := &cshard{id: id}
		part := data.Rows(ids)
		for _, nid := range nodeRing.pref(fmt.Sprintf("shard-%d", id), opts.Replicas) {
			dopts := e.replicaDeltaOptions(id)
			dopts.IDs = ids
			st, err := delta.New(part, dopts)
			if err != nil {
				e.closeStores()
				return nil, fmt.Errorf("cluster: shard %d replica on node %d: %w", id, nid, err)
			}
			n := e.nodes[nid]
			n.wear.Add(1)
			e.met.wearAdd(nid, 1)
			sh.replicas = append(sh.replicas, &replica{node: n, store: st})
		}
		e.shards[id] = sh
	}
	e.met.nodesUp(opts.Nodes)

	e.pipe = serve.NewPipeline(source{e}, data.D, opts.Router, opts.Workers, opts.Obs)
	// Inserted ids go to the shard the id ring names.
	placeID := func(id int, _ []float64) int { return e.idRing.owner(fmt.Sprintf("id-%d", id)) }
	e.w = serve.NewWriter(e.pipe, place, data.N, opts.StandingBuffer, placeID, e.commitLocked)
	return e, nil
}

// replicaDeltaOptions configures one replica's store of shard id, on
// delta's default triggers; commitLocked folds it when one trips. With a
// router, every inserted or updated row grows the shard's summary before
// it becomes visible, and every fold or shipped install rebuilds the
// summary tight from the live image, as on the serve engine, so exact
// routing never skips a shard that holds a written row.
func (e *Engine) replicaDeltaOptions(id int) delta.Options {
	dopts := delta.Options{Factory: e.opts.Factory}
	if r := e.opts.Router; r != nil {
		dopts.OnMutate = func(v []float64) { r.Observe(id, v) }
		dopts.OnCompact = func(base *vec.Matrix) { r.Refresh(id, base) }
	}
	return dopts
}

func (e *Engine) closeStores() {
	for _, sh := range e.shards {
		if sh == nil {
			continue
		}
		for _, r := range sh.replicas {
			r.store.Close()
		}
	}
}

// reachable reports directed link state; from/to index -1 addresses the
// coordinator.
func (e *Engine) reachable(from, to int) bool {
	return e.links[from+1][to+1].Load()
}

func (e *Engine) nodeLive(n *node) bool {
	return n.state.Load() == nodeUp && e.reachable(-1, n.id)
}

// Dims returns the vector dimensionality.
func (e *Engine) Dims() int { return e.d }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.shards) }

// NumNodes returns the node count.
func (e *Engine) NumNodes() int { return len(e.nodes) }

// Replicas returns R.
func (e *Engine) Replicas() int { return e.opts.Replicas }

// Workers returns the SearchBatch in-flight bound.
func (e *Engine) Workers() int { return e.opts.Workers }

// Router returns the optional shard router.
func (e *Engine) Router() *route.Router { return e.opts.Router }

// NodesUp counts nodes currently up (ignoring partitions).
func (e *Engine) NodesUp() int {
	up := 0
	for _, n := range e.nodes {
		if n.state.Load() == nodeUp {
			up++
		}
	}
	return up
}

// Wear returns per-node crossbar-programming counts: one per replica
// installed on the node (built or shipped) and one per fold of a replica
// it holds.
func (e *Engine) Wear() []int64 {
	out := make([]int64, len(e.nodes))
	for i, n := range e.nodes {
		out[i] = n.wear.Load()
	}
	return out
}

// ShipStats returns cumulative snapshot-shipping traffic.
func (e *Engine) ShipStats() ShipStats {
	e.shipMu.Lock()
	defer e.shipMu.Unlock()
	return e.ship
}

// Rows returns the live row count, summed over one current replica per
// shard (replicas are identical, so any current one is authoritative).
func (e *Engine) Rows() int {
	total := 0
	for _, sh := range e.shards {
		if reps, err := e.current(sh, sh.snapshot(), nil); err == nil {
			total += reps[0].store.Stats().LiveRows
		}
	}
	return total
}

// BreakerStates returns each node's circuit-breaker state (all
// StateClosed when breakers are disabled).
func (e *Engine) BreakerStates() []resilience.State {
	return e.breakers.States()
}

// Close shuts the engine: in-flight operations finish first, then
// standing subscriptions end and every replica store closes.
func (e *Engine) Close() error {
	if e.pipe.Close() {
		_ = e.w.Close() // no log to flush, so it cannot fail
		e.closeStores()
	}
	return nil
}

// current is the replica-currency rule: it filters reps — sh's replicas
// in preference order, a copy the caller owns — in place down to those
// that may serve reads and take writes: on a live, reachable node and at
// sh's version. Each replica dropped is recorded on sp (nil: not
// recorded). With none left the error says what a retry buys:
// ErrRebalancing when a live replica is merely stale (anti-entropy will
// catch it up), ErrNoQuorum when none is live.
func (e *Engine) current(sh *cshard, reps []*replica, sp *obs.Span) ([]*replica, error) {
	cur := sh.version.Load()
	out, live := reps[:0], false
	for _, r := range reps {
		switch {
		case !e.nodeLive(r.node):
			skip(sp, r, "node down or unreachable")
		case r.version.Load() < cur:
			live = true
			skip(sp, r, "stale")
		default:
			out = append(out, r)
		}
	}
	switch {
	case len(out) > 0:
		return out, nil
	case live:
		return nil, ErrRebalancing
	}
	return nil, ErrNoQuorum
}

// skip records on a cluster.pick-replica span that r was passed over,
// and why.
func skip(sp *obs.Span, r *replica, why string) {
	if sp != nil {
		sp.Annotate("skip", obs.A("node", r.node.id), obs.A("reason", why))
	}
}

// searchShard serves one shard from the best current replica, under a
// cluster.pick-replica span naming the node that answered and every
// replica passed over.
//
// Pass 1 tries the current replicas least-loaded first, each as one
// serve.Attempt behind its node's breaker. Pass 2 drops the breaker: an
// open breaker reroutes load while healthy replicas exist, but never
// costs an exact answer. A replica whose visit fails (injected fault,
// closed by a concurrent kill) feeds its breaker and the next candidate
// is tried — bit-identical replicas make that fail-over invisible in the
// result.
func (e *Engine) searchShard(ctx context.Context, sh *cshard, q []float64, k int, ceiling float64) (serve.ShardAnswer, error) {
	ctx, sp := obs.StartSpan(ctx, "cluster.pick-replica")
	defer sp.End()
	avail, err := e.current(sh, sh.snapshot(), sp)
	if err != nil {
		if errors.Is(err, ErrRebalancing) {
			e.met.inc(e.met.rebalancing)
		} else {
			e.met.inc(e.met.noQuorum)
		}
		return serve.ShardAnswer{}, err
	}
	// Least-loaded first; ties keep preference order. Replicas are
	// bit-identical, so balancing is free — it is also what keeps
	// goodput up after a node kill (the dead node's visits spread over
	// every survivor instead of doubling one neighbor).
	sort.SliceStable(avail, func(i, j int) bool {
		return avail[i].node.inflight.Load() < avail[j].node.inflight.Load()
	})
	var errs []error
	failedOver := false
	for pass := 0; pass < 2; pass++ {
		for i, r := range avail {
			if r == nil {
				continue
			}
			br := r.node.breaker
			if pass == 1 {
				br = nil
			}
			ans, _, err := serve.Attempt(ctx, r.search, br, nil, q, k, ceiling)
			if err != nil {
				failedOver = true
				if errors.Is(err, resilience.ErrCircuitOpen) {
					skip(sp, r, "breaker open")
					continue
				}
				skip(sp, r, "error: "+err.Error())
				errs = append(errs, fmt.Errorf("node %d: %w", r.node.id, err))
				avail[i] = nil
				continue
			}
			if failedOver {
				e.met.inc(e.met.failovers)
			}
			sp.SetAttr("node", r.node.id)
			ans.BreakerOpen = failedOver
			return ans, nil
		}
	}
	errs = append(errs, ErrNoQuorum)
	e.met.inc(e.met.noQuorum)
	return serve.ShardAnswer{}, errors.Join(errs...)
}

// source is the pipeline's view of the cluster: a shard visit is
// searchShard's replica pick (a fail-over is reported as the answer's
// BreakerOpen), and a shard is available while it has a current replica
// — exact routing seeds τ from those, so a dead best shard cannot stall
// the plan, and a dead shard fails a routed query only if its bound says
// it could hold a top-k row. No shard is ever build-degraded.
type source struct{ e *Engine }

func (s source) NumShards() int  { return len(s.e.shards) }
func (s source) Degraded() []int { return nil }

func (s source) Available(id int) bool {
	sh := s.e.shards[id]
	_, err := s.e.current(sh, sh.snapshot(), nil)
	return err == nil
}

func (s source) Visit(ctx context.Context, id int, q []float64, k int, ceiling float64) (serve.ShardAnswer, error) {
	return s.e.searchShard(ctx, s.e.shards[id], q, k, ceiling)
}

// Insert adds a vector under the next global id, on the shard the id
// ring names; it lands on every writable replica of that shard.
func (e *Engine) Insert(v []float64) (int, error) { return e.w.Insert(v) }

// Update replaces the vector stored under id on every writable replica.
func (e *Engine) Update(id int, v []float64) error { return e.w.Update(id, v) }

// Delete removes id from every writable replica.
func (e *Engine) Delete(id int) error { return e.w.Delete(id) }

// SubscribeKNN opens a standing k-nearest-neighbors subscription whose
// events stay lockstep-equivalent to one-shot re-queries — including
// across replica fail-over, because the requery hook serves from
// whatever current replicas survive.
func (e *Engine) SubscribeKNN(q []float64, k int) (*standing.Subscription, error) {
	return e.w.SubscribeKNN(q, k)
}

// SubscribeRadius opens a standing radius watch.
func (e *Engine) SubscribeRadius(q []float64, radius float64) (*standing.Subscription, error) {
	return e.w.SubscribeRadius(q, radius)
}

// StandingView returns a copy of a kNN subscription's current result
// view (nil for unknown or radius subscriptions).
func (e *Engine) StandingView(id int) []vec.Neighbor { return e.w.StandingView(id) }

// Unsubscribe tears down a standing subscription. Safe on unknown ids
// and after Close (which already ended every subscription).
func (e *Engine) Unsubscribe(id int) { e.w.Unsubscribe(id) }

// Search returns the exact k nearest neighbors of q under the engine's
// default routing mode.
func (e *Engine) Search(ctx context.Context, q []float64, k int) (*serve.Result, error) {
	return e.SearchMode(ctx, q, k, route.ModeAuto)
}

// SearchMode is Search with an explicit routing mode, mirroring
// serve.Engine.SearchMode.
func (e *Engine) SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (*serve.Result, error) {
	e.met.inc(e.met.queries)
	return e.pipe.Search(ctx, q, k, mode)
}

// SearchBatch answers a query matrix with at most Workers queries in
// flight (see serve.Pipeline.SearchBatch).
func (e *Engine) SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*serve.BatchResult, error) {
	if queries != nil {
		e.met.add(e.met.queries, int64(queries.N))
	}
	return e.pipe.SearchBatch(ctx, queries, k)
}
