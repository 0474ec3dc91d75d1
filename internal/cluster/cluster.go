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
// Reads pick, per shard, the least-loaded current replica on a live,
// reachable node (breaker-approved first; breakers are ignored on the
// second pass because serving an exact answer beats protecting a node).
// Writes apply to every writable (live and current) replica under the
// engine mutation lock; replicas on paused or partitioned nodes go stale
// (their version falls behind the shard's) and are excluded from reads
// and later writes until anti-entropy (Repair) ships them a fresh
// PIMSNAP1 snapshot — the same image format
// the durability layer uses on disk, priced against the inter-node link
// bandwidth like any other data movement. Typed errors tell callers what
// retrying buys: ErrNoQuorum (no live replica at all), ErrRebalancing
// (replicas exist but are stale — anti-entropy will catch them up),
// ErrNodeDown (an admin op addressed a dead node).
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
type Factory = delta.Factory

// Options configures a cluster engine.
type Options struct {
	// Nodes is the simulated PIM node count (default 4).
	Nodes int
	// Replicas is R, the copies kept per shard (default min(2, Nodes)).
	// New rejects explicitly-set Replicas > Nodes.
	Replicas int
	// Shards partitions the id space (default Nodes, clamped to the row
	// count like serve.Engine).
	Shards int
	// VirtualNodes per ring member (default 16).
	VirtualNodes int
	// Seed perturbs the placement rings (default 1).
	Seed int64
	// Workers bounds SearchBatch fan-out (default GOMAXPROCS).
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
	// LinkGBs prices inter-node snapshot shipping, in GB/s == bytes/ns
	// (default 12.5, i.e. a 100 Gb/s fabric — deliberately slower than
	// arch.Config.InternalBusGBs: crossing nodes costs more than
	// crossing a bus).
	LinkGBs float64
	// NodeServiceTime simulates per-shard-visit dwell on a node; a
	// node's visits serialize, which is what makes goodput scale with
	// node count in the ext-cluster sweep (default 0: no dwell).
	NodeServiceTime time.Duration
	// MaxDelta / MaxTombstoneRatio configure each replica's delta store
	// (defaults 256 / 0.25).
	MaxDelta          int
	MaxTombstoneRatio float64
	// StandingBuffer sizes standing-subscription event channels.
	StandingBuffer int
	// Obs exports pim_cluster_* metrics when set.
	Obs *obs.Observer
}

type node struct {
	id       int
	mu       sync.Mutex // serializes this node's shard visits (one PIM pipeline)
	state    atomic.Int32
	slow     atomic.Int64 // injected extra dwell, ns
	faults   atomic.Int64 // injected search failures remaining
	wear     atomic.Int64 // crossbar programmings (replica installs)
	inflight atomic.Int64
	breaker  *resilience.Breaker
}

var errInjectedFault = errors.New("cluster: injected node fault")

// visit runs one shard search on the node, holding its pipeline.
func (n *node) visit(ctx context.Context, st *delta.Store, q []float64, k int, dwell time.Duration, m *arch.Meter) ([]vec.Neighbor, error) {
	n.inflight.Add(1)
	defer n.inflight.Add(-1)
	n.mu.Lock()
	defer n.mu.Unlock()
	if d := dwell + time.Duration(n.slow.Load()); d > 0 {
		time.Sleep(d)
	}
	if f := n.faults.Load(); f > 0 && n.faults.CompareAndSwap(f, f-1) {
		return nil, errInjectedFault
	}
	return st.Search(ctx, q, k, m)
}

type replica struct {
	node    *node
	store   *delta.Store
	version atomic.Uint64 // last mutation applied (or snapshot version installed)
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
	initialN int // rows in the initial image (ids below this use bounds)
	opts     Options
	nodes    []*node
	breakers *resilience.BreakerSet // one breaker per node
	shards   []*cshard
	bounds   []int // initial contiguous id range starts, bounds[i] = lo of shard i
	idRing   *ring // inserted ids -> shards

	// links[from][to]: directed reachability; index 0 is the
	// coordinator/host, 1+i is node i. Asymmetric partitions sever
	// individual directions.
	links [][]atomic.Bool

	mu     sync.Mutex // mutation + placement lock
	nextID int
	routes map[int]int // inserted id -> shard

	// pipe is the query path; its lease gates mutations and admin
	// operations against Close as well.
	pipe *serve.Pipeline

	standing *standing.Registry
	met      *metrics

	shipMu sync.Mutex
	ship   ShipStats
}

// ShipStats accumulates snapshot-shipping traffic and its modeled cost.
type ShipStats struct {
	// Ships counts replica installs from a shipped snapshot.
	Ships int
	// Bytes is total encoded PIMSNAP1 bytes moved between nodes.
	Bytes int64
	// ModeledNs is the transfer time those bytes cost at LinkGBs.
	ModeledNs float64
}

// New builds the placement layer over data. The initial image is split
// into contiguous shard ranges exactly like serve.Engine (so routed and
// unrouted engines agree shard-for-shard); each shard is then installed
// on its R preferred nodes.
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
	if opts.VirtualNodes <= 0 {
		opts.VirtualNodes = 16
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
	if opts.LinkGBs <= 0 {
		opts.LinkGBs = 12.5
	}
	if opts.MaxDelta <= 0 {
		opts.MaxDelta = 256
	}
	if opts.MaxTombstoneRatio <= 0 {
		opts.MaxTombstoneRatio = 0.25
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

	e := &Engine{
		d:        data.D,
		initialN: data.N,
		opts:     opts,
		nextID:   data.N,
		routes:   make(map[int]int),
	}
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

	nodeRing := newRing(opts.Nodes, opts.VirtualNodes, opts.Seed)
	e.idRing = newRing(opts.Shards, opts.VirtualNodes, opts.Seed+1)

	e.shards = make([]*cshard, opts.Shards)
	e.bounds = make([]int, opts.Shards)
	base, rem := data.N/opts.Shards, data.N%opts.Shards
	lo := 0
	for id := 0; id < opts.Shards; id++ {
		rows := base
		if id < rem {
			rows++
		}
		sh := &cshard{id: id}
		part := data.Slice(lo, lo+rows)
		for _, nid := range nodeRing.pref(fmt.Sprintf("shard-%d", id), opts.Replicas) {
			st, err := delta.New(part, e.replicaDeltaOptions(id, lo))
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
		e.bounds[id] = lo
		lo += rows
	}
	e.met.nodesUp(opts.Nodes)

	e.pipe = serve.NewPipeline(source{e}, data.D, opts.Router, opts.Workers)
	// The requery hook runs under e.mu via the mutation hooks, so it is
	// the pipeline's bare fan-out: it must not re-acquire engine locks.
	reg, err := standing.NewRegistry(standing.Options{Requery: e.pipe.Requery, Buffer: opts.StandingBuffer})
	if err != nil {
		e.closeStores()
		return nil, err
	}
	e.standing = reg
	return e, nil
}

func (e *Engine) replicaDeltaOptions(shardID, lo int) delta.Options {
	return delta.Options{
		Factory:           e.opts.Factory,
		MaxDelta:          e.opts.MaxDelta,
		MaxTombstoneRatio: e.opts.MaxTombstoneRatio,
		IDOffset:          lo,
	}
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

// Workers returns the batch fan-out width.
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

// Wear returns per-node crossbar-programming counts (replica installs).
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
		for _, r := range sh.snapshot() {
			if r.version.Load() >= sh.version.Load() {
				total += r.store.Stats().LiveRows
				break
			}
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
		e.standing.Close()
		e.closeStores()
	}
	return nil
}

// searchShard serves one shard from the best available replica.
//
// Pass 1 considers replicas that are current, on a live reachable node,
// and whose breaker admits the call, least-loaded first. Pass 2 drops
// the breaker condition: an open breaker reroutes load while healthy
// replicas exist, but never costs an exact answer. A replica whose
// store fails (injected fault, closed by a concurrent kill) feeds its
// breaker and the next candidate is tried — bit-identical replicas make
// that fail-over invisible in the result.
func (e *Engine) searchShard(ctx context.Context, sh *cshard, q []float64, k int) (serve.ShardAnswer, error) {
	reps := sh.snapshot()
	cur := sh.version.Load()
	avail := reps[:0:0]
	for _, r := range reps {
		if e.nodeLive(r.node) && r.version.Load() >= cur {
			avail = append(avail, r)
		}
	}
	if len(avail) == 0 {
		if len(reps) > 0 {
			// Live hosts may exist but hold stale copies: anti-entropy
			// will catch them up, so tell the caller to retry.
			for _, r := range reps {
				if e.nodeLive(r.node) {
					e.met.inc(e.met.rebalancing)
					return serve.ShardAnswer{}, ErrRebalancing
				}
			}
		}
		e.met.inc(e.met.noQuorum)
		return serve.ShardAnswer{}, ErrNoQuorum
	}
	// Least-loaded first; ties keep preference order. Replicas are
	// bit-identical, so balancing is free — it is also what keeps
	// goodput ≥ 80% after a node kill (the dead node's visits spread
	// over every survivor instead of doubling one neighbor).
	sort.SliceStable(avail, func(i, j int) bool {
		return avail[i].node.inflight.Load() < avail[j].node.inflight.Load()
	})
	res := serve.ShardAnswer{Meter: arch.NewMeter()}
	var errs []error
	// Pass 1: breaker-approved candidates. Pass 2: ignore breakers.
	for pass := 0; pass < 2; pass++ {
		for i, r := range avail {
			if r == nil {
				continue
			}
			done := func(bool) {}
			if pass == 0 {
				d, err := r.node.breaker.Allow()
				if err != nil {
					res.BreakerOpen = true
					continue
				}
				done = d
			}
			nn, err := r.node.visit(ctx, r.store, q, k, e.opts.NodeServiceTime, res.Meter)
			done(err == nil)
			if err != nil {
				errs = append(errs, fmt.Errorf("node %d: %w", r.node.id, err))
				res.BreakerOpen = true
				avail[i] = nil
				continue
			}
			if res.BreakerOpen {
				e.met.inc(e.met.failovers)
			}
			res.Neighbors = nn
			return res, nil
		}
	}
	errs = append(errs, ErrNoQuorum)
	e.met.inc(e.met.noQuorum)
	return serve.ShardAnswer{}, errors.Join(errs...)
}

// shardServable reports whether a shard has at least one current
// replica on a live, reachable node — the availability predicate exact
// routing seeds τ from, so a dead best shard cannot stall the plan. A
// shard with no live replica only fails a routed query if its bound says
// it could hold a top-k row — routing proves dead shards out of the
// answer.
func (e *Engine) shardServable(id int) bool {
	sh := e.shards[id]
	cur := sh.version.Load()
	for _, r := range sh.snapshot() {
		if e.nodeLive(r.node) && r.version.Load() >= cur {
			return true
		}
	}
	return false
}

// source is the pipeline's view of the cluster: a shard visit is
// searchShard's replica pick (a fail-over is reported as the answer's
// BreakerOpen); no shard is ever build-degraded.
type source struct{ e *Engine }

func (s source) NumShards() int        { return len(s.e.shards) }
func (s source) Available(id int) bool { return s.e.shardServable(id) }
func (s source) Degraded() []int       { return nil }

func (s source) Visit(ctx context.Context, _ *obs.Span, id int, q []float64, k int) (serve.ShardAnswer, error) {
	return s.e.searchShard(ctx, s.e.shards[id], q, k)
}

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
	return e.pipe.SearchBatch(ctx, queries, k, route.ModeAuto)
}
