// Mutable serving: the sharded engine layered over internal/delta's
// mutable stores. Each shard owns a delta.Store (host-side delta buffer,
// tombstones, endurance-ledgered compaction) over its slice of the
// dataset; the engine owns the global id space, routing initial ids by
// contiguous range and inserted ids round-robin. Because ids are
// allocated monotonically and every store keeps its rows in ascending
// global-id order, per-shard results are canonical under (dist, id) and
// the shard merge stays exact — byte-identical to a fresh engine built
// over the merged live dataset.
package serve

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/route"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// MutableOptions configures NewMutable.
type MutableOptions struct {
	// Options carries the shard count, variant, framework, capacity,
	// worker pool and observability wiring, with the same defaults as
	// the immutable engine. Options.Factory is ignored — mutable shards
	// must be rebuildable, so searchers come from the variant builder.
	Options

	// MaxDelta and MaxTombstoneRatio are per-shard compaction triggers
	// (see delta.Options; defaults 256 rows and 0.25).
	MaxDelta          int
	MaxTombstoneRatio float64
	// AutoCompact lets each store compact in the background when a
	// trigger trips; otherwise call Compact explicitly.
	AutoCompact bool
	// WriteBudget, when positive, meters compaction endurance: each
	// shard gets a wear-leveling ledger whose tiles allow this many
	// programming cycles. PIM variants price images in Theorem 4
	// crossbars; host variants charge one tile per image against a
	// two-tile (double-buffered) ledger. Zero disables metering.
	WriteBudget uint32

	// Durability, when Dir is set, makes the engine crash-safe: every
	// accepted mutation is appended to a write-ahead log before it is
	// applied, Checkpoint writes atomic snapshots that truncate the
	// log, and RecoverMutable rebuilds a byte-identical engine from the
	// latest snapshot plus the log tail (see internal/wal).
	Durability Durability
	// StandingBuffer is the per-subscription event channel capacity for
	// standing queries (default 16; see internal/standing).
	StandingBuffer int
}

// MutableEngine is the sharded mutable query engine: Search/SearchBatch
// stay lock-free against Insert/Update/Delete and background
// compaction, per shard, via delta's epoch snapshots. Mutations
// serialize on the engine's routing lock (mutation throughput is not
// the design target; query concurrency is).
type MutableEngine struct {
	d      int
	opts   MutableOptions
	stores []*delta.Store
	// bounds[i]..bounds[i+1] is shard i's initial contiguous id range.
	bounds []int

	mu     sync.Mutex // guards nextID, rr, routes, and store mutation order
	nextID int
	rr     int
	routes map[int]int // inserted id → shard

	// build is the variant's searcher constructor, re-run by every
	// compaction. pipe is the query path over mutableSource; its lease
	// gates mutations against Close too, so Close drains everything in
	// flight.
	build capFactory
	pipe  *Pipeline

	// degraded[i]: shard i's latest build failed and its current epoch
	// serves the host scan. Written by compaction goroutines.
	degraded []atomic.Bool

	// log is the write-ahead log (nil when Durability.Dir is unset).
	// Mutations append under e.mu before applying, so log order equals
	// apply order and replay reconstructs the exact mutation sequence.
	log  *wal.Log
	walM *wal.Metrics

	// standing is the continuous-query registry; its hooks run under
	// e.mu after each applied mutation, so every subscription observes
	// the mutations in the order the engine applied them.
	standing *standing.Registry
}

// newMutableEngine applies the option defaults for a dataset of n rows by
// d dims and returns the engine wired but with no stores yet: the
// constructors add opts.Shards of them, fresh or restored. The standing
// registry's re-query callback is the pipeline's bare fan-out — no engine
// locks — because it runs while the caller already holds e.mu (member
// deletes) and the store searches are lock-free by design.
func newMutableEngine(n, d int, opts MutableOptions) (*MutableEngine, error) {
	res, err := opts.Options.defaults(n, d)
	if err != nil {
		return nil, err
	}
	e := &MutableEngine{d: d, opts: opts, routes: make(map[int]int), degraded: make([]atomic.Bool, opts.Shards)}
	if e.build, err = variantBuilder(opts.Options); err != nil {
		return nil, err
	}
	e.pipe = opts.pipeline(mutableSource{e}, d, res, nil)
	var m *standing.Metrics
	if reg := opts.Obs.Registry(); reg != nil {
		m = standing.NewMetrics(reg)
	}
	e.standing, err = standing.NewRegistry(standing.Options{
		Requery: e.pipe.Requery, Buffer: opts.StandingBuffer, Metrics: m})
	return e, err
}

// shardDeltaOptions assembles one shard's delta.Options: how it builds
// (and degrades), what triggers its compactions, and the metrics, routing
// summary and endurance ledger that ride along.
func (e *MutableEngine) shardDeltaOptions(id, idOffset int) (delta.Options, error) {
	opts := e.opts
	dopts := delta.Options{
		// Graceful degradation mirrors the immutable engine: a variant
		// build failure (e.g. dead crossbars after fault injection)
		// falls back to the exact host scan for that epoch and is
		// reported, never fatal; the next healthy rebuild clears the
		// report. The ledger charge stands — the programming attempt
		// happened.
		Factory: func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
			srch, err := e.build(m, capacityN)
			e.degraded[id].Store(err != nil)
			if err != nil {
				return knn.NewStandard(m), nil
			}
			return srch, nil
		},
		MaxDelta:          opts.MaxDelta,
		MaxTombstoneRatio: opts.MaxTombstoneRatio,
		AutoCompact:       opts.AutoCompact,
		CapacityRows:      shardCapacity(opts.Options),
		IDOffset:          idOffset,
	}
	if reg := opts.Obs.Registry(); reg != nil {
		dopts.Metrics = delta.NewMetrics(reg, obs.Label{Key: "shard", Value: fmt.Sprint(id)})
	}
	if r := opts.Router; r != nil {
		// Summary maintenance rides the store's mutation lock: every
		// insert/update conservatively grows the shard's summary
		// before the row becomes visible, and every compaction
		// rebuilds it tight from the fresh live base image — so the
		// published summary always covers the published snapshot and
		// exact routing stays admissible through churn.
		dopts.OnMutate = func(v []float64) { r.Observe(id, v) }
		dopts.OnCompact = func(base *vec.Matrix) { r.Refresh(id, base) }
	}
	if opts.WriteBudget > 0 {
		// PIM variants price images in Theorem 4 crossbars. Host
		// variants get image-granularity accounting with double
		// buffering (the old epoch holds its tile until the last reader
		// drains).
		tiles := 2
		if opts.Framework != nil {
			model := pim.ModelFor(opts.Framework.Cfg)
			dopts.Model = &model
			tiles = opts.Framework.Cfg.NumCrossbars()
		}
		var err error
		if dopts.Ledger, err = delta.NewLedger(tiles, opts.WriteBudget); err != nil {
			return dopts, err
		}
	}
	return dopts, nil
}

// NewMutable partitions data row-wise into per-shard mutable stores.
// Rows keep their ids (0..N-1) across mutations and compactions;
// inserts extend the id space monotonically.
func NewMutable(data *vec.Matrix, opts MutableOptions) (*MutableEngine, error) {
	if data == nil || data.N == 0 {
		return nil, fmt.Errorf("serve: empty dataset")
	}
	e, err := newMutableEngine(data.N, data.D, opts)
	if err != nil {
		return nil, err
	}
	e.nextID = data.N
	s := e.opts.Shards
	base, rem := data.N/s, data.N%s
	lo := 0
	for id := 0; id < s; id++ {
		rows := base
		if id < rem {
			rows++
		}
		dopts, err := e.shardDeltaOptions(id, lo)
		if err != nil {
			return nil, err
		}
		st, err := delta.New(data.Slice(lo, lo+rows), dopts)
		if err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", id, err)
		}
		e.stores = append(e.stores, st)
		e.bounds = append(e.bounds, lo)
		lo += rows
	}
	e.bounds = append(e.bounds, lo)
	if opts.Durability.Dir != "" {
		if err := e.initDurabilityFresh(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// NumShards returns the partition count in effect.
func (e *MutableEngine) NumShards() int { return len(e.stores) }

// Router returns the attached shard router (nil when unrouted).
func (e *MutableEngine) Router() *route.Router { return e.opts.Router }

// DegradedShards returns the ids of shards whose current epoch serves
// the host fallback.
func (e *MutableEngine) DegradedShards() []int {
	var out []int
	for i := range e.degraded {
		if e.degraded[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// shardOf locates the store owning an id: initial ids by range,
// inserted ids through the routing table. Returns -1 when unknown.
func (e *MutableEngine) shardOf(id int) int {
	if id >= 0 && id < e.bounds[len(e.bounds)-1] {
		// bounds is ascending; the owning shard is the last lower bound.
		return sort.SearchInts(e.bounds, id+1) - 1
	}
	if sh, ok := e.routes[id]; ok {
		return sh
	}
	return -1
}

// checkVec pre-validates what the store would reject, so a durable
// engine never logs a record its store then refuses — log order must
// equal apply order or replay would diverge from the served history.
func (e *MutableEngine) checkVec(v []float64) error {
	if len(v) != e.d {
		return fmt.Errorf("serve: vector has %d dims, dataset has %d", len(v), e.d)
	}
	if err := quant.CheckVec(v); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// logMutation appends one record to the WAL (no-op when not durable).
// Called under e.mu, after validation and before the store apply.
func (e *MutableEngine) logMutation(op wal.Op, sh, id int, v []float64) error {
	if e.log == nil {
		return nil
	}
	if _, err := e.log.Append(wal.Record{Op: op, Shard: sh, ID: id, Vec: v}); err != nil {
		return fmt.Errorf("serve: wal append: %w", err)
	}
	return nil
}

// Insert adds a vector under a fresh global id, placing it round-robin
// across shards. The vector must be normalized (quant.CheckVec). On a
// durable engine the insert is logged (and, under wal.SyncAlways,
// fsynced) before it is applied.
func (e *MutableEngine) Insert(v []float64) (int, error) {
	release, err := e.pipe.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	if err := e.checkVec(v); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	id := e.nextID
	sh := e.rr
	if err := e.logMutation(wal.OpInsert, sh, id, v); err != nil {
		return 0, err
	}
	if err := e.stores[sh].InsertAt(id, v); err != nil {
		return 0, err
	}
	e.nextID++
	e.rr = (e.rr + 1) % len(e.stores)
	e.routes[id] = sh
	e.standing.OnInsert(id, v)
	return id, nil
}

// Update replaces the vector of an existing id in place (the id, and
// with it the tie order, is preserved).
func (e *MutableEngine) Update(id int, v []float64) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	if err := e.checkVec(v); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	sh := e.shardOf(id)
	if sh < 0 || !e.stores[sh].Has(id) {
		return fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if err := e.logMutation(wal.OpUpdate, sh, id, v); err != nil {
		return err
	}
	if err := e.stores[sh].Update(id, v); err != nil {
		return err
	}
	e.standing.OnUpdate(id, v)
	return nil
}

// Delete removes an id.
func (e *MutableEngine) Delete(id int) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	e.mu.Lock()
	defer e.mu.Unlock()
	sh := e.shardOf(id)
	if sh < 0 || !e.stores[sh].Has(id) {
		return fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if err := e.logMutation(wal.OpDelete, sh, id, nil); err != nil {
		return err
	}
	if err := e.stores[sh].Delete(id); err != nil {
		return err
	}
	delete(e.routes, id)
	e.standing.OnDelete(id)
	return nil
}

// Search answers one exact kNN query over the live rows of every shard.
// It never blocks on mutations or compactions, and runs the same
// pipeline as the immutable engine: admission control and deadline-aware
// shedding with Options.Resilience set (typed resilience.ErrOverloaded /
// resilience.ErrShedDeadline rejections), Options.QueryTimeout surfacing
// as ErrQueryTimeout.
func (e *MutableEngine) Search(ctx context.Context, q []float64, k int) (*Result, error) {
	return e.pipe.Search(ctx, q, k, route.ModeAuto)
}

// SearchMode is Search with an explicit routing mode (see
// Engine.SearchMode; the mutable engine routes over summaries kept
// fresh through churn by the delta layer's OnMutate/OnCompact hooks).
func (e *MutableEngine) SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (*Result, error) {
	return e.pipe.Search(ctx, q, k, mode)
}

// SearchBatch answers a query matrix through a bounded worker pool,
// exactly like the immutable engine's batch path.
func (e *MutableEngine) SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*BatchResult, error) {
	return e.pipe.SearchBatch(ctx, queries, k, route.ModeAuto)
}

// SearchBatchMode is SearchBatch with an explicit routing mode.
func (e *MutableEngine) SearchBatchMode(ctx context.Context, queries *vec.Matrix, k int, mode route.Mode) (*BatchResult, error) {
	return e.pipe.SearchBatch(ctx, queries, k, mode)
}

// mutableSource serves the pipeline from the engine's delta stores,
// lock-free against mutations via their epoch snapshots. It takes no
// per-shard breakers: compaction rebuilds searchers each epoch, so a
// fault-storming epoch already heals through the delta layer's
// degraded-rebuild path rather than a breaker's cool-down.
type mutableSource struct{ e *MutableEngine }

// NumShards is the configured count: the pipeline is built before the
// constructors have added the stores.
func (s mutableSource) NumShards() int     { return s.e.opts.Shards }
func (s mutableSource) Available(int) bool { return true }
func (s mutableSource) Degraded() []int    { return s.e.DegradedShards() }

func (s mutableSource) Visit(_ context.Context, _ *obs.Span, id int, q []float64, k int) (ShardAnswer, error) {
	m := arch.NewMeter()
	nn, err := s.e.stores[id].Search(q, k, m)
	return ShardAnswer{Neighbors: nn, Meter: m}, err
}

// Compact folds every shard's delta and tombstones into fresh base
// images (shards compact independently; a shard with nothing to fold is
// a no-op). The first error aborts and is returned; remaining shards
// keep their current epochs.
func (e *MutableEngine) Compact(meter *arch.Meter) error {
	release, err := e.pipe.Acquire()
	if err != nil {
		return err
	}
	defer release()
	for i, st := range e.stores {
		if err := st.Compact(meter); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates per-shard delta statistics.
func (e *MutableEngine) Stats() []delta.Stats {
	out := make([]delta.Stats, len(e.stores))
	for i, st := range e.stores {
		out[i] = st.Stats()
	}
	return out
}

// Materialize merges every shard's live rows into one matrix in
// ascending global id order with the id directory — the dataset an
// equivalent fresh engine would be built from.
func (e *MutableEngine) Materialize() (*vec.Matrix, []int) {
	type part struct {
		m   *vec.Matrix
		ids []int
	}
	parts := make([]part, len(e.stores))
	total := 0
	for i, st := range e.stores {
		m, ids := st.Materialize()
		parts[i] = part{m, ids}
		total += len(ids)
	}
	// K-way merge by ascending id (per-shard lists are already sorted).
	ids := make([]int, 0, total)
	out := vec.NewMatrix(total, e.d)
	cursor := make([]int, len(parts))
	for row := 0; row < total; row++ {
		best := -1
		for i, p := range parts {
			if cursor[i] >= len(p.ids) {
				continue
			}
			if best < 0 || p.ids[cursor[i]] < parts[best].ids[cursor[best]] {
				best = i
			}
		}
		p := parts[best]
		copy(out.Row(row), p.m.Row(cursor[best]))
		ids = append(ids, p.ids[cursor[best]])
		cursor[best]++
	}
	return out, ids
}

// Close shuts every shard store down (draining background compactions),
// closes the standing-query registry, and — on a durable engine —
// flushes and fsyncs the write-ahead log before returning, so every
// acknowledged mutation is on disk when Close hands control back.
// Idempotent: repeated Close on a non-durable engine returns nil (the
// original contract); on a durable engine it returns ErrClosed, so a
// caller retrying after a failed flush can tell "already shut down"
// from a fresh flush failure.
func (e *MutableEngine) Close() error {
	if !e.pipe.Close() {
		if e.log != nil {
			return ErrClosed
		}
		// Non-durable: closing again is harmless and keeps Close's
		// contract symmetric with the immutable engine.
		return nil
	}
	if e.standing != nil {
		e.standing.Close()
	}
	for _, st := range e.stores {
		st.Close()
	}
	if e.log != nil {
		// The log's Close fsyncs the active segment first; a failure
		// surfaces here (the engine is closed regardless — a second
		// Close reports ErrClosed, never retries the flush).
		if err := e.log.Close(); err != nil {
			return fmt.Errorf("serve: wal close: %w", err)
		}
	}
	return nil
}

// Dims returns the dataset dimensionality (the wire layer validates
// query vectors against it).
func (e *MutableEngine) Dims() int { return e.d }

// Rows returns the current live row count across shards.
func (e *MutableEngine) Rows() int {
	total := 0
	for _, st := range e.stores {
		total += st.Stats().LiveRows
	}
	return total
}

// Workers returns the effective batch worker count.
func (e *MutableEngine) Workers() int { return e.opts.Workers }
