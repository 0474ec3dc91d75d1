// Mutable serving: the sharded engine whose delta stores (host-side delta
// buffer, tombstones, endurance-ledgered compaction) take mutations. The
// shards are the static engine's — the same storeSource, so Factory,
// breakers, retries, spans and metrics behave identically — and a
// compaction rebuilds a shard through the same factory. The engine owns
// the global id space: initial ids live where route.Partition placed them
// (the router's placement, or contiguous ranges when unrouted), inserted
// ids round-robin. Because ids are allocated monotonically and
// every store keeps its rows in ascending global-id order, per-shard
// results are canonical under (dist, id) and the shard merge stays exact
// — byte-identical to a fresh engine built over the merged live dataset.
package serve

import (
	"context"
	"fmt"
	"sync"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
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
	// Options carries the shard count, variant or factory, framework,
	// capacity, worker pool, resilience and observability wiring, with
	// the same defaults and meaning as on the immutable engine; a
	// compaction rebuilds its shard through the same Factory or variant.
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
	d    int
	opts MutableOptions
	src  *storeSource // the shards: one delta store each
	// owner[id] is the shard initial id id was placed on (nil on a
	// recovered engine, whose ids all live in routes).
	owner []int32

	mu     sync.Mutex // guards nextID, rr, routes, and store mutation order
	nextID int
	rr     int
	routes map[int]int // inserted id → shard

	// pipe is the query path over src; its lease gates mutations against
	// Close too, so Close drains everything in flight.
	pipe *Pipeline

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
// d dims, lets fill build the opts.Shards stores (fresh or restored) into
// the engine's shard slots, and wires the query path over them. The
// standing registry's re-query callback is the pipeline's bare fan-out —
// no engine locks — because it runs while the caller already holds e.mu
// (member deletes) and the store searches are lock-free by design.
func newMutableEngine(n, d int, opts MutableOptions, fill func(*MutableEngine) error) (*MutableEngine, error) {
	res, err := opts.Options.defaults(n, d)
	if err != nil {
		return nil, err
	}
	build, err := opts.Options.builder()
	if err != nil {
		return nil, err
	}
	e := &MutableEngine{d: d, opts: opts, routes: make(map[int]int)}
	e.src = newStoreSource(&e.opts.Options, res, build)
	if err := fill(e); err != nil {
		return nil, err
	}
	e.pipe = e.opts.serve(e.src, d, res)
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
func (e *MutableEngine) shardDeltaOptions(id int) (delta.Options, error) {
	opts := e.opts
	dopts := delta.Options{
		Factory:           e.src.factory(id),
		MaxDelta:          opts.MaxDelta,
		MaxTombstoneRatio: opts.MaxTombstoneRatio,
		AutoCompact:       opts.AutoCompact,
		CapacityRows:      shardCapacity(opts.Options),
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
	e, err := newMutableEngine(data.N, data.D, opts, func(e *MutableEngine) error {
		e.nextID = data.N
		place, err := e.src.partition(data, e.opts.Router, e.shardDeltaOptions)
		if err != nil {
			return err
		}
		e.owner = make([]int32, data.N)
		for sh, ids := range place {
			for _, id := range ids {
				e.owner[id] = int32(sh)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if opts.Durability.Dir != "" {
		if err := e.initDurabilityFresh(); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// NumShards returns the partition count in effect.
func (e *MutableEngine) NumShards() int { return len(e.src.stores) }

// Router returns the attached shard router (nil when unrouted).
func (e *MutableEngine) Router() *route.Router { return e.opts.Router }

// DegradedShards returns the ids of shards whose current epoch serves
// the host fallback.
func (e *MutableEngine) DegradedShards() []int { return e.src.Degraded() }

// shardOf locates the store owning an id: initial ids by where they were
// placed, inserted ids through the routing table. Returns -1 when unknown.
func (e *MutableEngine) shardOf(id int) int {
	if id >= 0 && id < len(e.owner) {
		return int(e.owner[id])
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
	if err := e.src.stores[sh].InsertAt(id, v); err != nil {
		return 0, err
	}
	e.nextID++
	e.rr = (e.rr + 1) % len(e.src.stores)
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
	if sh < 0 || !e.src.stores[sh].Has(id) {
		return fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if err := e.logMutation(wal.OpUpdate, sh, id, v); err != nil {
		return err
	}
	if err := e.src.stores[sh].Update(id, v); err != nil {
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
	if sh < 0 || !e.src.stores[sh].Has(id) {
		return fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if err := e.logMutation(wal.OpDelete, sh, id, nil); err != nil {
		return err
	}
	if err := e.src.stores[sh].Delete(id); err != nil {
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
	for i, st := range e.src.stores {
		if err := st.Compact(meter); err != nil {
			return fmt.Errorf("serve: shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats aggregates per-shard delta statistics.
func (e *MutableEngine) Stats() []delta.Stats {
	out := make([]delta.Stats, len(e.src.stores))
	for i, st := range e.src.stores {
		out[i] = st.Stats()
	}
	return out
}

// Materialize merges every shard's live rows into one matrix in
// ascending global id order with the id directory — the dataset an
// equivalent fresh engine would be built from.
func (e *MutableEngine) Materialize() (*vec.Matrix, []int) {
	return delta.MaterializeAll(e.src.stores)
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
	closeStores(e.src.stores)
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
	for _, st := range e.src.stores {
		total += st.Stats().LiveRows
	}
	return total
}

// Workers returns the effective batch worker count.
func (e *MutableEngine) Workers() int { return e.opts.Workers }
