// Mutation: every shard's delta store (host-side delta buffer,
// tombstones, endurance-ledgered compaction) takes inserts, updates and
// deletes, and a compaction rebuilds a shard through the same factory
// that built it, so Factory, breakers, retries, spans and metrics behave
// the same before and after. Every write goes through the engine's
// Writer (writer.go), the cluster's write path too: it owns the global
// id space, validation, the log and the standing hooks. This engine
// hands it two functions: place, round-robin over the shards, and
// apply, one delta.Store write. Initial ids live where route.Partition
// placed them (the router's placement, or contiguous ranges when
// unrouted). Because ids are allocated monotonically and every store
// keeps its rows in ascending global-id order, per-shard results are
// canonical under (dist, id) and the shard merge stays exact —
// byte-identical to a fresh engine built over the merged live dataset.
package serve

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// MutableOptions configures NewMutable.
type MutableOptions struct {
	// Options carries the shard count, variant or factory, framework,
	// capacity, batch workers, resilience and observability wiring, with
	// the same defaults and meaning as for New; a compaction rebuilds
	// its shard through the same Factory or variant.
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

// MutableEngine is another name for Engine: there is one engine type,
// and a static engine is one that nobody mutates. The name stays because
// the end-to-end benchmark (bench/e2e, a module of its own) compiles
// against it.
type MutableEngine = Engine

// newMutableEngine applies the option defaults for a dataset of n rows by
// d dims, lets fill build the opts.Shards stores (fresh or restored) into
// the engine's shard slots, and wires the query path and the write path
// over them. fill returns the ids each shard holds and the id the next
// insert takes.
func newMutableEngine(n, d int, opts MutableOptions, fill func(*Engine) (parts [][]int, nextID int, err error)) (*Engine, error) {
	res, err := opts.Options.defaults(n, d)
	if err != nil {
		return nil, err
	}
	build, err := opts.Options.builder()
	if err != nil {
		return nil, err
	}
	e := &Engine{d: d, opts: opts}
	e.src = newStoreSource(&e.opts.Options, res, build)
	parts, nextID, err := fill(e)
	if err != nil {
		return nil, err
	}
	e.pipe = e.opts.serve(e.src, d, res)
	e.w = NewWriter(e.pipe, parts, nextID, opts.StandingBuffer, e.place, e.apply)
	return e, nil
}

// shardDeltaOptions assembles one shard's delta.Options: how it builds
// (and degrades), what triggers its compactions, and the metrics, routing
// summary and endurance ledger that ride along.
func (e *Engine) shardDeltaOptions(id int) (delta.Options, error) {
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
func NewMutable(data *vec.Matrix, opts MutableOptions) (*Engine, error) {
	if data == nil || data.N == 0 {
		return nil, fmt.Errorf("serve: empty dataset")
	}
	e, err := newMutableEngine(data.N, data.D, opts, func(e *Engine) ([][]int, int, error) {
		parts, err := e.src.partition(data, e.opts.Router, e.shardDeltaOptions)
		return parts, data.N, err
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

// place is the serve engine's insert placement: round-robin over the
// shards, from the shard after the last insert's.
func (e *Engine) place(int, []float64) int { return e.rr }

// apply runs one write on shard sh's store and, for an insert, moves the
// round-robin past it. Live writes and WAL replay both come through
// here, so a recovered engine continues the same rotation.
func (e *Engine) apply(sh int, op wal.Op, write func(*delta.Store) error) error {
	if err := write(e.src.stores[sh]); err != nil {
		return err
	}
	if op == wal.OpInsert {
		e.rr = (sh + 1) % len(e.src.stores)
	}
	return nil
}

// Insert adds a vector under a fresh global id, placing it round-robin
// across shards (see Writer.Insert).
func (e *Engine) Insert(v []float64) (int, error) { return e.w.Insert(v) }

// Update replaces the vector of an existing id in place.
func (e *Engine) Update(id int, v []float64) error { return e.w.Update(id, v) }

// Delete removes an id.
func (e *Engine) Delete(id int) error { return e.w.Delete(id) }

// Compact folds every shard's delta and tombstones into fresh base
// images (shards compact independently; a shard with nothing to fold is
// a no-op). The first error aborts and is returned; remaining shards
// keep their current epochs.
func (e *Engine) Compact(meter *arch.Meter) error {
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
func (e *Engine) Stats() []delta.Stats {
	out := make([]delta.Stats, len(e.src.stores))
	for i, st := range e.src.stores {
		out[i] = st.Stats()
	}
	return out
}

// Materialize merges every shard's live rows into one matrix in
// ascending global id order with the id directory — the dataset an
// equivalent fresh engine would be built from.
func (e *Engine) Materialize() (*vec.Matrix, []int) {
	return delta.MaterializeAll(e.src.stores)
}
