// Durability for a mutated engine: WAL-before-apply mutations,
// checkpoint snapshots that truncate the log, and crash recovery that
// rebuilds a byte-identical engine. The exactness argument mirrors the
// delta layer's differential goldens: search transcripts depend only on
// the live row set (global ids plus Float64bits), which is exactly what
// a snapshot image plus the replayed log tail reconstructs — compaction
// timing, delta/tombstone split and epoch counters need not survive the
// crash.
package serve

import (
	"errors"
	"fmt"
	"os"
	"time"

	"pimmine/internal/delta"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Durability configures the WAL + snapshot layer of an engine.
// The zero value (empty Dir) disables durability.
type Durability struct {
	// Dir is the directory holding wal-*.seg segments and
	// snap-*.pimsnap checkpoint images. Setting it enables durability.
	Dir string
	// Policy is the fsync cadence (default wal.SyncAlways: a mutation
	// is durable before it is applied or acknowledged).
	Policy wal.SyncPolicy
	// SyncEvery is the wal.SyncInterval period (default 100ms).
	SyncEvery time.Duration
	// SegmentBytes is the log rotation threshold (default 4 MiB).
	SegmentBytes int64
	// Fsync, when non-nil, replaces the file sync call — the failure
	// injection hook the shutdown regression tests use.
	Fsync func(*os.File) error
}

func (d Durability) walOptions(m *wal.Metrics) wal.Options {
	return wal.Options{
		Policy:       d.Policy,
		SyncEvery:    d.SyncEvery,
		SegmentBytes: d.SegmentBytes,
		Fsync:        d.Fsync,
		Metrics:      m,
	}
}

// Durability sentinels.
var (
	// ErrNotDurable reports a durability operation on an engine built
	// without Durability.Dir.
	ErrNotDurable = errors.New("serve: engine has no durability configured")
	// ErrDurableState reports NewMutable pointed at a directory that
	// already holds recoverable state — refusing protects the existing
	// log from being silently forked; use RecoverMutable.
	ErrDurableState = errors.New("serve: durability directory already holds state (use RecoverMutable)")
	// ErrNoDurableState reports RecoverMutable pointed at a directory
	// with nothing to recover.
	ErrNoDurableState = errors.New("serve: durability directory holds no recoverable state")
)

// initDurabilityFresh opens the log for a newly built engine and seeds
// the directory with an LSN-0 snapshot of the initial dataset, so
// recovery always starts from a snapshot. A directory already holding
// state is refused.
func (e *Engine) initDurabilityFresh() error {
	d := e.opts.Durability
	if _, err := wal.LatestSnapshot(d.Dir); err == nil {
		return ErrDurableState
	} else if !errors.Is(err, wal.ErrNoSnapshot) {
		return err
	}
	e.walM = wal.NewMetrics(e.opts.Obs.Registry())
	log, last, err := wal.Open(d.Dir, d.walOptions(e.walM))
	if err != nil {
		return err
	}
	if last != 0 {
		log.Close()
		return ErrDurableState
	}
	if err := e.writeSnapshot(0); err != nil {
		log.Close()
		return err
	}
	e.w.log = log
	return nil
}

// writeSnapshot materializes every shard and writes the checkpoint
// image covering LSN lsn. Caller must hold the mutation lock or have
// exclusive use of the engine.
func (e *Engine) writeSnapshot(lsn int64) error {
	s := &wal.Snapshot{LSN: lsn, Dims: e.d, NextID: e.w.nextID, RR: e.rr}
	for _, st := range e.src.stores {
		m, ids := st.Materialize()
		s.Shards = append(s.Shards, wal.ShardState{IDs: ids, Data: m.Data})
	}
	if err := wal.WriteSnapshot(e.opts.Durability.Dir, s); err != nil {
		return err
	}
	if e.walM != nil {
		e.walM.Snapshots.Inc()
	}
	return nil
}

// Checkpoint seals the active log segment, writes an atomic snapshot of
// the current live state, and truncates the log and older snapshots the
// new image makes redundant. Mutations stall for the duration (the
// durability analogue of a compaction pause); queries do not.
func (e *Engine) Checkpoint() error {
	unlock, err := e.w.Lock()
	if err != nil {
		return err
	}
	defer unlock()
	log := e.w.log
	if log == nil {
		return ErrNotDurable
	}
	lsn := log.NextLSN() - 1
	if err := log.Rotate(); err != nil {
		return fmt.Errorf("serve: checkpoint rotate: %w", err)
	}
	if err := e.writeSnapshot(lsn); err != nil {
		return fmt.Errorf("serve: checkpoint snapshot: %w", err)
	}
	if err := log.TruncateBefore(lsn); err != nil {
		return fmt.Errorf("serve: checkpoint truncate: %w", err)
	}
	if err := wal.RemoveSnapshotsBefore(e.opts.Durability.Dir, lsn); err != nil {
		return fmt.Errorf("serve: checkpoint cleanup: %w", err)
	}
	return nil
}

// RecoverMutable rebuilds an engine from its durability
// directory: the latest valid snapshot image restores every shard (each
// re-running the Theorem 4 sizing and re-tightening routing summaries
// through the same hooks a compaction uses), then the log tail strictly
// after the snapshot LSN is replayed — re-firing OnMutate per record,
// so conservative summary growth is reproduced too. A torn final record
// (crash mid-append) is discarded exactly as wal.Open defines;
// corruption anywhere else refuses recovery with the typed error.
//
// The recovered engine serves byte-identical transcripts to the
// pre-crash engine across every mining task: its live row set (global
// ids + Float64bits) is reconstructed exactly, and the delta
// differential goldens prove transcripts depend on nothing else.
func RecoverMutable(opts MutableOptions) (*Engine, error) {
	d := opts.Durability
	if d.Dir == "" {
		return nil, ErrNotDurable
	}
	snap, err := wal.LatestSnapshot(d.Dir)
	if err != nil {
		if errors.Is(err, wal.ErrNoSnapshot) {
			return nil, ErrNoDurableState
		}
		return nil, err
	}
	totalLive := 0
	for _, sh := range snap.Shards {
		totalLive += len(sh.IDs)
	}
	// The snapshot fixes the shard count, whatever the live row count, so
	// it is also the row count defaults clamps shards against.
	s := len(snap.Shards)
	opts.Shards = s
	if opts.CapacityN <= 0 {
		opts.CapacityN = max(totalLive, 1)
	}
	e, err := newMutableEngine(s, snap.Dims, opts, func(e *Engine) ([][]int, int, error) {
		e.rr = snap.RR
		parts := make([][]int, s)
		for id, sh := range snap.Shards {
			dopts, err := e.shardDeltaOptions(id)
			if err != nil {
				return nil, 0, err
			}
			m := &vec.Matrix{N: len(sh.IDs), D: snap.Dims, Data: sh.Data}
			if e.src.stores[id], err = delta.Restore(m, sh.IDs, snap.NextID, dopts); err != nil {
				return nil, 0, fmt.Errorf("serve: restoring shard %d: %w", id, err)
			}
			parts[id] = sh.IDs
		}
		return parts, snap.NextID, nil
	})
	if err != nil {
		return nil, err
	}
	e.walM = wal.NewMetrics(e.opts.Obs.Registry())
	// Open first: it truncates a torn tail, so replay below sees a
	// clean log and new appends land on a record boundary.
	log, _, err := wal.Open(d.Dir, d.walOptions(e.walM))
	if err != nil {
		closeStores(e.src.stores)
		return nil, err
	}
	start := time.Now()
	replayed := 0
	err = wal.Replay(d.Dir, snap.LSN, func(lsn int64, rec wal.Record) error {
		replayed++
		return e.w.replay(rec)
	})
	if err != nil {
		log.Close()
		closeStores(e.src.stores)
		return nil, fmt.Errorf("serve: replaying wal: %w", err)
	}
	e.w.log = log
	if e.walM != nil {
		e.walM.ReplayedRecords.Set(int64(replayed))
		e.walM.ReplaySeconds.Observe(time.Since(start).Seconds())
	}
	return e, nil
}

// SubscribeKNN registers a standing k-nearest-neighbor query (see
// Writer.SubscribeKNN).
func (e *Engine) SubscribeKNN(q []float64, k int) (*standing.Subscription, error) {
	return e.w.SubscribeKNN(q, k)
}

// SubscribeRadius registers a radius watch: a KindMatch event for every
// future insert within Euclidean distance radius of q.
func (e *Engine) SubscribeRadius(q []float64, radius float64) (*standing.Subscription, error) {
	return e.w.SubscribeRadius(q, radius)
}

// Unsubscribe removes a standing subscription and closes its event
// channel. Safe on unknown ids and after Close.
func (e *Engine) Unsubscribe(id int) { e.w.Unsubscribe(id) }

// StandingView returns a copy of a kNN subscription's current result
// view (nil for radius watches or unknown ids).
func (e *Engine) StandingView(id int) []vec.Neighbor { return e.w.StandingView(id) }
