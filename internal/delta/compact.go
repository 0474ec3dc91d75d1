package delta

import (
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
)

// Stats is a point-in-time summary of the store.
type Stats struct {
	Epoch      uint64
	BaseRows   int // rows occupying crossbar cells (incl. tombstoned)
	DeltaRows  int
	Tombstones int
	LiveRows   int
	// ChosenS is the Theorem 4 compressed dimensionality of the current
	// base image (0 for host-only factories).
	ChosenS int
	// Compactions / CompactionFailures count finished compaction
	// attempts; LastCompactionS and MaxPauseS time the mutation stall
	// each one caused.
	Compactions        int
	CompactionFailures int
	LastCompactionS    float64
	MaxPauseS          float64
	// Endurance is the wear-leveling ledger snapshot, nil when the store
	// runs without endurance metering.
	Endurance *LedgerStats
}

// Stats snapshots the store's counters. It does not take the mutation
// lock, so it stays responsive mid-compaction.
func (st *Store) Stats() Stats {
	sn := st.snap.Load()
	st.statsMu.Lock()
	out := st.stats
	st.statsMu.Unlock()
	out.Epoch = sn.epoch
	out.BaseRows = len(sn.base.ids)
	out.DeltaRows = len(sn.deltaIDs)
	out.Tombstones = len(sn.tomb)
	out.LiveRows = out.BaseRows - out.Tombstones + out.DeltaRows
	out.ChosenS = sn.base.s
	if st.opts.Ledger != nil {
		ls := st.opts.Ledger.Stats()
		out.Endurance = &ls
	}
	return out
}

// needsCompaction reports whether any compaction trigger has tripped:
// delta fill, tombstone ratio, or modeled per-query delta cost.
func (st *Store) needsCompaction(sn *snapshot) bool {
	if len(sn.deltaIDs) >= st.opts.MaxDelta {
		return true
	}
	if n := len(sn.base.ids); n > 0 &&
		float64(len(sn.tomb)) > st.opts.MaxTombstoneRatio*float64(n) {
		return true
	}
	if st.opts.MaxQueryCost > 0 &&
		knn.DeltaCost(len(sn.deltaIDs), st.d, len(sn.tomb)) > st.opts.MaxQueryCost {
		return true
	}
	return false
}

// maybeCompact starts one background compaction when AutoCompact is on
// and a trigger has tripped. At most one runs at a time; mutations keep
// landing (they stall only for the final swap... in this implementation
// the compactor holds the mutation lock for the whole rebuild, so the
// stall IS the rebuild — the churn benchmark reports it as the
// compaction pause).
func (st *Store) maybeCompact() {
	if !st.opts.AutoCompact || st.closed.Load() || !st.needsCompaction(st.snap.Load()) {
		return
	}
	if !st.compacting.CompareAndSwap(false, true) {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer st.compacting.Store(false)
		_ = st.Compact(nil) // failure keeps serving the old epoch; counted in stats
	}()
}

// Compact folds tombstones and the delta buffer into a freshly
// quantized, freshly programmed base image:
//
//  1. materialize the live rows (base minus tombstones, merged with the
//     delta in ascending id order),
//  2. re-run Theorem 4's dimension selection against the new occupancy
//     and price the image in crossbar tiles,
//  3. acquire least-worn tiles from the wear-leveling ledger — refusing
//     with ErrEndurance when the write budget is spent,
//  4. build the new searcher and atomically swap the snapshot,
//  5. retire the old epoch; its tiles free once the last pinned reader
//     drains.
//
// Queries never block: they either hold the old epoch (still fully
// resident) or pick up the new one. A nil meter is allowed; otherwise
// the modeled re-programming cost is recorded by searchers implementing
// knn.Preprocessor.
func (st *Store) Compact(meter *arch.Meter) error {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed.Load() {
		return ErrClosed
	}
	sn := st.snap.Load()
	if len(sn.deltaIDs) == 0 && len(sn.tomb) == 0 {
		return nil // already compact
	}
	start := time.Now()
	data, ids := materialize(sn, st.d)
	if data.N == 0 {
		return ErrAllDeleted
	}
	base, err := st.buildBase(data, ids)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		st.opts.Metrics.compactionFailed()
		st.statsMu.Lock()
		st.stats.CompactionFailures++
		st.statsMu.Unlock()
		return err
	}
	if meter != nil {
		if p, ok := base.searcher.(knn.Preprocessor); ok {
			p.RecordPreprocessing(meter)
		}
	}
	old := sn.base
	st.newSnap(base, nil, nil, nil)
	old.retire()
	st.statsMu.Lock()
	st.stats.Compactions++
	st.stats.LastCompactionS = elapsed
	if elapsed > st.stats.MaxPauseS {
		st.stats.MaxPauseS = elapsed
	}
	st.stats.ChosenS = base.s
	st.statsMu.Unlock()
	st.opts.Metrics.compactionDone(elapsed)
	if st.opts.OnCompact != nil {
		st.opts.OnCompact(data)
	}
	return nil
}
