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
	// Compactions / CompactionFailures count finished compaction
	// attempts; LastCompactionS and MaxPauseS time the mutation stall
	// each one caused.
	Compactions        int
	CompactionFailures int
	LastCompactionS    float64
	MaxPauseS          float64
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
	return out
}

// maxTombstoneRatio is the tombstone trigger: a fold is due once
// tombstones exceed this fraction of the base rows, because dead rows
// still burn base search work (queries over-fetch k+tombstones
// candidates).
const maxTombstoneRatio = 0.25

// due reports whether a compaction trigger has tripped on sn: the delta
// holds MaxDelta rows, or tombstones exceed maxTombstoneRatio of the
// base rows.
func (st *Store) due(sn *snapshot) bool {
	n := len(sn.base.ids)
	return len(sn.deltaIDs) >= st.opts.MaxDelta ||
		(n > 0 && float64(len(sn.tomb)) > maxTombstoneRatio*float64(n))
}

// maybeCompact starts one background CompactIfDue when AutoCompact is on
// and a trigger has tripped; at most one runs at a time. newSnap calls
// it after every publication. The compactor holds the mutation lock for
// the whole rebuild, so mutations arriving meanwhile stall until the
// swap: that stall is the compaction pause the churn benchmark reports.
func (st *Store) maybeCompact() {
	if !st.opts.AutoCompact || st.closed.Load() || !st.due(st.snap.Load()) {
		return
	}
	if !st.compacting.CompareAndSwap(false, true) {
		return
	}
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer st.compacting.Store(false)
		_, _ = st.CompactIfDue() // failure keeps serving the old epoch; counted in stats
	}()
}

// Compact folds tombstones and the delta buffer into a freshly
// quantized, freshly programmed base image:
//
//  1. materialize the live rows (base minus tombstones, merged with the
//     delta in ascending id order),
//  2. build the new searcher through the Factory, sized for
//     max(CapacityRows, live rows) so Theorem 4's dimension selection
//     follows the new occupancy,
//  3. atomically swap the snapshot.
//
// Queries never block: they either hold the old epoch (still fully
// resident) or pick up the new one. A failed build returns its error,
// counts in Stats.CompactionFailures and keeps the old epoch serving. A
// nil meter is allowed; otherwise the modeled re-programming cost is
// recorded by searchers implementing knn.Preprocessor.
func (st *Store) Compact(meter *arch.Meter) error {
	_, err := st.compact(meter, false)
	return err
}

// CompactIfDue is Compact run only when a trigger has tripped (checked
// under the mutation lock); it reports whether it folded.
func (st *Store) CompactIfDue() (bool, error) { return st.compact(nil, true) }

func (st *Store) compact(meter *arch.Meter, ifDue bool) (bool, error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.closed.Load() {
		return false, ErrClosed
	}
	sn := st.snap.Load()
	if (ifDue && !st.due(sn)) || (len(sn.deltaIDs) == 0 && len(sn.tomb) == 0) {
		return false, nil // not due, or already compact
	}
	start := time.Now()
	data, ids := materialize(sn, st.d)
	if data.N == 0 {
		return false, ErrAllDeleted
	}
	base, err := st.buildBase(data, ids)
	elapsed := time.Since(start).Seconds()
	if err != nil {
		st.opts.Metrics.compactionFailed()
		st.statsMu.Lock()
		st.stats.CompactionFailures++
		st.statsMu.Unlock()
		return false, err
	}
	if meter != nil {
		if p, ok := base.searcher.(knn.Preprocessor); ok {
			p.RecordPreprocessing(meter)
		}
	}
	st.newSnap(base, nil, nil, nil)
	st.statsMu.Lock()
	st.stats.Compactions++
	st.stats.LastCompactionS = elapsed
	if elapsed > st.stats.MaxPauseS {
		st.stats.MaxPauseS = elapsed
	}
	st.statsMu.Unlock()
	st.opts.Metrics.compactionDone(elapsed)
	if st.opts.OnCompact != nil {
		st.opts.OnCompact(data)
	}
	return true, nil
}
