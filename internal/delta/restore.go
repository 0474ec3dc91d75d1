package delta

import (
	"fmt"
	"sort"

	"pimmine/internal/vec"
)

// Restore rebuilds a store from a recovered live image: rows in
// ascending global-id order with their id directory (as Materialize
// returns, or a wal.ShardState carries) and the next-id watermark the
// crashed store's owner had reached. The rebuilt epoch re-runs the
// Theorem 4 sizing through buildBase exactly like a compaction, and
// OnCompact fires with the live image so routing summaries come back
// tight.
//
// Searches over the restored store are byte-identical to the crashed
// one's: results depend only on the live row set (ids plus float bits),
// which is exactly what the image carries — compaction timing and
// delta/tombstone split need not be replayed (see the delta
// differential goldens, which prove Search ≡ a fresh engine over
// Materialize()).
//
// An empty image (every row of the shard deleted before the crash) is
// legal: the store is seeded with a single tombstoned placeholder row,
// invisible to every query and mutation, so the shard slot stays
// serviceable until inserts repopulate it and the next compaction
// discards the placeholder.
func Restore(data *vec.Matrix, ids []int, nextID int, opts Options) (*Store, error) {
	if data == nil || data.D == 0 {
		return nil, fmt.Errorf("delta: restore needs a dimensioned matrix")
	}
	if len(ids) != data.N {
		return nil, fmt.Errorf("delta: restore image has %d rows but %d ids", data.N, len(ids))
	}
	if !sort.IntsAreSorted(ids) {
		return nil, fmt.Errorf("delta: restore ids not ascending")
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("delta: restore ids contain duplicate %d", ids[i])
		}
	}
	if nextID < 0 || (len(ids) > 0 && nextID <= ids[len(ids)-1]) {
		return nil, fmt.Errorf("delta: restore nextID %d not past the largest live id", nextID)
	}
	if opts.Factory == nil {
		return nil, fmt.Errorf("delta: Options.Factory is required")
	}
	if opts.MaxDelta <= 0 {
		opts.MaxDelta = 256
	}
	if opts.MaxTombstoneRatio <= 0 {
		opts.MaxTombstoneRatio = 0.25
	}
	if opts.VectorsPerObject <= 0 {
		opts.VectorsPerObject = 2
	}
	if opts.CapacityRows <= 0 {
		opts.CapacityRows = data.N
		if opts.CapacityRows == 0 {
			opts.CapacityRows = 1
		}
	}

	live := data
	tomb := map[int]struct{}{}
	baseIDs := append([]int(nil), ids...)
	if data.N == 0 {
		// Tombstoned placeholder: buildBase and the searchers need at
		// least one physical row; the tombstone masks it everywhere
		// (Search, Materialize, Update/Delete addressing).
		data = vec.NewMatrix(1, live.D)
		baseIDs = []int{0}
		tomb[0] = struct{}{}
	}
	st := &Store{opts: opts, d: data.D, nextID: nextID}
	base, err := st.buildBase(data, baseIDs)
	if err != nil {
		return nil, err
	}
	st.snap.Store(&snapshot{epoch: 1, base: base, tomb: tomb})
	st.statsMu.Lock()
	st.stats.Epoch = 1
	st.stats.ChosenS = base.s
	st.statsMu.Unlock()
	st.publishGauges(st.snap.Load())
	if opts.OnCompact != nil && live.N > 0 {
		opts.OnCompact(live)
	}
	return st, nil
}

// NextID returns the id the next self-assigned Insert would take — the
// watermark a durable engine snapshots so recovery never reuses an id.
func (st *Store) NextID() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.nextID
}
