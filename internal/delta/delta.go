package delta

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/knn"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Sentinel errors returned by Store operations.
var (
	// ErrClosed reports an operation on a closed store.
	ErrClosed = fmt.Errorf("delta: store closed")
	// ErrNotFound reports a mutation addressing an id that does not
	// exist (never assigned, or already deleted).
	ErrNotFound = fmt.Errorf("delta: id not found")
	// ErrAllDeleted reports a compaction that would produce an empty
	// base image; the store keeps serving from the tombstoned base.
	ErrAllDeleted = fmt.Errorf("delta: refusing to compact to an empty dataset")
)

// Factory builds the base searcher over a compacted matrix. The searcher
// must be safe for concurrent use: every query that pins the epoch runs it,
// with no lock around it. capacityN is
// the Theorem 4 sizing cardinality for PIM factories (each rebuild
// re-runs ChooseS against it, so the compressed dimensionality adapts
// when occupancy changes); host factories may ignore it. A fresh
// pim.Engine must be created per call — re-programming an existing
// payload name is rejected by the engine precisely because it burns
// endurance outside the ledger's accounting.
type Factory func(base *vec.Matrix, capacityN int) (knn.Searcher, error)

// Options configures New.
type Options struct {
	// Factory builds per-epoch base searchers. Required.
	Factory Factory
	// MaxDelta triggers compaction when the delta buffer reaches this
	// many rows (default 256). The delta is brute-force scanned per
	// query, so this bounds both query overhead and the cost of the
	// copy-on-write snapshots mutations publish.
	MaxDelta int
	// MaxTombstoneRatio triggers compaction when tombstones exceed this
	// fraction of base rows (default 0.25): dead rows still burn base
	// search work because queries over-fetch k+tombstones candidates.
	MaxTombstoneRatio float64
	// MaxQueryCost triggers compaction when knn.DeltaCost's modeled
	// per-query overhead of the delta+tombstones exceeds this value
	// (0 disables the cost trigger).
	MaxQueryCost float64
	// Ledger, when non-nil, meters programming cycles: every compaction
	// (and the initial build) must acquire tiles for the new image and
	// is refused with ErrEndurance when the array is spent.
	Ledger *Ledger
	// Model, when non-nil, prices a base image in crossbar tiles
	// (Theorem 4) for the ledger and records the chosen compressed
	// dimensionality in Stats. Required if Ledger is set alongside a
	// PIM factory; when nil, each image is charged a single tile.
	Model *pim.CapacityModel
	// VectorsPerObject is Theorem 4's payload replication factor
	// (default 2, the µ and σ payloads of LB_PIM-FNN).
	VectorsPerObject int
	// CapacityRows floors the Theorem 4 sizing cardinality so the
	// compressed dimensionality does not thrash when occupancy
	// fluctuates (default: the initial dataset's N).
	CapacityRows int
	// AutoCompact runs compaction in a background goroutine when a
	// threshold trips; otherwise callers compact explicitly.
	AutoCompact bool
	// IDs is the ascending global id of each initial row, one per row
	// (default 0..N-1). Sharded engines hand each store its shard's
	// placement (route.Partition), so every store answers directly in the
	// global id space; the store keeps the slice as its base id
	// directory, and the caller must not modify it afterwards.
	IDs []int
	// Metrics, when wired (see NewMetrics), publishes delta fill,
	// tombstone count, compaction counters/latency and remaining
	// endurance budget to an obs registry.
	Metrics Metrics
	// OnCompact, when non-nil, is invoked at the end of every successful
	// compaction with the freshly materialized live base image (rows in
	// ascending global-id order), while the store's mutation lock is
	// still held — so no insert can interleave between the snapshot swap
	// and the callback. The routing tier (internal/route) uses it to
	// rebuild the owning shard's summary tight; between compactions,
	// inserts keep summaries conservative instead. The callback must not
	// mutate the matrix or call back into the store.
	OnCompact func(base *vec.Matrix)
	// OnMutate, when non-nil, is invoked with every inserted or updated
	// vector while the mutation lock is held, *before* the row becomes
	// visible to queries. Paired with OnCompact (also under the lock),
	// it gives the routing tier a total order of summary maintenance
	// against compaction: a summary expansion can never be lost to a
	// concurrent tight rebuild, so the published summary always covers
	// every row the published snapshot holds. The callback must not call
	// back into the store.
	OnMutate func(v []float64)
}

// baseIndex is one epoch's immutable crossbar-resident index: the
// compacted matrix, its ascending global-id directory, and the searchers
// built over it. A searcher is safe for concurrent use, so any number of
// searches run on one base at once and none waits for another.
type baseIndex struct {
	data *vec.Matrix
	ids  []int // ascending; ids[local] = global id
	s    int   // Theorem 4 compressed dimensionality (0 = host/unknown)

	searcher knn.Searcher
	host     *knn.Standard // SearchHost's exact scan over the same rows

	ledger *Ledger
	tiles  []int

	refs     atomic.Int64 // pinned readers
	retired  atomic.Bool  // no longer the live epoch
	released atomic.Bool  // tiles handed back (exactly once)
}

// unref drops a reader pin; the last reader of a retired epoch returns
// its tiles to the ledger.
func (b *baseIndex) unref() {
	if b.refs.Add(-1) == 0 && b.retired.Load() {
		b.release()
	}
}

// retire marks the epoch dead (called after the snapshot swap). If no
// reader holds it, its tiles free immediately; otherwise the last unref
// does it.
func (b *baseIndex) retire() {
	b.retired.Store(true)
	if b.refs.Load() == 0 {
		b.release()
	}
}

// release frees the tiles exactly once (retire and unref can race; the
// CAS picks a single winner).
func (b *baseIndex) release() {
	if b.released.CompareAndSwap(false, true) && b.ledger != nil {
		b.ledger.Release(b.tiles)
	}
}

// localOf returns the base-local row of a global id, or -1.
func (b *baseIndex) localOf(id int) int {
	i := sort.SearchInts(b.ids, id)
	if i < len(b.ids) && b.ids[i] == id {
		return i
	}
	return -1
}

// snapshot is one immutable epoch view: the base index, the tombstone
// set masking dead base rows, and the delta buffer (rows in ascending
// global-id order, so scan order equals id order and the merge's
// (dist, id) tie handling is exact — see knn.DeltaScan). Mutations
// publish a fresh snapshot via copy-on-write of the small parts; readers
// pin one pointer and never observe a half-applied mutation.
type snapshot struct {
	epoch    uint64
	base     *baseIndex
	tomb     map[int]struct{}
	delta    *vec.Matrix // nil when empty
	deltaIDs []int       // ascending; deltaIDs[local] = global id
	deltaOST *bound.OSTIndex
}

// Store is the mutable index. Queries (Search) are lock-free against
// mutations, compaction and each other: they pin the current snapshot and
// run its base's searcher. Mutations and compaction serialize
// on an internal mutex; a mutation arriving mid-compaction stalls until
// the swap — that write stall is the "compaction pause" the churn
// benchmark reports.
type Store struct {
	opts Options
	d    int

	mu     sync.Mutex // serializes mutations and compaction
	nextID int
	snap   atomic.Pointer[snapshot]

	closed     atomic.Bool
	compacting atomic.Bool
	wg         sync.WaitGroup // background compactions in flight

	statsMu sync.Mutex
	stats   Stats
}

// New builds a store over an initial dataset, programming the first base
// image (ids 0..N-1). The matrix is retained as the epoch-0 base and
// must not be modified by the caller afterwards.
func New(data *vec.Matrix, opts Options) (*Store, error) {
	if data == nil || data.N == 0 || data.D == 0 {
		return nil, fmt.Errorf("delta: empty dataset")
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
	}
	ids := opts.IDs
	if ids == nil {
		ids = make([]int, data.N)
		for i := range ids {
			ids[i] = i
		}
	}
	if err := checkIDs(ids, data.N); err != nil {
		return nil, err
	}
	st := &Store{opts: opts, d: data.D, nextID: ids[len(ids)-1] + 1}
	base, err := st.buildBase(data, ids)
	if err != nil {
		return nil, err
	}
	st.snap.Store(&snapshot{epoch: 1, base: base})
	st.statsMu.Lock()
	st.stats.Epoch = 1
	st.stats.ChosenS = base.s
	st.statsMu.Unlock()
	st.publishGauges(st.snap.Load())
	return st, nil
}

// checkIDs validates an id directory of n rows: one non-negative id per
// row, strictly ascending.
func checkIDs(ids []int, n int) error {
	if len(ids) != n {
		return fmt.Errorf("delta: %d rows but %d ids", n, len(ids))
	}
	for i, id := range ids {
		if id < 0 || (i > 0 && id <= ids[i-1]) {
			return fmt.Errorf("delta: ids not strictly ascending and non-negative at %d (%d)", i, id)
		}
	}
	return nil
}

// buildBase prices, reserves endurance for, and constructs one epoch's
// base index. On any failure the reserved tiles are returned unworn-free
// (the wear itself is spent — Acquire models the physical write).
func (st *Store) buildBase(data *vec.Matrix, ids []int) (*baseIndex, error) {
	capacityN := st.opts.CapacityRows
	if data.N > capacityN {
		capacityN = data.N
	}
	chosenS := 0
	demand := 0
	if st.opts.Model != nil {
		chosenS = st.opts.Model.ChooseS(capacityN, pim.Divisors(st.d), st.opts.VectorsPerObject)
		if chosenS == 0 {
			return nil, fmt.Errorf("delta: %d vectors of %d dims do not fit the PIM array at any compressed dimensionality", capacityN, st.d)
		}
		nd, ng := st.opts.Model.Cost(data.N, chosenS)
		demand = st.opts.VectorsPerObject * int(nd+ng)
		if demand == 0 {
			demand = 1
		}
	} else if st.opts.Ledger != nil {
		demand = 1 // whole image charged as one batch without a price model
	}
	var tiles []int
	if st.opts.Ledger != nil {
		var err error
		tiles, err = st.opts.Ledger.Acquire(demand)
		if err != nil {
			return nil, err
		}
	}
	searcher, err := st.opts.Factory(data, capacityN)
	if err != nil {
		if st.opts.Ledger != nil {
			st.opts.Ledger.Release(tiles)
		}
		return nil, fmt.Errorf("delta: building base searcher: %w", err)
	}
	return &baseIndex{
		data: data, ids: ids, s: chosenS,
		searcher: searcher, host: knn.NewStandard(data),
		ledger: st.opts.Ledger, tiles: tiles,
	}, nil
}

// pin returns the current snapshot with its base refcounted. The double
// check makes the pin race-free against a concurrent swap: if the
// snapshot changed between load and ref, the ref may have landed on an
// already-released epoch, so drop it and retry.
func (st *Store) pin() *snapshot {
	for {
		sn := st.snap.Load()
		sn.base.refs.Add(1)
		if st.snap.Load() == sn {
			return sn
		}
		sn.base.unref()
	}
}

// newSnap assembles and publishes a successor snapshot. Callers hold
// st.mu. deltaIDs must be ascending and rows must match ids positionally.
func (st *Store) newSnap(base *baseIndex, tomb map[int]struct{}, delta *vec.Matrix, deltaIDs []int) {
	sn := &snapshot{
		epoch: st.snap.Load().epoch + 1,
		base:  base, tomb: tomb,
		delta: delta, deltaIDs: deltaIDs,
	}
	if delta != nil && delta.N > 0 && st.d >= 2 {
		// LB_OST over the delta with the half-split head: the same
		// prefilter the host OST variant uses, built in O(delta).
		ix, err := bound.BuildOST(delta, st.d/2)
		if err == nil {
			sn.deltaOST = ix
		}
	}
	st.snap.Store(sn)
	st.publishGauges(sn)
}

// cloneTomb copies the tombstone set for copy-on-write publication.
func cloneTomb(t map[int]struct{}) map[int]struct{} {
	out := make(map[int]struct{}, len(t)+1)
	for id := range t {
		out[id] = struct{}{}
	}
	return out
}

// cloneDeltaInsert copies the delta with row (id, v) spliced in at its
// sorted position. v must have st.d dims.
func (st *Store) cloneDeltaInsert(sn *snapshot, id int, v []float64) (*vec.Matrix, []int) {
	n := len(sn.deltaIDs)
	pos := sort.SearchInts(sn.deltaIDs, id)
	ids := make([]int, 0, n+1)
	ids = append(ids, sn.deltaIDs[:pos]...)
	ids = append(ids, id)
	ids = append(ids, sn.deltaIDs[pos:]...)
	m := vec.NewMatrix(n+1, st.d)
	if sn.delta != nil {
		copy(m.Data[:pos*st.d], sn.delta.Data[:pos*st.d])
		copy(m.Data[(pos+1)*st.d:], sn.delta.Data[pos*st.d:])
	}
	copy(m.Row(pos), v)
	return m, ids
}

// cloneDeltaWithout copies the delta with the row at position pos
// removed; returns (nil, nil) when it was the last row.
func (st *Store) cloneDeltaWithout(sn *snapshot, pos int) (*vec.Matrix, []int) {
	n := len(sn.deltaIDs)
	if n == 1 {
		return nil, nil
	}
	ids := make([]int, 0, n-1)
	ids = append(ids, sn.deltaIDs[:pos]...)
	ids = append(ids, sn.deltaIDs[pos+1:]...)
	m := vec.NewMatrix(n-1, st.d)
	copy(m.Data[:pos*st.d], sn.delta.Data[:pos*st.d])
	copy(m.Data[pos*st.d:], sn.delta.Data[(pos+1)*st.d:])
	return m, ids
}

// cloneDeltaReplace copies the delta with row pos overwritten by v.
func (st *Store) cloneDeltaReplace(sn *snapshot, pos int, v []float64) (*vec.Matrix, []int) {
	m := sn.delta.Clone()
	copy(m.Row(pos), v)
	return m, sn.deltaIDs // ids unchanged; slice is immutable once published
}

// Insert adds a vector and returns its id. Ids are assigned
// monotonically, so insertion order is the (dist, id) tiebreak order —
// a freshly built engine over Materialize() resolves ties identically.
// The vector must be normalized ([0,1], finite); violations return
// quant.ErrNotFinite / quant.ErrOutOfRange.
func (st *Store) Insert(v []float64) (int, error) {
	return st.insert(-1, v)
}

// InsertAt inserts with a caller-assigned id, which must be at least as
// large as every id the store has ever assigned plus one — sharded
// engines that own a global id space allocate monotonically and route
// rows here, keeping every store's id order (and so its tie order)
// aligned with the global one.
func (st *Store) InsertAt(id int, v []float64) error {
	if id < 0 {
		return fmt.Errorf("delta: negative id %d", id)
	}
	_, err := st.insert(id, v)
	return err
}

func (st *Store) insert(forcedID int, v []float64) (int, error) {
	if len(v) != st.d {
		return 0, fmt.Errorf("delta: vector has %d dims, store has %d", len(v), st.d)
	}
	if err := quant.CheckVec(v); err != nil {
		return 0, fmt.Errorf("delta: insert: %w", err)
	}
	st.mu.Lock()
	if st.closed.Load() {
		st.mu.Unlock()
		return 0, ErrClosed
	}
	sn := st.snap.Load()
	id := forcedID
	if id < 0 {
		id = st.nextID
	} else if id < st.nextID {
		st.mu.Unlock()
		return 0, fmt.Errorf("delta: id %d not monotone (next is %d)", id, st.nextID)
	}
	st.nextID = id + 1
	delta, ids := st.cloneDeltaInsert(sn, id, v)
	if st.opts.OnMutate != nil {
		st.opts.OnMutate(v)
	}
	st.newSnap(sn.base, sn.tomb, delta, ids)
	st.mu.Unlock()
	st.maybeCompact()
	return id, nil
}

// Update replaces the vector of an existing id, keeping the id (and with
// it the tie order). A base-resident row is tombstoned and shadowed by a
// delta row under the same id; a delta-resident row is rewritten in
// place.
func (st *Store) Update(id int, v []float64) error {
	if len(v) != st.d {
		return fmt.Errorf("delta: vector has %d dims, store has %d", len(v), st.d)
	}
	if err := quant.CheckVec(v); err != nil {
		return fmt.Errorf("delta: update: %w", err)
	}
	st.mu.Lock()
	if st.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	sn := st.snap.Load()
	if pos := sort.SearchInts(sn.deltaIDs, id); pos < len(sn.deltaIDs) && sn.deltaIDs[pos] == id {
		delta, ids := st.cloneDeltaReplace(sn, pos, v)
		if st.opts.OnMutate != nil {
			st.opts.OnMutate(v)
		}
		st.newSnap(sn.base, sn.tomb, delta, ids)
		st.mu.Unlock()
		st.maybeCompact()
		return nil
	}
	if local := sn.base.localOf(id); local >= 0 {
		if _, dead := sn.tomb[id]; !dead {
			tomb := cloneTomb(sn.tomb)
			tomb[id] = struct{}{}
			delta, ids := st.cloneDeltaInsert(sn, id, v)
			if st.opts.OnMutate != nil {
				st.opts.OnMutate(v)
			}
			st.newSnap(sn.base, tomb, delta, ids)
			st.mu.Unlock()
			st.maybeCompact()
			return nil
		}
	}
	st.mu.Unlock()
	return fmt.Errorf("%w: %d", ErrNotFound, id)
}

// Delete removes an id: a delta row is dropped, a live base row is
// tombstoned (its crossbar cells stay programmed until compaction).
func (st *Store) Delete(id int) error {
	st.mu.Lock()
	if st.closed.Load() {
		st.mu.Unlock()
		return ErrClosed
	}
	sn := st.snap.Load()
	if pos := sort.SearchInts(sn.deltaIDs, id); pos < len(sn.deltaIDs) && sn.deltaIDs[pos] == id {
		delta, ids := st.cloneDeltaWithout(sn, pos)
		st.newSnap(sn.base, sn.tomb, delta, ids)
		st.mu.Unlock()
		st.maybeCompact()
		return nil
	}
	if local := sn.base.localOf(id); local >= 0 {
		if _, dead := sn.tomb[id]; !dead {
			tomb := cloneTomb(sn.tomb)
			tomb[id] = struct{}{}
			st.newSnap(sn.base, tomb, sn.delta, sn.deltaIDs)
			st.mu.Unlock()
			st.maybeCompact()
			return nil
		}
	}
	st.mu.Unlock()
	return fmt.Errorf("%w: %d", ErrNotFound, id)
}

// Search answers one exact kNN query against the live rows (base minus
// tombstones, plus delta), returning global ids in canonical
// (dist, id) order — byte-identical to a fresh index built over
// Materialize(). It never blocks on mutations or compaction. The base
// searcher runs under ctx's trace (knn.SearchCapped), so a traced visit
// shows the searcher's span tree.
//
// ceiling is what the caller already knows about the answer: every row of
// the k nearest whose distance is at most ceiling is returned, and rows
// above it may be dropped (+Inf asks for all k). A base searcher that can
// stop short of the ceiling does (knn.CeilingSearcher); the others return
// their whole k, a superset.
//
// Exactness: the base searcher over-fetches k+|tombstones| candidates,
// so after masking, the k best live base rows survive (at most
// |tombstones| dead rows can precede them) — those at or below the
// ceiling, under one; the delta scan is capped by the lesser of the
// ceiling and the base k-th distance with a strict prune, so tied delta
// rows still compete; and both partial results are canonical under
// (dist, id), so vec.MergeNeighbors loses nothing.
func (st *Store) Search(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter) ([]vec.Neighbor, error) {
	return st.search(ctx, q, k, ceiling, meter, false)
}

// SearchHost is Search with the pinned epoch's base served by the exact
// host scan (knn.Standard over the same rows) instead of its searcher —
// the path a circuit breaker reroutes a fault-storming array to. Masking,
// the delta merge and the answer are Search's.
func (st *Store) SearchHost(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter) ([]vec.Neighbor, error) {
	return st.search(ctx, q, k, ceiling, meter, true)
}

func (st *Store) search(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter, host bool) ([]vec.Neighbor, error) {
	if st.closed.Load() {
		return nil, ErrClosed
	}
	if len(q) != st.d {
		return nil, fmt.Errorf("delta: query has %d dims, store has %d", len(q), st.d)
	}
	if k <= 0 {
		return nil, fmt.Errorf("delta: need k >= 1, got %d", k)
	}
	if meter == nil {
		meter = arch.NewMeter() // searchers require one; discard the activity
	}
	sn := st.pin()
	defer sn.base.unref()

	b := sn.base
	s := b.searcher
	if host {
		s = b.host
	}
	raw := knn.SearchCapped(ctx, s, q, k+len(sn.tomb), ceiling, meter)
	// Translate to global ids in place on the searcher's own result,
	// dropping tombstoned rows: no copy, no allocation of the store's.
	baseNN := raw[:0]
	for _, nb := range raw {
		gid := b.ids[nb.Index]
		if _, dead := sn.tomb[gid]; dead {
			continue
		}
		baseNN = append(baseNN, vec.Neighbor{Index: gid, Dist: nb.Dist})
		if len(baseNN) == k {
			break
		}
	}
	if len(sn.deltaIDs) == 0 {
		return baseNN, nil
	}
	cap := ceiling
	if len(baseNN) >= k {
		cap = min(cap, baseNN[k-1].Dist)
	}
	deltaNN := knn.DeltaScan(sn.delta, sn.deltaOST, q, k, cap, meter)
	for i := range deltaNN {
		deltaNN[i].Index = sn.deltaIDs[deltaNN[i].Index]
	}
	return vec.MergeNeighbors(k, baseNN, deltaNN), nil
}

// Materialize returns the live rows in ascending id order plus their
// ids: the dataset an equivalent fresh index would be built from. The
// copy is taken against one pinned snapshot.
func (st *Store) Materialize() (*vec.Matrix, []int) {
	sn := st.pin()
	defer sn.base.unref()
	return materialize(sn, st.d)
}

// MaterializeAll merges the live rows of several stores that share one
// id space (the shards of an engine) into one matrix in ascending id
// order plus its id directory: a k-way merge of their Materialize images.
func MaterializeAll(stores []*Store) (*vec.Matrix, []int) {
	parts := make([]*vec.Matrix, len(stores))
	partIDs := make([][]int, len(stores))
	total, d := 0, 0
	for i, st := range stores {
		parts[i], partIDs[i] = st.Materialize()
		total, d = total+len(partIDs[i]), st.d
	}
	out, ids := vec.NewMatrix(total, d), make([]int, 0, total)
	cursor := make([]int, len(stores))
	for len(ids) < total {
		best := -1
		for i, c := range cursor {
			if c < len(partIDs[i]) && (best < 0 || partIDs[i][c] < partIDs[best][cursor[best]]) {
				best = i
			}
		}
		copy(out.Row(len(ids)), parts[best].Row(cursor[best]))
		ids = append(ids, partIDs[best][cursor[best]])
		cursor[best]++
	}
	return out, ids
}

// materialize merges live base rows and delta rows by ascending id.
func materialize(sn *snapshot, d int) (*vec.Matrix, []int) {
	ids := make([]int, 0, len(sn.base.ids)+len(sn.deltaIDs))
	rows := make([][]float64, 0, cap(ids))
	bi, di := 0, 0
	for bi < len(sn.base.ids) || di < len(sn.deltaIDs) {
		takeBase := di >= len(sn.deltaIDs) ||
			(bi < len(sn.base.ids) && sn.base.ids[bi] < sn.deltaIDs[di])
		if takeBase {
			gid := sn.base.ids[bi]
			if _, dead := sn.tomb[gid]; !dead {
				ids = append(ids, gid)
				rows = append(rows, sn.base.data.Row(bi))
			}
			bi++
			continue
		}
		ids = append(ids, sn.deltaIDs[di])
		rows = append(rows, sn.delta.Row(di))
		di++
	}
	m := vec.NewMatrix(len(ids), d)
	for i, r := range rows {
		copy(m.Row(i), r)
	}
	return m, ids
}

// Epoch returns the current snapshot epoch (bumped by every mutation and
// compaction).
func (st *Store) Epoch() uint64 { return st.snap.Load().epoch }

// Close shuts the store down idempotently: further operations return
// ErrClosed, and Close waits for any background compaction to finish.
func (st *Store) Close() {
	if st.closed.Swap(true) {
		st.wg.Wait() // concurrent Close also waits for quiescence
		return
	}
	st.wg.Wait()
}
