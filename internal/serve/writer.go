package serve

import (
	"fmt"
	"sync"

	"pimmine/internal/delta"
	"pimmine/internal/obs"
	"pimmine/internal/quant"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Writer is the one write path of every engine, the way Pipeline is the
// one read path. It owns the global id directory, validation, the
// optional write-ahead log, the standing-query registry and the
// mutation lock; an engine hands it two functions. place picks the shard
// an insert goes to (the serve engine: round-robin; the cluster: its id
// ring). apply runs one write on a shard: one delta.Store on the serve
// engine, every writable replica under the commit rule on the cluster.
//
// A write is validated once, before anything is logged or applied, so a
// durable engine never logs a record its stores then refuse — log order
// must equal apply order or replay would diverge from the served
// history. Writes, subscriptions, a durable engine's checkpoint and the
// cluster's placement changes all take the one mutation lock, so every
// subscription observes the writes in the order they were applied, and
// its initial view misses none of them.
type Writer struct {
	pipe  *Pipeline // the lease against Close, dims and the standing re-query
	place func(id int, v []float64) int
	apply func(shard int, op wal.Op, write func(*delta.Store) error) error

	mu     sync.Mutex  // the mutation lock; guards everything below
	nextID int         // the id the next insert takes
	owner  []int32     // owner[id]: the shard built row id lives on, -1 once deleted
	routes map[int]int // inserted or recovered id → shard
	// log is the write-ahead log (nil unless the engine is durable): a
	// write is appended before it is applied.
	log *wal.Log

	// standing is the continuous-query registry; its hooks run under mu
	// after each applied write, and its re-query is pipe's bare fan-out,
	// which takes no engine lock.
	standing *standing.Registry
}

// NewWriter builds the write path over pipe's shards. parts[s] lists the
// ids shard s starts with and nextID is the id the first insert takes;
// buffer sizes standing-subscription event channels (0: the standing
// default).
func NewWriter(pipe *Pipeline, parts [][]int, nextID, buffer int,
	place func(id int, v []float64) int,
	apply func(shard int, op wal.Op, write func(*delta.Store) error) error) *Writer {
	w := &Writer{pipe: pipe, place: place, apply: apply, nextID: nextID, routes: make(map[int]int)}
	total := 0
	for _, ids := range parts {
		total += len(ids)
	}
	// Ids are distinct and below nextID, so when there are nextID of them
	// they are exactly 0..nextID-1 and a dense table holds them.
	if total == nextID {
		w.owner = make([]int32, nextID)
	}
	for sh, ids := range parts {
		for _, id := range ids {
			if w.owner != nil {
				w.owner[id] = int32(sh)
			} else {
				w.routes[id] = sh
			}
		}
	}
	var o *obs.Observer
	if pipe.eobs != nil {
		o = pipe.eobs.o
	}
	// NewRegistry fails only without a Requery, and this one has one.
	w.standing, _ = standing.NewRegistry(standing.Options{
		Requery: pipe.Requery, Buffer: buffer, Metrics: standing.NewMetrics(o.Registry())})
	return w
}

// Insert adds a vector under the next global id, on the shard place
// picks. The vector must be normalized (quant.CheckVec). On a durable
// engine the insert is logged (and, under wal.SyncAlways, fsynced)
// before it is applied.
func (w *Writer) Insert(v []float64) (int, error) {
	return w.write(wal.OpInsert, 0, v)
}

// Update replaces the vector of a live id in place (the id, and with it
// the tie order, is kept).
func (w *Writer) Update(id int, v []float64) error {
	_, err := w.write(wal.OpUpdate, id, v)
	return err
}

// Delete removes a live id.
func (w *Writer) Delete(id int) error {
	_, err := w.write(wal.OpDelete, id, nil)
	return err
}

// write runs one write end to end: validation, the directory lookup (an
// insert: the next id and its placement), the log append, the apply and
// the standing hooks. It returns the id written.
func (w *Writer) write(op wal.Op, id int, v []float64) (int, error) {
	release, err := w.pipe.Acquire()
	if err != nil {
		return 0, err
	}
	defer release()
	if op != wal.OpDelete {
		if len(v) != w.pipe.dims {
			return 0, fmt.Errorf("serve: vector has %d dims, dataset has %d", len(v), w.pipe.dims)
		}
		if err := quant.CheckVec(v); err != nil {
			return 0, fmt.Errorf("serve: %w", err)
		}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	var sh int
	if op == wal.OpInsert {
		id = w.nextID
		sh = w.place(id, v)
	} else if sh = w.shard(id); sh < 0 {
		return 0, fmt.Errorf("%w: %d", delta.ErrNotFound, id)
	}
	if w.log != nil {
		if _, err := w.log.Append(wal.Record{Op: op, Shard: sh, ID: id, Vec: v}); err != nil {
			return 0, fmt.Errorf("serve: wal append: %w", err)
		}
	}
	if err := w.commit(op, sh, id, v); err != nil {
		return 0, err
	}
	switch op {
	case wal.OpInsert:
		w.standing.OnInsert(id, v)
	case wal.OpUpdate:
		w.standing.OnUpdate(id, v)
	default:
		w.standing.OnDelete(id)
	}
	return id, nil
}

// commit applies one validated write to shard sh and records it in the
// directory. Live writes and WAL replay share it. Caller holds mu.
func (w *Writer) commit(op wal.Op, sh, id int, v []float64) error {
	err := w.apply(sh, op, func(st *delta.Store) error {
		switch op {
		case wal.OpInsert:
			return st.InsertAt(id, v)
		case wal.OpUpdate:
			return st.Update(id, v)
		}
		return st.Delete(id)
	})
	if err != nil {
		return err
	}
	switch {
	case op == wal.OpInsert:
		w.routes[id] = sh
		w.nextID = max(w.nextID, id+1)
	case op == wal.OpDelete && id < len(w.owner):
		w.owner[id] = -1
	case op == wal.OpDelete:
		delete(w.routes, id)
	}
	return nil
}

// replay re-applies one logged write during recovery: the directory
// update a live write makes, without the log append or the hooks. The
// log holds writes the engine had already validated and placed, so a
// record that fails to apply means the log and snapshot disagree —
// surfaced as an error, never papered over.
func (w *Writer) replay(rec wal.Record) error {
	if n := len(w.pipe.all); rec.Shard < 0 || rec.Shard >= n {
		return fmt.Errorf("%w: record routes to shard %d of %d", wal.ErrCorrupt, rec.Shard, n)
	}
	if rec.Op < wal.OpInsert || rec.Op > wal.OpDelete {
		return fmt.Errorf("%w: unknown op %d", wal.ErrCorrupt, rec.Op)
	}
	return w.commit(rec.Op, rec.Shard, rec.ID, rec.Vec)
}

// shard is the directory lookup: the shard holding live id, or -1.
// Caller holds mu.
func (w *Writer) shard(id int) int {
	if id >= 0 && id < len(w.owner) {
		return int(w.owner[id])
	}
	if sh, ok := w.routes[id]; ok {
		return sh
	}
	return -1
}

// Shard returns the shard holding live id, or -1 for an id that was
// never issued or has been deleted.
func (w *Writer) Shard(id int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.shard(id)
}

// Lock takes a lease against Close and then the mutation lock, for work
// that must not interleave with writes: a checkpoint, or a change to
// where a cluster's replicas live. unlock releases both.
func (w *Writer) Lock() (unlock func(), err error) {
	release, err := w.pipe.Acquire()
	if err != nil {
		return nil, err
	}
	w.mu.Lock()
	return func() {
		w.mu.Unlock()
		release()
	}, nil
}

// SubscribeKNN registers a standing k-nearest-neighbor query (see
// internal/standing): the returned subscription carries the initial
// result view and then an event for every write that changes it,
// maintained incrementally from the delta. Registration holds the
// mutation lock, so the initial view plus the event sequence exactly
// tracks the applied writes.
func (w *Writer) SubscribeKNN(q []float64, k int) (*standing.Subscription, error) {
	return w.subscribe(q, func() (*standing.Subscription, error) { return w.standing.SubscribeKNN(q, k) })
}

// SubscribeRadius registers a radius watch: a KindMatch event for every
// future insert within Euclidean distance radius of q.
func (w *Writer) SubscribeRadius(q []float64, radius float64) (*standing.Subscription, error) {
	return w.subscribe(q, func() (*standing.Subscription, error) { return w.standing.SubscribeRadius(q, radius) })
}

func (w *Writer) subscribe(q []float64, register func() (*standing.Subscription, error)) (*standing.Subscription, error) {
	unlock, err := w.Lock()
	if err != nil {
		return nil, err
	}
	defer unlock()
	if len(q) != w.pipe.dims {
		return nil, fmt.Errorf("%w: query has %d dims, dataset has %d",
			standing.ErrBadSubscription, len(q), w.pipe.dims)
	}
	return register()
}

// StandingView returns a copy of a kNN subscription's current result
// view (nil for radius watches, unknown ids and after Close).
func (w *Writer) StandingView(id int) []vec.Neighbor { return w.standing.Current(id) }

// Unsubscribe removes a standing subscription and closes its event
// channel. Safe on unknown ids and after Close.
func (w *Writer) Unsubscribe(id int) { w.standing.Unsubscribe(id) }

// Close ends every subscription and, on a durable engine, flushes and
// closes the log. An engine calls it once, after its pipeline drained.
func (w *Writer) Close() error {
	w.standing.Close()
	if w.log == nil {
		return nil
	}
	// The log's Close fsyncs the active segment first.
	if err := w.log.Close(); err != nil {
		return fmt.Errorf("serve: wal close: %w", err)
	}
	return nil
}
