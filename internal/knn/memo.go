package knn

import (
	"context"
	"sync"

	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// A query's features — the Φ(q) half of F(p,q) = G(Φ(p), Φ(q), p·q)
// (§V-A) — depend on the query and on the bound's granularity and α, never
// on the rows a shard holds. A memo computes each one once per query and
// every stage that needs it reads it from there: the stages of one
// cascade, and through a QueryContext the cascades of every shard a
// request visits.

// featureKind names a memoized query feature.
type featureKind uint8

const (
	featFNN    featureKind = iota // LB_FNN's segment (μ, σ), vec.SegmentStatsInto
	featPIMFNN                    // LB_PIM-FNN's ⌊μ̄⌋, ⌊σ̄⌋ and Φ(q̂), pimbound.FNNIndex.QueryInto
	featPIMED                     // LB_PIM-ED's ⌊q̄⌋ and Φ(q̄), pimbound.EDIndex.QueryInto
)

// edView is the vector of the query an LB_PIM-ED payload was programmed
// against.
type edView uint8

const (
	viewWhole edView = iota // the query itself (EDFilter, Approx-PIM)
	viewHead                // its first g dims (OST-PIM)
	viewMeans               // its g segment means (SM-PIM)
)

// featureKey identifies a feature of the query in flight: its kind, the
// view for LB_PIM-ED, the granularity g (segments, or dims for LB_PIM-ED)
// and, for the PIM kinds, the quantizer. Two indexes with equal keys
// compute bit-identical features.
type featureKey struct {
	kind featureKind
	view edView
	g    int
	q    quant.Quantizer
}

// feature is one computed feature. Its buffers outlive the query, for the
// next one the memo serves.
type feature struct {
	key       featureKey
	mu, sigma []float64 // featFNN
	fnn       pimbound.FNNQuery
	ed        pimbound.EDQuery
}

// memo holds the features of one query. Each is computed on first request
// under mu and is read-only after that, so concurrent shard visits share
// it. A cascade searched without a QueryContext for its query keeps one of
// its own, reset per query.
type memo struct {
	q     []float64
	mu    sync.Mutex
	feats []*feature // feats[:n] are the query's; the rest keep their buffers
	n     int
}

// featureHook, when set by a test, is called for every feature computed.
var featureHook func()

func (m *memo) reset(q []float64) { m.q, m.n = q, 0 }

// holds reports whether the memo was made for q itself: the same backing
// array and the same length.
func (m *memo) holds(q []float64) bool {
	return len(q) > 0 && len(q) == len(m.q) && &q[0] == &m.q[0]
}

// find returns the query's feature under key, if it has one; next takes
// a slot for it and commit adds the filled slot to the query's features.
// The caller holds mu from find to commit.
func (m *memo) find(key featureKey) (*feature, bool) {
	for _, f := range m.feats[:m.n] {
		if f.key == key {
			return f, true
		}
	}
	return nil, false
}

func (m *memo) next(key featureKey) *feature {
	if m.n == len(m.feats) {
		m.feats = append(m.feats, new(feature))
	}
	f := m.feats[m.n]
	f.key = key
	return f
}

func (m *memo) commit(f *feature) *feature {
	m.n++
	if featureHook != nil {
		featureHook()
	}
	return f
}

// fnnStats returns the query's LB_FNN segment statistics at segs segments.
func (m *memo) fnnStats(segs int) (*feature, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.fnnStatsLocked(segs)
}

func (m *memo) fnnStatsLocked(segs int) (*feature, error) {
	key := featureKey{kind: featFNN, g: segs}
	if f, ok := m.find(key); ok {
		return f, nil
	}
	f := m.next(key)
	if segs > 0 {
		f.mu, f.sigma = resize(f.mu, segs), resize(f.sigma, segs)
	}
	if err := vec.SegmentStatsInto(m.q, segs, f.mu, f.sigma); err != nil {
		return nil, err
	}
	return m.commit(f), nil
}

// pimFNN returns the query's LB_PIM-FNN features for ix.
func (m *memo) pimFNN(ix *pimbound.FNNIndex) (*feature, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := featureKey{kind: featPIMFNN, g: ix.Segs, q: ix.Q}
	if f, ok := m.find(key); ok {
		return f, nil
	}
	f := m.next(key)
	qf, err := ix.QueryInto(m.q, resize(f.fnn.MuFloor, ix.Segs), resize(f.fnn.SigmaFloor, ix.Segs))
	if err != nil {
		return nil, err
	}
	f.fnn = qf
	return m.commit(f), nil
}

// pimED returns the query's LB_PIM-ED features for ix over the view the
// payload was programmed against. The caller has checked the query's
// length against a whole view.
func (m *memo) pimED(ix *pimbound.EDIndex, view edView) (*feature, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := featureKey{kind: featPIMED, view: view, g: ix.D, q: ix.Q}
	if f, ok := m.find(key); ok {
		return f, nil
	}
	in := m.q
	switch view {
	case viewHead:
		in = in[:ix.D]
	case viewMeans:
		stats, err := m.fnnStatsLocked(ix.D)
		if err != nil {
			return nil, err
		}
		in = stats.mu
	}
	f := m.next(key)
	f.ed = ix.QueryInto(in, resize(f.ed.Floor, ix.D))
	return m.commit(f), nil
}

// resize returns s at length n, reusing its array when it is large enough.
func resize[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]T, n)
}

// QueryContext is a request's context carrying the memo of its query's
// features to every shard the request visits (the serving pipeline makes
// one per query): a cascade searched under it for the same query slice
// reads its features from the memo instead of computing them, so a
// request computes each feature once however many shards it visits. Each
// visit still runs and charges its own array pass.
//
// A QueryContext is pooled. Release returns it once no visit can still be
// reading it — never while a visit abandoned on the context's end may be
// running.
type QueryContext struct {
	context.Context
	memo
}

type memoKey struct{}

var queryContexts = sync.Pool{New: func() any { return new(QueryContext) }}

// WithQuery returns ctx carrying a fresh memo for q.
func WithQuery(ctx context.Context, q []float64) *QueryContext {
	qc := queryContexts.Get().(*QueryContext)
	qc.Context = ctx
	qc.reset(q)
	return qc
}

// Value implements context.Context: the memo under its own key, the
// parent's values otherwise.
func (qc *QueryContext) Value(key any) any {
	if _, ok := key.(memoKey); ok {
		return qc
	}
	return qc.Context.Value(key)
}

// Release returns qc to the pool. Neither qc nor a context derived from
// it may be used afterwards.
func (qc *QueryContext) Release() {
	qc.Context = nil
	qc.reset(nil)
	queryContexts.Put(qc)
}

// memoFor returns the memo a cascade reads q's features from: ctx's, when
// it was made for q itself, and otherwise own, reset for q.
func memoFor(ctx context.Context, q []float64, own *memo) *memo {
	if qc, ok := ctx.Value(memoKey{}).(*QueryContext); ok && qc.holds(q) {
		return &qc.memo
	}
	own.reset(q)
	return own
}
