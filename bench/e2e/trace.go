package main

import (
	"context"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/vec"
)

var bgCtx = context.Background()

// Span names: the boundaries the benchmark can reach from outside the
// program. With one connection, spans of one request nest by time.
const (
	spanRequest = "wire.request"     // client: send → last byte of the reply
	spanHandler = "netserve.handler" // middleware around netserve.Server
	spanEngine  = "engine.search"    // direct pass: the engine's SearchMode
	spanKNN     = "knn.search"       // one shard visit of the wrapped searcher
)

// span is one timed interval; Start and End are nanoseconds since the
// recorder was created. Parent indexes the recorder's span list (-1 for
// a root) and Req is the root's sequence number, both filled by nest().
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// Shard is the knn.search span's shard id (-1 when the engine does
	// not tell the factory which shard it is building).
	Shard int `json:"shard"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; they are written out only after the
// run. It records only while on is set, so a traced stack can also serve
// untimed phases (warm-up, verification).
type recorder struct {
	epoch time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
	// refs are the references of the current in-process pass (one
	// goroutine, so no lock); see speed.
	refs []time.Duration
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// enable switches recording; a nil recorder (an untraced slice) ignores it.
func (r *recorder) enable(on bool) {
	if r != nil {
		r.on.Store(on)
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(name string, start, end int64, shard int) {
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: -1, Shard: shard})
	r.mu.Unlock()
}

// refer runs the reference once between two calls of an in-process pass.
func (r *recorder) refer(in *inputs, i int) { r.refs = append(r.refs, reference(in, i)) }

// speed is the median reference since the last call: how fast the
// box was during the pass, so that its times can be set against another
// pass's (see tracedPhase).
func (r *recorder) speed() time.Duration {
	m := quantile(r.refs, 0.50)
	r.refs = nil
	return m
}

// take returns the spans recorded so far, nested, and starts afresh.
func (r *recorder) take() []span {
	r.mu.Lock()
	out := r.spans
	r.spans = nil
	r.mu.Unlock()
	nest(out)
	return out
}

// nest sorts spans by start time and assigns each the innermost span
// that contains it as parent — unambiguous because the traced passes run
// one request at a time.
func nest(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Start != spans[j].Start {
			return spans[i].Start < spans[j].Start
		}
		return spans[i].End > spans[j].End
	})
	var stack []int
	req := -1
	for i := range spans {
		for len(stack) > 0 && spans[stack[len(stack)-1]].End < spans[i].End {
			stack = stack[:len(stack)-1]
		}
		if len(stack) == 0 {
			req++
			spans[i].Parent = -1
		} else {
			spans[i].Parent = stack[len(stack)-1]
		}
		spans[i].Req = req
		stack = append(stack, i)
	}
}

// middleware times netserve.Server.ServeHTTP.
func (r *recorder) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			next.ServeHTTP(w, req)
			return
		}
		t0 := r.now()
		next.ServeHTTP(w, req)
		r.add(spanHandler, t0, r.now(), -1)
	})
}

// wrapped adapts a searcher constructor's result: on a nil recorder it
// is the identity, otherwise the searcher comes back behind a timing
// wrapper labelled with the shard id.
func (r *recorder) wrapped(shard int) func(knn.Searcher, error) (knn.Searcher, error) {
	return func(s knn.Searcher, err error) (knn.Searcher, error) {
		if r == nil || err != nil {
			return s, err
		}
		return &timedSearcher{inner: s, rec: r, shard: shard}, nil
	}
}

// timedSearcher records one knn.search span per call and otherwise is
// the searcher it wraps: same neighbours, same meter activity.
type timedSearcher struct {
	inner knn.Searcher
	rec   *recorder
	shard int
}

func (t *timedSearcher) Name() string { return t.inner.Name() }

func (t *timedSearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	return t.SearchCtx(bgCtx, q, k, m)
}

// SearchCtx keeps the wrapper transparent to serve's obs tracing: an
// engine built with Options.Obs still reaches the inner searcher's spans.
func (t *timedSearcher) SearchCtx(ctx context.Context, q []float64, k int, m *arch.Meter) []vec.Neighbor {
	if !t.rec.on.Load() {
		return knn.SearchTraced(ctx, t.inner, q, k, m)
	}
	t0 := t.rec.now()
	nn := knn.SearchTraced(ctx, t.inner, q, k, m)
	t.rec.add(spanKNN, t0, t.rec.now(), t.shard)
	return nn
}

var _ knn.ContextSearcher = (*timedSearcher)(nil)

// cover is the part of the parent's interval its children (ascending by
// start, as nest leaves them) cover: the length of the union of their
// intervals. A layer's self time is its span minus this.
func cover(children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	var total int64
	lo, hi := children[0].Start, children[0].End
	for _, c := range children[1:] {
		if c.Start > hi {
			total += hi - lo
			lo, hi = c.Start, c.End
		} else if c.End > hi {
			hi = c.End
		}
	}
	return time.Duration(total + hi - lo)
}

// tree groups one pass's nested spans by root: for every request (or
// direct engine call) the root span, the handler under it if any, and
// the shard visits under that.
type tree struct {
	root    span
	handler *span
	visits  []span
}

func trees(spans []span) []tree {
	var out []tree
	for _, s := range spans {
		switch {
		case s.Parent == -1:
			out = append(out, tree{root: s})
		case s.Name == spanHandler:
			h := s
			out[len(out)-1].handler = &h
		case s.Name == spanKNN:
			out[len(out)-1].visits = append(out[len(out)-1].visits, s)
		}
	}
	return out
}
