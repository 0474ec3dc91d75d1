// The query pipeline: the one implementation of the path every engine
// serves a query through, whatever holds its shards —
//
//	lease → validate → admission → deadline → shed → ROUTE → fan out → merge → annotate
//
// An engine hands the pipeline a ShardSource (how many shards, how to
// visit one, which are servable, which are degraded). There are two:
// serve.Engine's storeSource (delta stores behind breakers), and
// cluster.Engine's replica-picking source. Both serve a visit through
// Attempt. The pipeline never asks which engine it serves.
//
// The pipeline owns every frame around the sources' work, so both
// engines emit the same trace and the same pim_serve_* / pim_route_*
// metrics from the observer handed to NewPipeline: the engine.search
// root span with the query counters, and per visited shard a "shard N"
// span (the source finds it in its ctx and hangs its own spans under it),
// the pim_serve_shard_queries_total{shard} counter, and the
// fault-recovery / breaker-open annotations read off the ShardAnswer.
//
// Admission is the only lossy stage — a rejected or shed query is a typed
// error (resilience.ErrOverloaded / resilience.ErrShedDeadline) in
// microseconds, before any shard work — so every admitted query returns
// exact results (or the routed-approximate answer it asked for).
//
// Routing (Options.Router) sits between shedding and the fan-out. Exact
// mode is a two-wave dispatch: the servable shard with the smallest
// summary lower bound is searched first to seed τ (its k-th candidate
// distance), then every remaining shard whose lower bound is ≤ τ is
// searched in parallel and the rest are skipped. Admissibility makes the
// skip safe: a skipped shard's true minimum distance is ≥ its lower bound
// > τ ≥ the final k-th distance, so none of its rows belongs in the top-k
// — not even on ties, since the exclusion is strict. Wave 2 hands τ to
// each shard as its ceiling: no row above τ can be in the answer, so a
// shard need return only its rows at or below τ, and its walk prunes on τ
// from the first seed instead of finding its own threshold. Routed results are
// therefore bit-identical to the unrouted engine (differential-tested
// across all six mining tasks in route_diff_test.go), and a shard no
// source can serve only fails the query if its bound survives τ.
//
// Approximate mode asks the router for the smallest shard prefix whose
// estimated similarity mass reaches the recall target and dispatches only
// that — no second wave, no exactness guarantee, a typed Result.Routed
// annotation instead. When Config.AuditEvery is set, every n-th
// approximate query also searches the skipped shards and reports the
// measured recall next to the estimate (the audit work is measurement
// overhead and deliberately excluded from the result's meters).
//
// A skipped shard does no work at all for that query: no worker is handed
// the visit, so neither its searcher, its breaker, nor the breaker's
// host-scan fallback runs (asserted by TestRoutedSkipNeverHostScans).
//
// Visits run on parked, reused worker goroutines (fanOut, work): a worker
// keeps the stack its first visits grew, so a visit does not pay for
// stack growth again. Close releases every parked worker.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// ShardAnswer is one shard's contribution to a query.
type ShardAnswer struct {
	// Neighbors is the shard's local top-k under (distance, index), in
	// global ids.
	Neighbors []vec.Neighbor
	// Meter is the activity this visit caused, private to the query.
	Meter *arch.Meter
	// BreakerOpen reports that the shard was served off its preferred
	// path — the exact host scan behind an open breaker, or a fail-over
	// replica — which never changes the answer, only who computed it.
	BreakerOpen bool
}

// ShardSource is what a Pipeline needs to know about where shards live.
// Implementations must be safe for concurrent use.
type ShardSource interface {
	NumShards() int
	// Visit answers one query on one shard: every row of the shard's k
	// nearest whose distance is at most ceiling, and maybe others (+Inf:
	// all k). ctx carries the shard's span when the query is sampled
	// (obs.SpanFromContext).
	Visit(ctx context.Context, shard int, q []float64, k int, ceiling float64) (ShardAnswer, error)
	// Available reports whether a visit to the shard can succeed right
	// now; exact routing seeds τ from the best available shard.
	Available(shard int) bool
	// Degraded lists the shards serving their host fallback.
	Degraded() []int
}

// Pipeline runs queries over a ShardSource. It is safe for concurrent
// use.
type Pipeline struct {
	src     ShardSource
	dims    int
	router  *route.Router
	workers int
	all     []int          // every shard id: the unrouted visit set, built once
	names   []string       // shard span labels, built once
	avail   func(int) bool // src.Available, bound once off the query path
	eobs    *engineObs     // nil when unobserved

	// Set by the serve engines only; the zero values switch each stage off.
	timeout time.Duration
	res     *engineResilience

	// closeMu gates every operation against Close: operations hold the
	// read side for their duration, so Close drains in-flight work.
	closeMu sync.RWMutex
	// idleMu guards idle, the parked visit workers (most recently parked
	// last), at most maxIdle of them.
	idleMu  sync.Mutex
	idle    []chan visitFrame
	maxIdle int
	// closed is written holding both closeMu and idleMu, so either one
	// suffices to read it.
	closed bool
}

// NewPipeline builds the query path over src for dims-dimensional
// queries, routed by router when non-nil, with at most workers queries
// of a SearchBatch in flight — and so at most one parked visit worker
// for every shard of each of them (NumShards × max(workers, 1)). A non-nil o
// registers the pipeline's metrics and samples its traces.
func NewPipeline(src ShardSource, dims int, router *route.Router, workers int, o *obs.Observer) *Pipeline {
	n := src.NumShards()
	p := &Pipeline{src: src, dims: dims, router: router, workers: workers,
		all: make([]int, n), names: make([]string, n), avail: src.Available,
		maxIdle: n * max(workers, 1)}
	for i := range p.all {
		p.all[i], p.names[i] = i, fmt.Sprintf("shard %d", i)
	}
	if o != nil {
		p.eobs = newEngineObs(o, n)
	}
	return p
}

// Acquire takes a lease against Close; the returned release must be
// called when the operation finishes. It fails with ErrClosed once Close
// has run. Queries take it per query — never per batch, or a Close
// arriving mid-batch would park the batch's own workers behind the
// pending writer — and engines take it around mutations.
func (p *Pipeline) Acquire() (release func(), err error) {
	p.closeMu.RLock()
	if p.closed {
		p.closeMu.RUnlock()
		return nil, ErrClosed
	}
	return p.closeMu.RUnlock, nil
}

// Close drains every lease, refuses new ones and releases every parked
// visit worker; a worker still busy with an abandoned visit exits once
// that visit ends. It reports whether this call was the one that closed
// the pipeline, so an engine tears its shards down exactly once; a second
// (or concurrent) Close just waits for the same drain.
func (p *Pipeline) Close() (first bool) {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	p.idleMu.Lock()
	first = !p.closed
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.idleMu.Unlock()
	for _, in := range idle {
		close(in)
	}
	return first
}

// Search answers one kNN query. mode picks the routing mode: ModeAuto
// takes the router's default (or the full fan-out when unrouted); an
// explicit mode without a router is ErrNoRouter. A nil ctx means
// context.Background().
func (p *Pipeline) Search(ctx context.Context, q []float64, k int, mode route.Mode) (res *Result, err error) {
	release, err := p.Acquire()
	if err != nil {
		return nil, err
	}
	defer release()
	if len(q) != p.dims {
		return nil, fmt.Errorf("serve: query has %d dims, dataset has %d", len(q), p.dims)
	}
	if k <= 0 {
		return nil, fmt.Errorf("serve: need k >= 1, got %d", k)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// Admission control: when the concurrency cap and its wait queue are
	// both full, answer "no" now — a typed rejection in microseconds —
	// instead of queueing into certain timeout and burning crossbar
	// transfers on a query that cannot finish.
	if lrelease, lerr := p.res.admit(ctx); lerr != nil {
		p.eobs.noteRejected(lerr)
		return nil, lerr
	} else if lrelease != nil {
		defer lrelease()
	}
	if p.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeoutCause(ctx, p.timeout, ErrQueryTimeout)
		defer cancel()
	}
	start := time.Now()
	var root *obs.Span
	if p.eobs != nil {
		p.eobs.inflight.Add(1)
		ctx, root = p.eobs.o.Tracer().Start(ctx, "engine.search")
		root.SetAttr("k", k)
		root.SetAttr("shards", len(p.all))
		defer func() {
			p.eobs.inflight.Add(-1)
			p.eobs.queries.Inc()
			p.eobs.latency.Observe(time.Since(start).Seconds())
			if err != nil {
				p.eobs.errors.Inc()
				root.SetAttr("error", err)
			}
			root.End()
		}()
	}
	// Deadline-aware shedding: a query whose remaining deadline is below
	// the observed p95 service time cannot finish; shed it before any
	// PIM transfer budget (Eq. 13's Tcost) is spent on it.
	if serr := p.res.checkShed(ctx); serr != nil {
		p.eobs.noteShed()
		root.Annotate("shed", obs.A("reason", serr.Error()))
		return nil, serr
	}

	// Every visit reads the query's features from one memo (§V-A's Φ(q),
	// once per query). fanOut leaves a visit running only when ctx ends,
	// so while ctx is live every visit has returned and the memo can go
	// back to its pool.
	qc := knn.WithQuery(ctx, q)
	outs, info, err := p.route(qc, root, q, k, mode)
	if ctx.Err() == nil {
		qc.Release()
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, context.Cause(ctx) // a shard may have skipped its work
	}
	merged := mergeOuts(outs, k)
	meters := make([]*arch.Meter, len(p.all))
	var rerouted []int
	for _, o := range outs {
		meters[o.id] = o.Meter
		if o.BreakerOpen {
			rerouted = append(rerouted, o.id)
		}
	}
	sort.Ints(rerouted) // outs arrive in completion order
	meter := arch.NewMeter()
	for _, m := range meters {
		if m != nil {
			meter.Merge(m)
		}
	}
	// Feed the shedder only with completed queries: its p95 must track
	// real service time, not the latency of rejections.
	if p.res != nil {
		p.res.shed.Observe(time.Since(start))
	}
	return &Result{Neighbors: merged, Meter: meter, ShardMeters: meters,
		Degraded: p.src.Degraded(), BreakerOpen: rerouted, Routed: info}, nil
}

// SearchBatch answers a whole query matrix with at most workers queries
// in flight: each worker claims the next query and runs a full Search on
// it (lease, admission and all), so shards stay busy while no single
// batch monopolizes the engine. An empty batch is an empty result. A
// worker stops when ctx is done or at its own first failure; the batch
// then fails with ctx's error joined to every worker's first failure (a
// per-query deadline surfaces as one). Results are in query order and
// identical to issuing the queries sequentially.
func (p *Pipeline) SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*BatchResult, error) {
	res := &BatchResult{Meter: arch.NewMeter()}
	if queries == nil || queries.N == 0 {
		return res, nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	n := queries.N
	res.Results = make([]*Result, n)
	// Queue depth: the batch enters the gauge whole and each query leaves
	// it once — when a worker claims it, or unclaimed after the workers
	// stop — so the gauge returns to its prior value on every exit path.
	depth := func(int64) {}
	if p.eobs != nil {
		depth = p.eobs.queueDepth.Add
	}
	depth(int64(n))
	var next atomic.Int64
	errs := make([]error, min(max(p.workers, 1), n))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				qi := int(next.Add(1) - 1)
				if qi >= n {
					return
				}
				depth(-1)
				r, err := p.Search(ctx, queries.Row(qi), k, route.ModeAuto)
				if err != nil {
					errs[w] = fmt.Errorf("serve: query %d: %w", qi, err)
					return
				}
				res.Results[qi] = r
			}
		}()
	}
	wg.Wait()
	depth(-int64(n - min(int(next.Load()), n)))
	if err := errors.Join(append([]error{ctx.Err()}, errs...)...); err != nil {
		return nil, err
	}
	for _, r := range res.Results {
		res.Meter.Merge(r.Meter)
	}
	return res, nil
}

// Requery is the bare unrouted fan-out and merge: no lease, no
// admission, no deadline. It is the standing-query registry's re-query
// hook, which runs under an engine's mutation lock inside an operation
// that already holds a lease, so it must take no engine lock itself.
func (p *Pipeline) Requery(q []float64, k int) ([]vec.Neighbor, error) {
	outs, err := p.fanOut(context.Background(), nil, q, k, math.Inf(1), p.all)
	if err != nil {
		return nil, err
	}
	return mergeOuts(outs, k), nil
}

// shardOut carries one shard visit back to the query goroutine.
type shardOut struct {
	id int
	ShardAnswer
	err error
}

// mergeOuts is the global top-k: the k minimum of the concatenated shard
// answers under the (distance, index) total order — the same order every
// searcher's TopK heap resolves ties with, which is what makes the merge
// exactly equal to a sequential scan whatever order the shards finished
// in.
func mergeOuts(outs []shardOut, k int) []vec.Neighbor {
	n := 0
	for _, o := range outs {
		n += len(o.Neighbors)
	}
	merged := make([]vec.Neighbor, 0, n)
	for _, o := range outs {
		merged = append(merged, o.Neighbors...)
	}
	return vec.SortNeighbors(merged, k)
}

// route decides the visit set and fans the query out to it. An unrouted
// pipeline visits everything and returns a nil RouteInfo.
func (p *Pipeline) route(ctx context.Context, root *obs.Span, q []float64, k int, mode route.Mode) ([]shardOut, *RouteInfo, error) {
	r := p.router
	if r == nil {
		if mode != route.ModeAuto {
			return nil, nil, ErrNoRouter
		}
		outs, err := p.fanOut(ctx, root, q, k, math.Inf(1), p.all)
		return outs, nil, err
	}
	if mode == route.ModeAuto {
		mode = r.DefaultMode()
	}
	start := time.Now()
	var outs []shardOut
	var info *RouteInfo
	var routeDur time.Duration
	tau := math.Inf(1)
	switch mode {
	case route.ModeExact:
		order, lbs := r.ExactOrderAvail(q, p.avail)
		routeDur = time.Since(start)
		// Wave 1: the best-lower-bound servable shard seeds the pruning
		// threshold τ, its k-th candidate distance — +Inf when it holds
		// fewer than k rows, so nothing is proven out and every shard is
		// visited.
		first, err := p.fanOut(ctx, root, q, k, math.Inf(1), order[:1])
		if err != nil {
			return nil, nil, err
		}
		if nn := first[0].Neighbors; len(nn) >= k {
			tau = nn[k-1].Dist
		}
		visit := make([]int, 0, len(order)-1)
		var skipped []int
		for _, id := range order[1:] {
			if lbs[id] <= tau {
				visit = append(visit, id)
			} else {
				skipped = append(skipped, id)
			}
		}
		rest, err := p.fanOut(ctx, root, q, k, tau, visit)
		if err != nil {
			return nil, nil, err
		}
		outs = append(first, rest...)
		sort.Ints(skipped)
		info = &RouteInfo{Mode: route.ModeExact, Visited: 1 + len(visit),
			Skipped: len(skipped), SkippedShards: skipped, EstRecall: 1}

	case route.ModeApprox:
		visit, est := r.ApproxPlan(q, 0)
		routeDur = time.Since(start)
		skipped := complement(visit, len(p.all))
		info = &RouteInfo{Mode: route.ModeApprox, Visited: len(visit),
			Skipped: len(skipped), SkippedShards: skipped, EstRecall: est}
		var err error
		if outs, err = p.fanOut(ctx, root, q, k, math.Inf(1), visit); err != nil {
			return nil, nil, err
		}
		if len(skipped) > 0 && r.Audit() {
			// Audit: search the skipped shards too and measure the routed
			// answer's recall against the full fan-out. The audit outs are
			// dropped — the served answer stays the routed one, and its
			// meters model the routed work.
			if audit, aerr := p.fanOut(ctx, root, q, k, math.Inf(1), skipped); aerr == nil {
				info.Audited = true
				info.MeasuredRecall = measureRecall(outs, audit, k)
			}
		}

	default:
		return nil, nil, fmt.Errorf("serve: unknown routing mode %q", mode)
	}
	p.noteRouted(root, info, routeDur, tau)
	return outs, info, nil
}

// complement returns 0..n-1 minus the visit set, ascending (nil when
// nothing was skipped).
func complement(visit []int, n int) []int {
	if len(visit) == n {
		return nil
	}
	in := make([]bool, n)
	for _, id := range visit {
		in[id] = true
	}
	out := make([]int, 0, n-len(visit))
	for id := range in {
		if !in[id] {
			out = append(out, id)
		}
	}
	return out
}

// measureRecall computes |routed top-k ∩ full top-k| / |full top-k|,
// where the full top-k merges the routed and audited shard answers.
func measureRecall(routed, audit []shardOut, k int) float64 {
	routedNN := mergeOuts(routed, k)
	full := vec.MergeNeighbors(k, routedNN, mergeOuts(audit, k))
	if len(full) == 0 {
		return 1
	}
	have := make(map[int]bool, len(routedNN))
	for _, nn := range routedNN {
		have[nn.Index] = true
	}
	hit := 0
	for _, nn := range full {
		if have[nn.Index] {
			hit++
		}
	}
	return float64(hit) / float64(len(full))
}

// noteRouted records one routed query on the router's cumulative stats,
// the span tree — with tau, the ceiling wave 2 was handed (+Inf when there
// was none) — and the pim_route_* metrics (nil-safe throughout).
func (p *Pipeline) noteRouted(root *obs.Span, info *RouteInfo, routeDur time.Duration, tau float64) {
	p.router.NoteOutcome(info.Visited, info.Skipped)
	root.Annotate("routed",
		obs.A("mode", string(info.Mode)),
		obs.A("visited", info.Visited),
		obs.A("skipped", info.Skipped),
		obs.A("est_recall", info.EstRecall),
		obs.A("tau", tau))
	eo := p.eobs
	if eo == nil {
		return
	}
	eo.routeQueries.Inc()
	eo.routeVisited.Add(int64(info.Visited))
	eo.routeSkipped.Add(int64(info.Skipped))
	eo.routeLatency.Observe(routeDur.Seconds())
	if info.Mode == route.ModeApprox {
		eo.routeEstRecall.Observe(info.EstRecall)
		if info.Audited {
			eo.routeAudits.Inc()
			eo.routeMeasuredRecall.Observe(info.MeasuredRecall)
		}
	}
}

// fanOut visits the given shards in parallel, each with the given ceiling
// (ShardSource.Visit), and collects every answer. Each visit goes to a
// parked worker, or to a new one when none is parked, so a visit never
// waits behind another. The channel is buffered so a worker can always
// deliver and move on, even when the query gave up on its deadline; a
// visit whose ctx is already done is skipped but still delivers. Every
// shard's outcome is collected before failing: the caller sees each
// failed shard joined in shard order (errors.Join;
// the placement layer's quorum accounting depends on seeing them all),
// not whichever one lost the race.
func (p *Pipeline) fanOut(ctx context.Context, root *obs.Span, q []float64, k int, ceiling float64, ids []int) ([]shardOut, error) {
	ch := make(chan shardOut, len(ids))
	for _, id := range ids {
		p.dispatch(visitFrame{ctx: ctx, root: root, id: id, q: q, k: k, ceiling: ceiling, out: ch})
	}
	outs := make([]shardOut, 0, len(ids))
	var errs []error // indexed by shard id: Join skips the nils and keeps shard order
	for range ids {
		select {
		case o := <-ch:
			if o.err == nil {
				outs = append(outs, o)
				continue
			}
			if errs == nil {
				errs = make([]error, len(p.all))
			}
			errs[o.id] = fmt.Errorf("serve: shard %d: %w", o.id, o.err)
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	}
	if errs != nil {
		return nil, errors.Join(errs...)
	}
	return outs, nil
}

// visitFrame is one shard visit as a worker receives it, by value.
type visitFrame struct {
	ctx     context.Context
	root    *obs.Span
	id      int
	q       []float64
	k       int
	ceiling float64
	out     chan<- shardOut
}

// dispatch hands f to the most recently parked worker, or starts a new
// worker when none is parked.
func (p *Pipeline) dispatch(f visitFrame) {
	p.idleMu.Lock()
	if n := len(p.idle) - 1; n >= 0 {
		in := p.idle[n]
		p.idle = p.idle[:n]
		p.idleMu.Unlock()
		in <- f
		return
	}
	p.idleMu.Unlock()
	go p.work(f)
}

// work runs f, then parks for the next frame. It exits when the idle set
// is full or the pipeline is closed.
func (p *Pipeline) work(f visitFrame) {
	in := make(chan visitFrame, 1) // buffered: dispatch never waits on it
	for {
		o := shardOut{id: f.id}
		if f.ctx.Err() == nil {
			o.ShardAnswer, o.err = p.visit(f.ctx, f.root, f.id, f.q, f.k, f.ceiling)
		}
		f.out <- o
		if !p.park(in) {
			return
		}
		var ok bool
		if f, ok = <-in; !ok {
			return // Close released the idle set
		}
	}
}

// park adds a worker's channel to the idle set, unless the set is full
// or the pipeline is closed.
func (p *Pipeline) park(in chan visitFrame) bool {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	if p.closed || len(p.idle) >= p.maxIdle {
		return false
	}
	p.idle = append(p.idle, in)
	return true
}

// visit is one shard's frame, the same on every source: the shard span
// the source's work hangs under, the per-shard fan-out counter, and the
// annotations read off the answer.
func (p *Pipeline) visit(ctx context.Context, root *obs.Span, id int, q []float64, k int, ceiling float64) (ShardAnswer, error) {
	sp := root.StartChild(p.names[id])
	if p.eobs != nil {
		p.eobs.shardQueries[id].Inc()
	}
	ans, err := p.src.Visit(obs.ContextWithSpan(ctx, sp), id, q, k, ceiling)
	annotateFaults(sp, ans.Meter)
	if ans.BreakerOpen {
		sp.Annotate("breaker-open")
	}
	sp.End()
	return ans, err
}
