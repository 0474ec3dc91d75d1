package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/serve"
)

const (
	// tracedRounds interleaves untraced and traced slices of wire load so
	// a slow spell on a shared box lands on both sides of the overhead
	// ratio. Each round is one untraced slice and a traced one twice as
	// long; together they last the configured seconds × 3/4.
	tracedRounds = 2
	// honestyQueries is how many pool queries the wrapped and the plain
	// engine are compared on before anything is timed.
	honestyQueries = 64
)

// tracedPhase produces the per-layer numbers: spans at every boundary
// the benchmark can reach from outside, one connection so they nest by
// time, plus direct probes of the layers that cannot be wrapped.
func tracedPhase(in *inputs, cfg config, res *result) error {
	if res.PerLayer == nil {
		res.PerLayer = map[string]value{}
	}
	rec := newRecorder()
	plain, traced, err := buildPair(in, cfg, rec, res)
	if err != nil {
		return err
	}
	defer plain.remove()
	defer traced.remove()

	direct, directSpans := tracedDirect(traced, rec, res)
	directRef := rec.speed()
	handlerSpans, handlerSearch := handlerProbe(traced, rec)
	handlerRef := rec.speed()
	speedup := fanoutSpeedup(plain)
	engineAllocs := testing.AllocsPerRun(20, func() { _, _ = plain.search(in.pool.Row(0)) })
	requestAllocs := handlerAllocs(plain)

	wire, err := wirePasses(plain, traced, rec, cfg, res)
	if err != nil {
		return err
	}
	if err := plain.close(); err != nil {
		return err
	}
	if traced != plain {
		if err := traced.close(); err != nil {
			return err
		}
	}
	if wire.model != nil {
		if err := churnLayers(traced, wire, res); err != nil {
			return err
		}
	}
	probe, err := probeLayers(in, cfg, res)
	if err != nil {
		return err
	}

	engine := "serve."
	if in.w.name == clusterXbar {
		engine = "cluster."
	}
	res.layer("bench.gen_s", in.genS, 1)
	tracedP50 := quantile(wire.traced, 0.50)
	res.TracedMs = ms(tracedP50)
	res.layer("bench.trace_overhead_ratio", meanOf(wire.overhead), len(wire.traced)+len(wire.untraced))
	res.layer("bench.client_us", us(quantile(wire.client, 0.50)), len(wire.client))
	res.layer("bench.ref_us", us(quantile(wire.ref, 0.50)), len(wire.ref))
	res.layer("netserve.body_bytes", meanBodyBytes(in), poolSize/in.perRequest())
	res.layer("netserve.allocs_per_req", requestAllocs, 20)
	res.layer(engine+"allocs_per_query", engineAllocs, 20)
	res.layer("engine.allocs_per_query", engineAllocs, 20)
	res.layer("engine.fanout_speedup", speedup, poolSize)
	meterMetrics(in, traced.cfg, direct, res)

	// Each pass, reduced to per-root durations. knn is the part of a span
	// its knn.search children cover: the shard visits on the critical path.
	var search, self, handler, handlerSelf, transport, knnWire []time.Duration
	var skew []float64
	visits := 0
	for _, t := range trees(directSpans) {
		search = append(search, t.root.dur())
		self = append(self, t.root.dur()-cover(t.visits))
		visits += len(t.visits)
		if sk := fanoutSkew(t.visits); sk > 0 {
			skew = append(skew, sk)
		}
	}
	for _, t := range trees(handlerSpans) {
		handler = append(handler, t.handler.dur())
		handlerSelf = append(handlerSelf, t.handler.dur()-cover(t.visits))
	}
	// On churn-durable the parts are those of the reader alone; what the
	// writer beside it adds to a read — tombstone over-fetch, delta scans,
	// compaction and fsync contention, none of which anything outside
	// MutableEngine can split — is the measured difference of two passes.
	partSpans, quietP50, wireRef := wire.spans, tracedP50, quantile(wire.ref, 0.50)
	if wire.model != nil {
		partSpans, quietP50, wireRef = wire.quietSpans, quantile(wire.quiet, 0.50), wire.quietRef
	}
	// at is a time measured in a pass whose reference took ref, at
	// the machine speed of the wire pass the parts are set against: the
	// passes run seconds apart and the box does not hold its speed.
	at := func(d, ref time.Duration) time.Duration {
		return time.Duration(float64(d) * float64(wireRef) / float64(ref))
	}
	for _, t := range trees(partSpans) {
		if t.handler == nil {
			continue // a request that failed before reaching the handler
		}
		transport = append(transport, t.root.dur()-t.handler.dur())
		knnWire = append(knnWire, cover(t.visits))
	}
	searchP50, handlerP50, transportP50 := quantile(search, 0.50), quantile(handler, 0.50), quantile(transport, 0.50)
	res.layer(engine+"search_ms", ms(searchP50), len(search))
	res.layer("engine.search_ms", ms(searchP50), len(search))
	res.layer("netserve.handler_ms", ms(handlerP50), len(handler))
	res.layer("netserve.transport_us", us(transportP50), len(transport))

	// Attribution, the software analogue of Eq. 1: parts measured in
	// different passes against the traced request's median.
	procs := float64(runtime.GOMAXPROCS(0))
	rows := []part{{"transport", ms(transportP50)}}
	if in.w.wrappable() {
		// One request carries perRequest queries whose engine self times
		// overlap at most min(perRequest, CPUs)-fold.
		per := float64(in.perRequest())
		selfP50 := quantile(self, 0.50)
		enginePart := time.Duration(float64(at(selfP50, directRef)) * per / math.Min(per, procs))
		netSelf := at(quantile(handlerSelf, 0.50), handlerRef) - enginePart
		knnPart := quantile(knnWire, 0.50)
		pimPart := time.Duration(0)
		if in.w.usesPIM {
			pimPart = time.Duration(float64(knnPart) * float64(probe.pimQueryAll) / float64(probe.knnSearch))
		}
		res.layer(engine+"self_us", us(selfP50), len(self))
		res.layer("netserve.self_us", us(netSelf), len(handlerSelf))
		if in.w.name == clusterXbar {
			res.layer("cluster.replica_visits_per_query", float64(visits)/float64(len(search)), len(search))
		} else {
			res.layer("serve.fanout_skew", meanOf(skew), len(skew))
		}
		rows = append(rows,
			part{"netserve", ms(netSelf)},
			part{engine[:len(engine)-1], ms(enginePart)},
			part{"knn.host", ms(knnPart - pimPart)},
			part{"pim", ms(pimPart)})
	} else {
		// MutableEngine takes no wrapper, so nothing inside a search can be
		// timed from outside and everything below netserve stays one row
		// (wire-knn, same searchers, splits it). netserve's own time is the
		// handler probe's paired difference; the rows therefore add up to
		// the traced request by construction.
		pairs := make([]time.Duration, len(handler))
		for i := range pairs {
			pairs[i] = handler[i] - handlerSearch[i]
		}
		netSelf := at(quantile(pairs, 0.50), handlerRef)
		res.layer("netserve.self_us", us(netSelf), len(pairs))
		rows = append(rows,
			part{"netserve", ms(netSelf)},
			part{"serve+knn+pim", ms(quietP50 - transportP50 - netSelf)},
			part{"churn", ms(tracedP50 - quietP50)})
	}
	res.Attribution = rows
	sum := 0.0
	for _, p := range rows {
		sum += p.Ms
	}
	res.layer("bench.attrib_residual_ratio", math.Abs(res.TracedMs-sum)/res.TracedMs, len(wire.traced))
	res.spans = append(append(append(directSpans, handlerSpans...), wire.quietSpans...), wire.spans...)
	return nil
}

// buildPair builds the plain stack — exactly what the end-to-end phase
// measures — and its traced twin: span middleware in front of the
// server and, where the engine takes a Factory, timing wrappers around
// the same searchers, checked to answer identically. MutableEngine
// ignores Factory, so there one stack with the (switchable) middleware
// serves both sides.
func buildPair(in *inputs, cfg config, rec *recorder, res *result) (plain, traced *stack, err error) {
	if !in.w.wrappable() {
		traced, err = build(in, cfg, rec)
		return traced, traced, err
	}
	if plain, err = build(in, cfg, nil); err != nil {
		return nil, nil, err
	}
	if traced, err = build(in, cfg, rec); err != nil {
		return nil, nil, err
	}
	failed := 0
	var first error
	for i := 0; i < honestyQueries; i++ {
		q := in.pool.Row(i)
		a, err := plain.search(q)
		if err != nil {
			return nil, nil, err
		}
		b, err := traced.search(q)
		if err != nil {
			return nil, nil, err
		}
		if err := sameResult(a, b); err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("query %d: wrapped engine differs: %w", i, err)
			}
		}
	}
	res.count("wrapper-honesty", honestyQueries, failed, first)
	return plain, traced, nil
}

// sameResult requires identical neighbours and identical meter counters
// for every function.
func sameResult(a, b *serve.Result) error {
	if !reflect.DeepEqual(a.Neighbors, b.Neighbors) {
		return fmt.Errorf("neighbours %v vs %v", a.Neighbors, b.Neighbors)
	}
	fa, fb := a.Meter.Functions(), b.Meter.Functions()
	if !reflect.DeepEqual(fa, fb) {
		return fmt.Errorf("meter functions %v vs %v", fa, fb)
	}
	for _, fn := range fa {
		if a.Meter.Get(fn) != b.Meter.Get(fn) {
			return fmt.Errorf("meter %q: %+v vs %+v", fn, a.Meter.Get(fn), b.Meter.Get(fn))
		}
	}
	return nil
}

// tracedDirect asks every pool query of the traced engine in process,
// each call bracketed by an engine.search span.
func tracedDirect(st *stack, rec *recorder, res *result) ([]*serve.Result, []span) {
	for i := 0; i < honestyQueries; i++ { // untimed: fault the fresh index in
		_, _ = st.search(st.in.pool.Row(i))
	}
	rec.enable(true)
	out := directPass(st, res, "traced-direct", rec)
	rec.enable(false)
	return out, rec.take()
}

func (st *stack) request(i int) *http.Request {
	target := "/v1/search"
	if st.in.w.batch > 0 {
		target = "/v1/search/batch"
	}
	return httptest.NewRequest(http.MethodPost, target, bytes.NewReader(st.in.bodies[i]))
}

// handlerProbe runs every pool request through the traced handler into
// a response recorder: netserve and everything below it, no socket.
//
// Where the engine takes no wrapper there are no knn.search spans to
// subtract, so each request is followed by the same query asked of the
// engine directly: the pair differs by netserve's own time alone, and
// both halves see the same machine and the same caches.
func handlerProbe(st *stack, rec *recorder) (spans []span, searches []time.Duration) {
	rec.enable(true)
	for i := 0; i < poolSize; i += st.in.perRequest() {
		t0 := rec.now()
		st.handler.ServeHTTP(httptest.NewRecorder(), st.request(i))
		rec.add(spanRequest, t0, rec.now(), -1)
		rec.refer(st.in, i)
		if !st.in.w.wrappable() {
			t := time.Now()
			_, _ = st.search(st.in.pool.Row(i))
			searches = append(searches, time.Since(t))
		}
	}
	rec.enable(false)
	return rec.take(), searches
}

// handlerAllocs is heap allocations per request through the plain
// server, less what building the request and recorder themselves cost.
func handlerAllocs(st *stack) float64 {
	with := testing.AllocsPerRun(20, func() { st.srv.ServeHTTP(httptest.NewRecorder(), st.request(0)) })
	without := testing.AllocsPerRun(20, func() { httptest.NewRecorder(); st.request(0) })
	return with - without
}

// wireResult is what the one-connection wire passes observed.
type wireResult struct {
	untraced, traced, client, ref []time.Duration
	// overhead is, per round, the traced slice's p50 over the untraced
	// slice's, each request in its own reference.
	overhead []float64
	spans    []span
	// churn-durable only: the reader alone, then the writer beside it.
	quiet      []time.Duration
	quietSpans []span
	quietRef   time.Duration
	model      *model
	writes     writerStats
	fills      []float64
}

// wirePasses drives one connection over real loopback HTTP, untraced
// slices against the plain stack alternating with traced slices against
// its twin. On churn-durable a traced slice of the reader alone comes
// first; then the open-loop writer runs beside every slice, and the
// engine is checked against the model afterwards.
func wirePasses(plain, traced *stack, rec *recorder, cfg config, res *result) (*wireResult, error) {
	in := plain.in
	if err := plain.serve(); err != nil {
		return nil, err
	}
	if traced != plain {
		if err := traced.serve(); err != nil {
			return nil, err
		}
	}
	cs := newConns(1) // one connection, so spans nest by time
	defer closeConns(cs)
	out := &wireResult{}
	wireCount := phaseCount{Phase: "traced-wire"}
	writerCount := phaseCount{Phase: "writer"}
	check := exactly(in.truth)
	// run is one slice of closed-loop load, traced when r is set, with
	// the writer beside it once the model exists.
	run := func(st *stack, dur time.Duration, r *recorder) window {
		var ws writerStats
		var wg sync.WaitGroup
		if out.model != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws = out.model.runWriter(st.mutable, time.Now(), dur)
			}()
		}
		r.enable(true)
		win := st.runWindow(cs, dur, check, r)
		r.enable(false)
		wg.Wait()
		wireCount.add(win.attempted, win.failed, win.firstErr)
		if out.model != nil {
			writerCount.add(ws.attempted, ws.failed, ws.firstErr)
			out.writes.latency = append(out.writes.latency, ws.latency...)
			out.writes.late = append(out.writes.late, ws.late...)
			out.writes.service = append(out.writes.service, ws.service...)
			out.fills = append(out.fills, deltaFill(st.mutable, st.mopts.MaxDelta))
		}
		return win
	}
	slice := time.Duration(cfg.seconds / (4 * tracedRounds) * float64(time.Second))
	run(plain, slice/2, nil) // warm the sockets and the engines
	if traced != plain {
		run(traced, slice/2, nil)
	}
	if in.w.churn {
		quiet := run(traced, 2*slice, rec)
		out.quiet, out.quietRef, out.quietSpans = quiet.latencies(), quiet.ref(), rec.take()
		check = wellFormed
		out.model = newModel(in, cfg.seed)
	}
	for round := 0; round < tracedRounds; round++ {
		un := run(plain, slice, nil)
		win := run(traced, 2*slice, rec)
		out.untraced = append(out.untraced, un.latencies()...)
		out.traced = append(out.traced, win.latencies()...)
		out.overhead = append(out.overhead, win.latencyRefs(0.50)/un.latencyRefs(0.50))
		for _, s := range win.samples {
			out.client = append(out.client, s.client)
			out.ref = append(out.ref, s.ref)
		}
	}
	out.spans = rec.take()
	res.Phases = append(res.Phases, wireCount)
	if out.model != nil {
		res.Phases = append(res.Phases, writerCount)
		quiesced := phaseCount{Phase: "quiesced-check"}
		unpinned(func() { quiesced.add(traced.verifyQuiesced(out.model, cs[0], 0, quiescedQueries)) })
		res.Phases = append(res.Phases, quiesced)
	}
	return out, nil
}

// churnLayers reports what the writer beside the reader showed: the
// write path's own time, compaction behaviour, the WAL's sync traffic
// through the Fsync hook, and the restart.
func churnLayers(st *stack, wire *wireResult, res *result) error {
	ws := wire.writes
	res.layer("serve.write_us", us(quantile(ws.service, 0.50)), len(ws.service))
	res.layer("bench.sched_late_ms", ms(quantile(ws.late, 0.50)), len(ws.late))
	compactions := 0
	maxPause := 0.0
	for _, s := range st.mutable.Stats() {
		compactions += s.Compactions
		maxPause = math.Max(maxPause, s.MaxPauseS)
	}
	res.layer("delta.compactions", float64(compactions), shards)
	res.layer("delta.max_pause_ms", maxPause*1e3, compactions)
	res.layer("delta.fill_mean", meanOf(wire.fills), len(wire.fills))
	res.layer("wal.fsyncs_per_write", float64(st.fsync.calls)/float64(len(ws.service)), len(ws.service))
	logged, err := walBytes(st.mopts.Durability.Dir)
	if err != nil {
		return err
	}
	res.layer("wal.bytes_per_user_byte", float64(logged)/float64(wire.model.userBytes), len(ws.service))
	recoverS, replayed, err := st.recoverAndCheck(wire.model)
	res.count("recover", 1, boolToInt(err != nil), err)
	res.layer("serve.recover_s", recoverS, 1)
	res.layer("wal.records_replayed", float64(replayed), 1)
	return nil
}

// fanoutSpeedup is how much sooner a query asked alone is answered on
// every CPU than on the workload's pinned procs: what the engine's shard
// fan-out buys on this machine, and what the one-connection metrics on
// pinned procs cannot see. Half the pool each way, p50 of each search
// over the reference that followed it.
func fanoutSpeedup(st *stack) float64 {
	pass := func() float64 {
		refs := make([]float64, 0, poolSize/2)
		for i := 0; i < poolSize/2; i++ {
			t0 := time.Now()
			_, err := st.search(st.in.pool.Row(i))
			d := time.Since(t0)
			if ref := reference(st.in, i); err == nil {
				refs = append(refs, float64(d)/float64(ref))
			}
		}
		return quantile(refs, 0.50)
	}
	pinned := pass()
	all := pinned
	unpinned(func() { all = pass() })
	return pinned / all
}

// fanoutSkew is slowest ÷ mean shard visit of one query: the slowest
// part sets the time.
func fanoutSkew(visits []span) float64 {
	if len(visits) == 0 {
		return 0
	}
	var sum, worst time.Duration
	for _, v := range visits {
		sum += v.dur()
		if v.dur() > worst {
			worst = v.dur()
		}
	}
	return float64(worst) * float64(len(visits)) / float64(sum)
}

func meanOf(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

func meanBodyBytes(in *inputs) float64 {
	total, n := 0, 0
	for i := 0; i < poolSize; i += in.perRequest() {
		total += len(in.bodies[i])
		n++
	}
	return float64(total) / float64(n)
}

// meterMetrics turns the direct pass's Result.Meter and Result.Routed —
// values the public API already returns — into the modeled and
// work-count metrics. All of them repeat exactly at one seed.
func meterMetrics(in *inputs, cfg arch.Config, direct []*serve.Result, res *result) {
	var host, pimNs, tcache, total float64
	var refined, scanned, buf, cycles, visited, skipped int64
	n := 0
	routed := false
	for _, r := range direct {
		if r == nil {
			continue
		}
		n++
		_, b := cfg.TimeMeter(r.Meter)
		host += b.Host()
		pimNs += b.TPIM
		tcache += b.Tcache
		total += b.Total()
		t := r.Meter.Total()
		refined += r.Meter.Get(arch.FuncED).Calls
		scanned += r.Meter.Get(arch.FuncOther).Ops
		buf += t.PIMBufBytes
		cycles += t.PIMCycles
		if r.Routed != nil {
			routed = true
			visited += int64(r.Routed.Visited)
			skipped += int64(r.Routed.Skipped)
		}
	}
	if n == 0 {
		return
	}
	per := func(x float64) float64 { return x / float64(n) }
	res.layer("arch.modeled_host_us", per(host)/1e3, n)
	res.layer("arch.tcache_share", tcache/total, n)
	res.layer("knn.refined_per_query", per(float64(refined)), n)
	res.layer("knn.prune_ratio", 1-float64(refined)/float64(scanned), n)
	if in.w.usesPIM {
		res.layer("arch.modeled_pim_us", per(pimNs)/1e3, n)
		res.layer("pim.dots_per_query", per(float64(buf/8)), n) // 8 result bytes per dot
		res.layer("pim.buf_bytes_per_query", per(float64(buf)), n)
		res.layer("pim.cycles_per_query", per(float64(cycles)), n)
	}
	if routed {
		res.layer("route.shards_visited", per(float64(visited)), n)
		res.layer("route.skip_ratio", float64(skipped)/float64(visited+skipped), n)
	}
}
