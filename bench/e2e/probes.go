package main

import (
	"fmt"
	"os"
	"regexp"
	"strconv"
	"testing"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/core"
	"pimmine/internal/crossbar"
	"pimmine/internal/knn"
	"pimmine/internal/measure"
	"pimmine/internal/netserve"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Probes time the layers no wrapper reaches (pim, crossbar, wal, route
// and the kernels sit inside their callers) by calling their public
// functions directly, on the shards' rows and the pool's queries, from
// one goroutine. Sub-microsecond calls are timed in batches.

// probeOut carries the two probe medians the attribution needs.
type probeOut struct {
	knnSearch   time.Duration // one shard visit
	pimQueryAll time.Duration // its PIM passes
}

// each times f once per pool query and returns the median.
func each(f func(i int)) time.Duration {
	ds := make([]time.Duration, poolSize)
	for i := range ds {
		t0 := time.Now()
		f(i)
		ds[i] = time.Since(t0)
	}
	return quantile(ds, 0.50)
}

// batched times reps calls of f per sample, for calls too short for the
// clock, and returns the median time of one call in nanoseconds.
func batched(reps int, f func(i int)) float64 {
	const samples = 64
	ns := make([]float64, samples)
	for s := range ns {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			f(s*reps + r)
		}
		ns[s] = float64(time.Since(t0)) / float64(reps)
	}
	return median(ns)
}

// shardProbe is one shard's probe target: the searcher the engine builds
// for the shard (same constructor, same capacity) and the LB_PIM-FNN
// payload pair over the same rows at the searcher's Theorem 4
// dimensionality, programmed through pim.Engine in the workload's mode
// (ModeExact, off-path, on the host-only workload).
type shardProbe struct {
	searcher knn.Searcher
	ix       *pimbound.FNNIndex
	eng      *pim.Engine
	mu, sg   *pim.Payload
}

// shardProbes holds one target per shard. Probes visit them in rotation,
// as the engine does: a query sweeps every shard's rows, so a visit finds
// its shard's data as cold in the caches as the engine finds it.
type shardProbes struct {
	fw     *core.Framework
	segs   int
	shards [shards]shardProbe
	// programS and programModeledMs are per shard: host time of
	// Engine.Program for both payloads, and Payload.Cost().
	programS, programModeledMs float64
}

func buildProbes(in *inputs) (*shardProbes, error) {
	w := in.w
	fw, err := framework(w)
	if err != nil {
		return nil, err
	}
	capN := shardCapacity(in.profile.FullN)
	if w.name == clusterXbar {
		capN = shardRows(in.x, 0).N // cluster's delta stores size against their own rows
	}
	sp := &shardProbes{fw: fw, segs: pim.ModelFor(fw.Cfg).ChooseS(capN, pim.Divisors(in.x.D), 2)}
	for id := range sp.shards {
		p := &sp.shards[id]
		part := shardRows(in.x, id)
		if p.searcher, err = searcherFor(w, fw, part, capN); err != nil {
			return nil, err
		}
		if p.ix, err = pimbound.BuildFNN(part, fw.Quant, sp.segs); err != nil {
			return nil, err
		}
		if p.eng, err = fw.NewEngine(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if p.mu, err = p.eng.Program("probe/mu", part.N, sp.segs, 2, p.ix.MuFloor); err != nil {
			return nil, err
		}
		if p.sg, err = p.eng.Program("probe/sigma", part.N, sp.segs, 2, p.ix.SigmaFloor); err != nil {
			return nil, err
		}
		sp.programS += time.Since(t0).Seconds() / shards
		sp.programModeledMs += (p.mu.Cost().TotalNs() + p.sg.Cost().TotalNs()) / 1e6 / shards
	}
	return sp, nil
}

func probeLayers(in *inputs, cfg config, res *result) (probeOut, error) {
	var out probeOut
	sp, err := buildProbes(in)
	if err != nil {
		return out, err
	}
	w, fw, segs := in.w, sp.fw, sp.segs
	rows := shardRows(in.x, 0)
	q := func(i int) []float64 { return in.pool.Row(i % poolSize) }
	res.layer("pim.program_s", sp.programS, shards)
	res.layer("pim.program_modeled_ms", sp.programModeledMs, shards)

	// One shard visit and its PIM passes, timed back to back on the same
	// shard and query so both see the same machine.
	meter := arch.NewMeter()
	qMu, qSg := make([]uint32, segs), make([]uint32, segs)
	var dMu, dSg []int64
	var perr error
	visit, passes := make([]time.Duration, poolSize), make([]time.Duration, poolSize)
	for i := range visit {
		p := &sp.shards[i%shards]
		t0 := time.Now()
		p.searcher.Search(q(i), topK, meter)
		t1 := time.Now()
		qf, err := p.ix.QueryInto(q(i), qMu, qSg)
		if err == nil {
			dMu, err = p.eng.QueryAll(nil, "probe", p.mu, qf.MuFloor, dMu)
		}
		if err == nil {
			dSg, err = p.eng.QueryAll(nil, "probe", p.sg, qf.SigmaFloor, dSg)
		}
		if err != nil {
			return out, err
		}
		visit[i], passes[i] = t1.Sub(t0), time.Since(t1)
	}
	out.knnSearch, out.pimQueryAll = quantile(visit, 0.50), quantile(passes, 0.50)
	res.layer("knn.search_ms", ms(out.knnSearch), poolSize)
	res.layer("pim.query_all_ms", ms(out.pimQueryAll), poolSize)
	host := out.knnSearch
	if w.usesPIM {
		host -= out.pimQueryAll
	}
	res.layer("knn.host_ms", ms(host), poolSize)
	dst := make([]vec.Neighbor, 0, topK)
	as := sp.shards[0].searcher.(knn.AppendSearcher)
	res.layer("knn.allocs_per_search", testing.AllocsPerRun(50, func() { as.SearchAppend(q(0), topK, meter, dst[:0]) }), 50)
	if w.pimMode == pim.ModeSimulate {
		mu := sp.shards[0].mu
		_, chunks := mu.Layout()
		// Both payloads, every shard: a query fires every tile once.
		res.layer("crossbar.tiles_per_query", float64(2*mu.Groups()*chunks*shards), 1)
	}

	// crossbar: one full tile (M vectors' worth of columns at M dims) at
	// the framework's operand width.
	spec, bits := fw.Cfg.Crossbar, fw.Cfg.OperandBits
	xb := crossbar.New(spec)
	row := make([]uint32, spec.M)
	for v := 0; v < spec.VectorsPerCrossbar(spec.M, bits); v++ {
		for j := range row {
			row[j] = fw.Quant.Floor(q(v)[j%in.x.D])
		}
		if _, err := xb.ProgramVector(row, bits); err != nil {
			return out, err
		}
	}
	tile := make([]int64, xb.Vectors())
	res.layer("crossbar.dot_all_us", us(each(func(i int) {
		if _, err := xb.DotAllInto(row, bits, tile); err != nil {
			perr = err
		}
	})), poolSize)
	if perr != nil {
		return out, perr
	}

	// Kernels at the workload's s and d.
	a, b := fw.Quant.FloorVec(q(0)[:segs], nil), fw.Quant.FloorVec(q(1)[:segs], nil)
	var sinkI int64
	var sinkF float64
	res.layer("vec.int_dot_ns", batched(2000, func(int) { sinkI += vec.IntDot(a, b) }), 64)
	res.layer("vec.sq_euclid_ns", batched(500, func(i int) { sinkF += measure.SqEuclidean(q(i), rows.Row(i%rows.N)) }), 64)
	var fl []uint32
	res.layer("quant.floor_vec_us", batched(100, func(i int) { fl = fw.Quant.FloorVec(q(i), fl) })/1e3, 64)
	_, _ = sinkI, sinkF

	// Admission, uncontended: netserve's fair queue then serve's limiter.
	fq, lim := resilience.NewFairQueue(workers, netserve.DefaultMaxQueue), resilience.NewLimiter(workers, workers)
	res.layer("resilience.admit_us", batched(1000, func(int) {
		r1, err1 := fq.Acquire(bgCtx, netserve.DefaultTenant)
		r2, err2 := lim.Acquire(bgCtx)
		if err1 != nil || err2 != nil {
			perr = fmt.Errorf("admission refused: %v, %v", err1, err2)
			return
		}
		r2()
		r1()
	})/1e3, 64)
	if perr != nil {
		return out, perr
	}

	// Wire decode of the request body.
	decode := func(i int) {
		i -= i % in.perRequest()
		if w.batch > 0 {
			_, perr = netserve.DecodeBatchRequest(in.bodies[i], in.x.D, netserve.DefaultMaxK, netserve.DefaultMaxBatch)
		} else {
			_, perr = netserve.DecodeQueryRequest(in.bodies[i], in.x.D, netserve.DefaultMaxK)
		}
	}
	res.layer("netserve.decode_us", us(each(decode)), poolSize)
	if perr != nil {
		return out, perr
	}

	if w.name == wireKNN {
		router, err := route.NewEven(route.Config{}, in.x, shards)
		if err != nil {
			return out, err
		}
		res.layer("route.plan_us", batched(50, func(i int) { router.ExactOrder(q(i)) })/1e3, 64)
		ratio, err := xcheck(in, fw, out.pimQueryAll)
		if err != nil {
			return out, err
		}
		res.layer("bench.xcheck_ratio", ratio, honestyQueries)
	}
	return out, probeWAL(in, cfg, res)
}

// probeWAL appends churn-durable's record mix to a standalone log with
// the same policy (SyncAlways) and record size, timing Append and, via
// the Fsync hook, the sync inside it.
func probeWAL(in *inputs, cfg config, res *result) error {
	dir, err := os.MkdirTemp(cfg.tmp, "e2e-walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	hook := &fsyncHook{}
	log, _, err := wal.Open(dir, wal.Options{Policy: wal.SyncAlways, Fsync: hook.sync})
	if err != nil {
		return err
	}
	const appends = 128
	durs := make([]time.Duration, 0, appends)
	for i := 0; i < appends; i++ {
		rec := wal.Record{Op: wal.OpInsert, Shard: i % shards, ID: in.x.N + i, Vec: in.pool.Row(i % poolSize)}
		switch i % 4 {
		case 2:
			rec.Op = wal.OpUpdate
		case 3:
			rec.Op, rec.Vec = wal.OpDelete, nil
		}
		t0 := time.Now()
		if _, err := log.Append(rec); err != nil {
			log.Close()
			return err
		}
		durs = append(durs, time.Since(t0))
	}
	if err := log.Close(); err != nil {
		return err
	}
	res.layer("wal.append_us", us(quantile(durs, 0.50)), appends)
	res.layer("wal.fsync_us", us(quantile(hook.durs, 0.50)), len(hook.durs))
	return nil
}

var pimDotSpan = regexp.MustCompile(`pim-dot \(([0-9.]+)(µs|ms|s)`)

// xcheck compares the probe's pim.query_all_ms with what the program
// itself exports: the pim-dot spans of the static engine's obs tracer
// (sample rate 1), read from the rendered traces of a short direct
// pass. It returns probe ÷ obs.
func xcheck(in *inputs, fw *core.Framework, probe time.Duration) (float64, error) {
	o := obs.New(obs.Config{SampleRate: 1, TraceBuffer: honestyQueries})
	eng, err := serve.New(in.x, serve.Options{Shards: shards, Workers: workers, Variant: serve.VariantFNNPIM,
		Framework: fw, CapacityN: in.profile.FullN, Obs: o})
	if err != nil {
		return 0, err
	}
	defer eng.Close()
	for i := 0; i < honestyQueries; i++ {
		if _, err := eng.Search(bgCtx, in.pool.Row(i), topK); err != nil {
			return 0, err
		}
	}
	var spans []time.Duration
	for _, tr := range o.Tracer().Recent(0) {
		for _, m := range pimDotSpan.FindAllStringSubmatch(tr.Render(), -1) {
			v, err := strconv.ParseFloat(m[1], 64)
			if err != nil {
				return 0, err
			}
			unit := map[string]time.Duration{"µs": time.Microsecond, "ms": time.Millisecond, "s": time.Second}[m[2]]
			spans = append(spans, time.Duration(v*float64(unit)))
		}
	}
	if len(spans) == 0 {
		return 0, fmt.Errorf("xcheck: the obs tracer exported no pim-dot span")
	}
	return float64(probe) / float64(quantile(spans, 0.50)), nil
}
