package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/netserve"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// Phase layout. The end-to-end phase measures with tracing off; the
// traced phase runs one connection so spans nest by time.
const (
	// measureWindows: every timing metric is computed per window and the
	// median across windows is reported, which is what makes two runs on
	// a small shared box agree.
	measureWindows = 10
	// The engine is built at least minSetupBuilds times, and on, up to
	// maxSetupBuilds, while that many builds of the median length fit in a
	// sixteenth of the measured seconds: a millisecond build is sampled 31
	// times, a 300 ms one (which on churn-durable writes a 67 MB snapshot)
	// five. setup_s is the fastest build: what a shared box adds — a slow
	// fsync, a stolen time slice, a busy sibling thread — it only ever adds,
	// and the medians of two batteries an hour apart differed by 47 % where
	// the fastest builds agree within a few percent. mem_mb is the median.
	minSetupBuilds = 5
	maxSetupBuilds = 31
	// parWindows more windows follow on every CPU with the workload's
	// parConns connections (the par_* metrics); all windows are equally long.
	parWindows = 4
	// quiescedQueries are asked over the wire at each churn window
	// boundary and compared with a scan of the model.
	quiescedQueries = 32
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many observations the value summarises (requests for
	// a latency, windows × requests for a median of windows).
	Samples int `json:"samples,omitempty"`
	// Spread is the interquartile range over the median of the windows
	// (or builds) the value summarises; 0 for fewer than four.
	Spread float64 `json:"spread,omitempty"`
	// Windows holds every per-window (or per-build) value, kept or not.
	Windows []float64 `json:"windows,omitempty"`
}

// phaseCount is attempts and failures of one phase; any non-200, typed
// refusal, writer error, transport error or inexact answer is a failure.
type phaseCount struct {
	Phase     string `json:"phase"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	FirstErr  string `json:"first_error,omitempty"`
}

// part is one row of the attribution table.
type part struct {
	Name string  `json:"name"`
	Ms   float64 `json:"ms"`
}

// result is everything one workload reported.
type result struct {
	Workload string `json:"workload"`
	Why      string `json:"why"`
	N        int    `json:"n"`
	D        int    `json:"d"`
	// GOMAXPROCS is what the workload was measured on (workload.procs);
	// the par_* metrics ran ParConns connections on all CPUs of the machine.
	GOMAXPROCS  int              `json:"gomaxprocs"`
	ParConns    int              `json:"par_conns"`
	CPUs        int              `json:"cpus"`
	Phases      []phaseCount     `json:"phases"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
	Attribution []part           `json:"attribution,omitempty"`
	TracedMs    float64          `json:"traced_query_p50_ms,omitempty"`

	spans []span
}

func (pc *phaseCount) add(attempted, failed int, err error) {
	pc.Attempted += attempted
	pc.Failed += failed
	if err != nil && pc.FirstErr == "" {
		pc.FirstErr = err.Error()
	}
}

func (r *result) count(phase string, attempted, failed int, err error) {
	pc := phaseCount{Phase: phase}
	pc.add(attempted, failed, err)
	r.Phases = append(r.Phases, pc)
}

func (r *result) totals() (attempted, failed int) {
	for _, p := range r.Phases {
		attempted += p.Attempted
		failed += p.Failed
	}
	return attempted, failed
}

// e2e reports reduce (median, or the minimum) of the per-window (or
// per-build) values.
func (r *result) e2e(name string, reduce func([]float64) float64, windows []float64, samples int) {
	d, _ := findDef(endToEnd, name)
	r.EndToEnd[name] = value{Value: reduce(windows), Unit: d.Unit, Samples: samples, Spread: spread(windows), Windows: windows}
}

func (r *result) layer(name string, v float64, samples int) {
	d, ok := findDef(perLayer, name)
	if !ok {
		panic("per-layer metric not in schema: " + name)
	}
	r.PerLayer[name] = value{Value: v, Unit: d.Unit, Samples: samples}
}

// unpinned runs untimed work — checks, the modeled pass — on every CPU
// rather than the workload's procs the measured system is given.
func unpinned(f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU()))
	f()
}

// heapMiB is the live heap after a full collection.
func heapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// directPass asks every pool query of the engine in process, checks the
// answers against truth and returns each query's result. rec non-nil
// brackets every call with an engine.search span and follows it with
// the reference.
func directPass(st *stack, res *result, phase string, rec *recorder) []*serve.Result {
	check := exactly(st.in.truth)
	out := make([]*serve.Result, poolSize)
	pc := phaseCount{Phase: phase}
	for i := 0; i < poolSize; i++ {
		t0 := time.Now()
		r, err := st.search(st.in.pool.Row(i))
		if rec != nil {
			rec.add(spanEngine, int64(t0.Sub(rec.epoch)), rec.now(), -1)
			rec.refer(st.in, i)
		}
		if err == nil {
			out[i] = r
			err = check(i, toWire(r.Neighbors))
		}
		pc.add(1, boolToInt(err != nil), err)
	}
	res.Phases = append(res.Phases, pc)
	return out
}

// modeledCritical is one query's critical-path modeled time in µs:
// shards run in parallel, so it is the slowest shard's Eq. 1 total.
func modeledCritical(cfg arch.Config, r *serve.Result) float64 {
	worst := 0.0
	for _, m := range r.ShardMeters {
		if m != nil {
			worst = math.Max(worst, cfg.Time(m.Total()).Total())
		}
	}
	return worst / 1e3
}

// loadFigures collects the per-window load figures of one pass.
type loadFigures struct {
	phase                                 string
	qps, p50, p95, qpsRef, p50Ref, p95Ref []float64
	refs, share                           []float64
	all                                   []time.Duration
	count                                 phaseCount
}

func (f *loadFigures) add(win window) {
	f.count.add(win.attempted, win.failed, win.firstErr)
	lat := win.latencies()
	f.all = append(f.all, lat...)
	f.qps = append(f.qps, win.qps())
	f.p50 = append(f.p50, ms(quantile(lat, 0.50)))
	f.p95 = append(f.p95, ms(quantile(lat, 0.95)))
	// The same three in references: every request over the reference
	// that followed it.
	f.qpsRef = append(f.qpsRef, win.qpsRefs())
	f.p50Ref = append(f.p50Ref, win.latencyRefs(0.50))
	f.p95Ref = append(f.p95Ref, win.latencyRefs(0.95))
	f.refs = append(f.refs, us(win.ref()))
	f.share = append(f.share, win.cpuShare)
}

// report emits the median across the windows of each figure under
// prefix + its name.
func (f *loadFigures) report(res *result, in *inputs, prefix string) {
	f.count.Phase = f.phase
	res.Phases = append(res.Phases, f.count)
	res.e2e(prefix+"qps", median, f.qps, len(f.all)*in.perRequest())
	res.e2e(prefix+"query_p50_ms", median, f.p50, len(f.all))
	res.e2e(prefix+"query_p95_ms", median, f.p95, len(f.all))
	res.e2e(prefix+"qps_refs", median, f.qpsRef, len(f.all)*in.perRequest())
	res.e2e(prefix+"query_p50_refs", median, f.p50Ref, len(f.all))
	res.e2e(prefix+"query_p95_refs", median, f.p95Ref, len(f.all))
}

// endToEndPhase is the untraced measurement a user of pimserve would
// recognise: build, warm up, then measureWindows windows of closed-loop
// load over real loopback HTTP.
func endToEndPhase(in *inputs, cfg config, res *result) error {
	res.EndToEnd = map[string]value{}
	if res.PerLayer == nil {
		res.PerLayer = map[string]value{}
	}

	// Set-up: time and heap growth of constructing router, engine and
	// server, several times over; the last build is the one measured.
	var st *stack
	var setups, mems []float64
	budget := cfg.seconds / 16
	for n := 0; n < minSetupBuilds || (n < maxSetupBuilds && float64(n)*median(setups) < budget); n++ {
		if st != nil {
			if err := st.close(); err != nil {
				return err
			}
			st.remove()
			st = nil
		}
		before := heapMiB()
		t0 := time.Now()
		built, err := build(in, cfg, nil)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		mems = append(mems, heapMiB()-before)
		st = built
	}
	defer st.remove()
	res.e2e("setup_s", slices.Min, setups, len(setups))
	res.e2e("mem_mb", median, mems, len(mems))

	// Modeled time, from a direct-engine pass that doubles as a first
	// warm-up and exactness check of the engine alone.
	modeled := 0.0
	unpinned(func() {
		for _, r := range directPass(st, res, "direct", nil) {
			if r != nil {
				modeled += modeledCritical(st.cfg, r)
			}
		}
	})
	res.e2e("modeled_query_us", median, []float64{modeled / float64(poolSize)}, poolSize)

	if err := st.serve(); err != nil {
		return err
	}
	cs := newConns(max(in.w.parConns(), 1))
	defer closeConns(cs)
	windowDur := time.Duration(cfg.seconds / (measureWindows + parWindows) * float64(time.Second))
	check := exactly(in.truth)
	var m *model
	if in.w.churn {
		check = wellFormed
		m = newModel(in, cfg.seed)
	}
	var wp50 []float64
	var writes []time.Duration
	writer := phaseCount{Phase: "writer"}
	quiesced := phaseCount{Phase: "quiesced-check"}
	// measured is one window of load, the writer beside it on churn-durable
	// and the quiesced check after it.
	measured := func(cs []*conn, dur time.Duration) window {
		var ws writerStats
		var wg sync.WaitGroup
		if m != nil {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws = m.runWriter(st.mutable, time.Now(), dur)
			}()
		}
		win := st.runWindow(cs, dur, check, nil)
		wg.Wait()
		if m != nil {
			writer.add(ws.attempted, ws.failed, ws.firstErr)
			writes = append(writes, ws.latency...)
			wp50 = append(wp50, ms(quantile(ws.latency, 0.50)))
			first := len(wp50) * quiescedQueries
			unpinned(func() { quiesced.add(st.verifyQuiesced(m, cs[0], first, quiescedQueries)) })
		}
		return win
	}

	// One connection on the workload's pinned procs: what a query costs.
	warm := st.runWindow(cs[:1], windowDur, check, nil)
	res.count("warm-up", warm.attempted, warm.failed, warm.firstErr)
	one := loadFigures{phase: "measure"}
	for w := 0; w < measureWindows; w++ {
		one.add(measured(cs[:1], windowDur))
	}
	one.report(res, in, "")
	res.layer("bench.ref_us", median(one.refs), len(one.all))
	res.PerLayer["bench.cpu_share"] = value{Value: median(one.share), Unit: "ratio", Samples: len(one.share), Windows: one.share}
	res.layer("bench.query_p99_ms", ms(quantile(one.all, 0.99)), len(one.all))

	// The workload's parConns connections on every CPU: what its users feel
	// on this machine, the shard fan-out, locks and queues included.
	par := loadFigures{phase: "measure-par"}
	unpinned(func() {
		warm := st.runWindow(cs, windowDur/2, check, nil)
		res.count("warm-up-par", warm.attempted, warm.failed, warm.firstErr)
		for w := 0; w < parWindows; w++ {
			par.add(measured(cs, windowDur))
		}
	})
	par.report(res, in, "par_")

	if err := st.close(); err != nil {
		return fmt.Errorf("close: %w", err)
	}
	if m != nil {
		res.Phases = append(res.Phases, writer, quiesced)
		res.e2e("write_p50_ms", median, wp50, len(writes))
		unpinned(func() {
			_, _, err := st.recoverAndCheck(m)
			res.count("recover", 1, boolToInt(err != nil), err)
		})
	}
	attempted, failed := res.totals()
	res.e2e("fail_ratio", median, []float64{float64(failed) / float64(attempted)}, attempted)
	return nil
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// toWire is the neighbour form the checkers take.
func toWire(nn []vec.Neighbor) []netserve.NeighborWire {
	out := make([]netserve.NeighborWire, len(nn))
	for i, n := range nn {
		out[i] = netserve.NeighborWire{Index: n.Index, Dist: n.Dist}
	}
	return out
}
