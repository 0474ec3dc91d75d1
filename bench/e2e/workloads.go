package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/cluster"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/knn"
	"pimmine/internal/netserve"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Shape pinned for every workload so the numbers do not follow the
// machine: 4 shards, 4 engine workers (which is also netserve's fair-queue
// width), k = 10, a pool of 256 queries.
const (
	shards  = 4
	workers = 4
	topK    = 10
	// writeRate is churn-durable's open-loop schedule, writes per second.
	writeRate = 200
	// compactionsPerShard sizes MaxDelta: this many delta fills per shard
	// in one measured phase — one per shard per measured window, so the
	// windows see the same background work.
	compactionsPerShard = measureWindows + parWindows
)

// poolSize is the number of generated queries every pass draws from. It
// is a variable only so that the smoke test can shrink it along with N.
var poolSize = 256

// workload is one named traffic mix; see README.md for why each exists.
type workload struct {
	name    string
	profile string
	n       int
	// batch is the queries per request: 0 posts single /v1/search bodies,
	// >0 posts /v1/search/batch NDJSON requests of that many queries.
	batch int
	// pimMode is how the workload's searchers evaluate dot products;
	// usesPIM is false for the host-only variant, whose PIM probe is
	// off-path (see README).
	pimMode pim.Mode
	usesPIM bool
	// churn runs the open-loop writer beside the reader, on a
	// MutableEngine.
	churn bool
	// procs is GOMAXPROCS while the workload is measured: 1, so that a
	// request's shard visits run one after another and the number is the
	// CPU cost of a query, not the box's luck with a second core — except
	// beside the writer, which needs a P of its own. On a single P a write
	// blocked in fsync keeps the P until sysmon takes it back, later than
	// any fsync this side of 10 ms lasts, so every read would wait out three
	// fsyncs and its latency would be the disk's (ten seeds spread 27–32 %
	// on one P, 2–3 % on two).
	procs int
}

// parConns is the connections of the pass on every CPU (par_* metrics):
// min(CPUs, 4) closed loops, but churn-durable keeps its one reader beside
// the writer.
func (w workload) parConns() int {
	if w.churn {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

// wrappable reports whether the workload's engine takes a searcher
// Factory, so the traced pass can time every shard visit; MutableEngine
// ignores Factory.
func (w workload) wrappable() bool { return !w.churn }

var workloads = map[string]workload{
	wireKNN:      {name: wireKNN, profile: "MSD", n: 20000, pimMode: pim.ModeExact, usesPIM: true, procs: 1},
	wireLight:    {name: wireLight, profile: "Trevi", n: 64, pimMode: pim.ModeExact, procs: 1},
	clusterXbar:  {name: clusterXbar, profile: "MSD", n: 64, batch: 8, pimMode: pim.ModeSimulate, usesPIM: true, procs: 1},
	churnDurable: {name: churnDurable, profile: "MSD", n: 20000, pimMode: pim.ModeExact, usesPIM: true, churn: true, procs: 2},
}

// config is one invocation's knobs.
type config struct {
	seed    int64
	seconds float64
	// scale divides every workload's N. Only the tests set it (to 20);
	// the command always runs at 1, so a workload's name fixes its size.
	scale int
	// tmp is where WAL directories are created.
	tmp string
}

// inputs is everything generated from the seed: the program under test
// only ever sees these.
type inputs struct {
	w       workload
	profile dataset.Profile
	ds      *dataset.Dataset
	x       *vec.Matrix
	pool    *vec.Matrix
	// truth[i] is the brute-force answer to pool query i over x.
	truth [][]vec.Neighbor
	// bodies[i] is the pre-encoded request carrying pool query i (for a
	// batch workload: queries i..i+batch-1, wrapping).
	bodies [][]byte
	// writeVecs feeds churn-durable's inserts and updates.
	writeVecs *vec.Matrix
	genS      float64
}

func generate(w workload, cfg config) (*inputs, error) {
	p, err := dataset.ByName(w.profile)
	if err != nil {
		return nil, err
	}
	n := w.n / cfg.scale
	if n < 64 {
		n = 64
	}
	start := time.Now()
	ds := dataset.Generate(p, n, cfg.seed)
	in := &inputs{w: w, profile: p, ds: ds, x: ds.X, pool: ds.Queries(poolSize, cfg.seed)}
	if w.churn {
		in.writeVecs = ds.Queries(1024, cfg.seed+1)
	}
	in.genS = time.Since(start).Seconds()
	in.truth = bruteForce(in.x, in.pool, topK)
	in.bodies = make([][]byte, poolSize)
	for i := range in.bodies {
		if in.bodies[i], err = encodeBody(in, i); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// bruteForce answers every query with the exact host scan, one goroutine
// per CPU (each with its own searcher: searchers are not reentrant).
func bruteForce(x, queries *vec.Matrix, k int) [][]vec.Neighbor {
	out := make([][]vec.Neighbor, queries.N)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := knn.NewStandard(x)
			m := arch.NewMeter()
			for i := int(next.Add(1)) - 1; i < queries.N; i = int(next.Add(1)) - 1 {
				out[i] = s.Search(queries.Row(i), k, m)
			}
		}()
	}
	wg.Wait()
	return out
}

// shardRows returns shard id's slice under the even row-wise partition
// every engine uses.
func shardRows(x *vec.Matrix, id int) *vec.Matrix {
	base, rem := x.N/shards, x.N%shards
	lo := id*base + min(id, rem)
	rows := base
	if id < rem {
		rows++
	}
	return x.Slice(lo, lo+rows)
}

// stack is one built system under test: engine, netserve front-end and,
// once serve() is called, a loopback HTTP listener.
type stack struct {
	in  *inputs
	cfg arch.Config
	srv *netserve.Server
	// search is the engine's public query entry point.
	search func(q []float64) (*serve.Result, error)
	// handler is what the listener serves: the netserve server, behind
	// the span middleware on a traced stack.
	handler http.Handler
	mutable *serve.MutableEngine
	mopts   serve.MutableOptions
	dir     string
	fsync   *fsyncHook

	hs  *http.Server
	url string
	// served closes when the listener goroutine returns.
	served chan struct{}
}

// fsyncHook counts and times the WAL's sync calls through the public
// Durability.Fsync hook (traced stacks only).
type fsyncHook struct {
	mu    sync.Mutex
	calls int
	durs  []time.Duration
}

func (h *fsyncHook) sync(f *os.File) error {
	t0 := time.Now()
	err := f.Sync()
	d := time.Since(t0)
	h.mu.Lock()
	h.calls++
	h.durs = append(h.durs, d)
	h.mu.Unlock()
	return err
}

// framework returns the workload's hardware model and quantizer.
func framework(w workload) (*core.Framework, error) {
	return core.New(arch.Default(), quant.DefaultAlpha, w.pimMode)
}

// shardCapacity mirrors serve's Theorem 4 sizing: an even share of the
// full-scale cardinality per shard.
func shardCapacity(fullN int) int { return (fullN + shards - 1) / shards }

// searcherFor builds shard rows' searcher exactly as the workload's
// engine does from its Variant (or cluster Factory): the traced pass
// wraps it, the knn probe times it.
func searcherFor(w workload, fw *core.Framework, rows *vec.Matrix, capacityN int) (knn.Searcher, error) {
	if !w.usesPIM {
		return knn.NewFNN(rows)
	}
	eng, err := fw.NewEngine()
	if err != nil {
		return nil, err
	}
	return knn.NewFNNPIM(eng, rows, fw.Quant, capacityN)
}

// build constructs the workload's engine and server. rec non-nil builds
// the traced twin: the same searchers behind timing wrappers and the
// server behind the span middleware.
func build(in *inputs, cfg config, rec *recorder) (*stack, error) {
	w := in.w
	fw, err := framework(w)
	if err != nil {
		return nil, err
	}
	st := &stack{in: in, cfg: fw.Cfg}
	var nopts netserve.Options
	switch w.name {
	case wireKNN:
		router, err := route.NewEven(route.Config{}, in.x, shards)
		if err != nil {
			return nil, err
		}
		rc := resilience.Default(workers)
		opts := serve.Options{Shards: shards, Workers: workers, Variant: serve.VariantFNNPIM,
			Framework: fw, CapacityN: in.profile.FullN, Router: router, Resilience: &rc}
		if rec != nil {
			capN := shardCapacity(in.profile.FullN)
			opts.Factory = func(m *vec.Matrix, id int) (knn.Searcher, error) {
				return rec.wrapped(id)(searcherFor(w, fw, m, capN))
			}
		}
		eng, err := serve.New(in.x, opts)
		if err != nil {
			return nil, err
		}
		st.search = func(q []float64) (*serve.Result, error) { return eng.Search(bgCtx, q, topK) }
		nopts.Engine = eng
	case wireLight:
		opts := serve.Options{Shards: shards, Workers: workers, Variant: serve.VariantFNN}
		if rec != nil {
			opts.Factory = func(m *vec.Matrix, id int) (knn.Searcher, error) {
				return rec.wrapped(id)(searcherFor(w, fw, m, 0))
			}
		}
		eng, err := serve.New(in.x, opts)
		if err != nil {
			return nil, err
		}
		st.search = func(q []float64) (*serve.Result, error) { return eng.Search(bgCtx, q, topK) }
		nopts.Engine = eng
	case clusterXbar:
		// Every replica of a shard is built by this factory, so a traced
		// visit is labelled with the visit's order, not a shard id.
		factory := func(base *vec.Matrix, capacityN int) (knn.Searcher, error) {
			return rec.wrapped(-1)(searcherFor(w, fw, base, capacityN))
		}
		eng, err := cluster.New(in.x, cluster.Options{Nodes: 3, Replicas: 2, Shards: shards,
			Workers: workers, Factory: factory})
		if err != nil {
			return nil, err
		}
		st.search = func(q []float64) (*serve.Result, error) {
			return eng.SearchMode(bgCtx, q, topK, route.ModeAuto)
		}
		nopts.Cluster = eng
	case churnDurable:
		dir, err := os.MkdirTemp(cfg.tmp, "e2e-wal-")
		if err != nil {
			return nil, err
		}
		st.dir = dir
		st.mopts = serve.MutableOptions{
			Options: serve.Options{Shards: shards, Workers: workers, Variant: serve.VariantFNNPIM,
				Framework: fw, CapacityN: in.profile.FullN},
			MaxDelta:    maxDelta(cfg.seconds),
			AutoCompact: true,
			Durability:  serve.Durability{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncAlways},
		}
		if rec != nil {
			st.fsync = &fsyncHook{}
			st.mopts.Durability.Fsync = st.fsync.sync
		}
		eng, err := serve.NewMutable(in.x, st.mopts)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		st.mutable = eng
		st.search = func(q []float64) (*serve.Result, error) { return eng.Search(bgCtx, q, topK) }
		nopts.Mutable = eng
	default:
		return nil, fmt.Errorf("unknown workload %q", w.name)
	}
	if st.srv, err = netserve.New(nopts); err != nil {
		return nil, err
	}
	st.handler = st.srv
	if rec != nil {
		st.handler = rec.middleware(st.srv)
	}
	return st, nil
}

// maxDelta sizes churn-durable's per-shard compaction trigger so one
// measured phase of the given length fills each shard's delta
// compactionsPerShard times: inserts and updates (75 % of writes) each
// add a delta row, spread round-robin over the shards.
func maxDelta(seconds float64) int {
	rows := writeRate * seconds * 0.75 / shards
	if md := int(rows / compactionsPerShard); md > 8 {
		return md
	}
	return 8
}

// close drains the server (which closes the engine, flushing the WAL)
// and stops the listener if one is up. The WAL directory is left for
// the recovery check; remove() deletes it.
func (st *stack) close() error {
	var err error
	if st.hs != nil {
		err = st.hs.Close()
		<-st.served
		st.hs = nil
	}
	if derr := st.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

func (st *stack) remove() {
	if st.dir != "" {
		os.RemoveAll(st.dir)
	}
}
