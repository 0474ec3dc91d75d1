// Package serve implements the sharded concurrent query engine: the
// serving layer that turns the per-query searchers of internal/knn into
// a multi-tenant kNN service.
//
// The dataset is partitioned row-wise into S shards: by the router's
// placement when Options.Router is set (route.Partition — rows the router
// can prove out of a query stay together), in contiguous ranges otherwise.
// A shard is a view of the caller's rows, never a copy, and answers in the
// global id space, so where a row lives changes no answer. Each shard owns an
// independent searcher — for the PIM variants, an independent PIM array
// sized with Theorem 4 against the shard's slice of the full-scale
// cardinality, mirroring how near-data systems partition a corpus across
// memory modules and merge per-partition top-k results (Lee et al.,
// "Application-Driven Near-Data Processing for Similarity Search"). A
// query fans out to all shards, each shard computes its local top-k under
// its own activity meter, and the per-shard heaps are merged into the
// exact global top-k: every global neighbor is in its shard's local top-k
// under the same (distance, index) total order, so the merge loses
// nothing and sharded results are bit-identical to a sequential scan
// (property-tested in serve_test.go).
//
// Every shard is an internal/delta store — on an engine nobody mutates,
// one with an empty delta and nothing to compact — served through one
// ShardSource (storeSource). A shard searcher is safe for concurrent use —
// an immutable index whose every search runs on scratch of its own — so
// a store runs any number of visits to its shard at once, and a held visit
// holds up no other query's. A shard whose searcher construction fails
// degrades gracefully to the host-side exact scan for that shard —
// results stay exact, the degradation is reported on every Result, and
// the engine keeps serving.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/core"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Variant names the per-shard searcher algorithm.
type Variant string

// The ED searcher variants of internal/knn. PIM variants require
// Options.Framework; each shard then programs its own PIM array.
const (
	VariantStandard    Variant = "standard"
	VariantOST         Variant = "ost"
	VariantSM          Variant = "sm"
	VariantFNN         Variant = "fnn"
	VariantStandardPIM Variant = "standard-pim"
	VariantOSTPIM      Variant = "ost-pim"
	VariantSMPIM       Variant = "sm-pim"
	VariantFNNPIM      Variant = "fnn-pim"
)

// Variants lists every supported variant (host variants first).
func Variants() []Variant {
	return []Variant{
		VariantStandard, VariantOST, VariantSM, VariantFNN,
		VariantStandardPIM, VariantOSTPIM, VariantSMPIM, VariantFNNPIM,
	}
}

// Factory builds the searcher for one shard: called as factory(m,
// shardID) on the shard's first build and again on every compaction.
// Custom factories override Options.Variant (tests use them to force the
// degraded path; callers can plug in searchers the stock variants don't
// cover). The searcher must be safe for concurrent use: the shard's store
// runs every visit on it at once, with no lock around it.
type Factory func(shard *vec.Matrix, shardID int) (knn.Searcher, error)

// Options configures New.
type Options struct {
	// Shards is the partition count S; defaults to GOMAXPROCS, clamped to
	// the dataset cardinality.
	Shards int
	// Variant selects the per-shard searcher (default VariantStandard).
	Variant Variant
	// Framework supplies the hardware model and quantizer for the PIM
	// variants; each shard gets its own array via Framework.NewEngine.
	Framework *core.Framework
	// CapacityN is the full-scale cardinality for Theorem 4 sizing,
	// divided evenly across shards (each shard's integer vectors must fit
	// its own crossbar budget); defaults to the dataset's N.
	CapacityN int
	// Workers bounds SearchBatch: how many of its queries are in flight
	// at once; defaults to GOMAXPROCS.
	Workers int
	// QueryTimeout, when positive, is the per-query deadline applied on
	// top of the caller's context.
	QueryTimeout time.Duration
	// Factory overrides Variant when non-nil.
	Factory Factory
	// Obs, when non-nil, wires the engine into the observability
	// subsystem (internal/obs): query counters, latency histograms,
	// per-shard fan-out counters and meter/fault collectors register with
	// its registry, and sampled queries record an engine → shard →
	// bound-eval → pim-dot → refine span tree. Nil keeps the hot path
	// observation-free.
	Obs *obs.Observer
	// Router, when non-nil, engages the shard-routing tier
	// (internal/route): every query consults the per-shard summaries and
	// is dispatched only to shards that can contribute to its top-k.
	// The router's shard count must agree with the engine's — New rejects
	// a disagreement with route.ErrShardMismatch at construction time;
	// when Shards is zero the engine adopts the router's count. Exact
	// mode keeps results bit-identical to the unrouted engine;
	// approximate mode trades exactness for latency and annotates every
	// Result with Result.Routed. A routed-away shard is never touched at
	// all for that query — not even its breaker's host-scan fallback runs.
	Router *route.Router
	// Resilience, when non-nil, engages the overload-protection layer
	// (internal/resilience): admission control with a bounded wait queue
	// in front of Search/SearchBatch, deadline-aware shedding against
	// the observed p95 service time, per-shard circuit breakers that
	// reroute a fault-storming shard to its exact host scan, and a
	// jittered-backoff retry budget for transient PIM faults. Rejected
	// and shed queries return typed errors (resilience.ErrOverloaded,
	// resilience.ErrShedDeadline); admitted queries always return exact
	// results. When MaxConcurrent is set, Workers is clamped to it so a
	// batch cannot reject its own queries.
	Resilience *resilience.Config
}

// ErrClosed reports an operation on an engine after Close.
var ErrClosed = fmt.Errorf("serve: engine closed")

// Engine is the sharded concurrent query engine. It is safe for
// concurrent use by multiple goroutines: Search/SearchBatch stay
// lock-free against Insert/Update/Delete and background compaction, per
// shard, via delta's epoch snapshots, and mutations serialize on its
// Writer's mutation lock (mutation throughput is not the design target;
// query concurrency is). A static engine is one that nobody mutates:
// compaction, the write-ahead log and standing queries are off until
// MutableOptions sets them or a caller subscribes.
type Engine struct {
	d    int
	opts MutableOptions
	src  *storeSource // the shards: one delta store each

	// pipe is the query path over src; its lease gates writes against
	// Close too, so Close drains everything in flight.
	pipe *Pipeline
	// w is the write path: the id directory, the write-ahead log (when
	// Durability.Dir is set) and the standing queries.
	w *Writer
	// rr is the shard the next insert goes to; the writer's mutation
	// lock guards it.
	rr   int
	walM *wal.Metrics
}

// Close drains in-flight queries and shuts every shard store down
// (draining background compactions), closes the standing-query registry,
// and — on a durable engine — flushes and fsyncs the write-ahead log
// before returning, so every acknowledged mutation is on disk when Close
// hands control back. Subsequent queries return ErrClosed. Idempotent: a
// second (or concurrent) Close neither panics nor deadlocks, it waits for
// the same drain and returns nil; on a durable engine it returns
// ErrClosed, so a caller retrying after a failed flush can tell "already
// shut down" from a fresh flush failure.
func (e *Engine) Close() error {
	if !e.pipe.Close() {
		if e.w.log != nil {
			return ErrClosed
		}
		return nil
	}
	closeStores(e.src.stores)
	// A log flush failure surfaces here (the engine is closed regardless
	// — a second Close reports ErrClosed, never retries the flush).
	return e.w.Close()
}

// defaults fills the zero fields for a dataset of n rows by d dims,
// checks the router against the resulting shape and builds the
// overload-protection handles (nil when Options.Resilience is nil).
func (o *Options) defaults(n, d int) (*engineResilience, error) {
	if o.Shards <= 0 {
		if o.Router != nil {
			o.Shards = o.Router.NumShards()
		} else {
			o.Shards = runtime.GOMAXPROCS(0)
		}
	}
	if o.Shards > n {
		o.Shards = n
	}
	if err := checkRouter(o.Router, o.Shards, d); err != nil {
		return nil, err
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CapacityN <= 0 {
		o.CapacityN = n
	}
	if o.Variant == "" {
		o.Variant = VariantStandard
	}
	if o.Resilience == nil {
		return nil, nil
	}
	res, err := newEngineResilience(o.Resilience)
	if err != nil {
		return nil, err
	}
	// A batch must not reject its own queries: its workers are the
	// batch's admission, so they never outnumber the concurrency cap.
	if mc := o.Resilience.MaxConcurrent; mc > 0 && o.Workers > mc {
		o.Workers = mc
	}
	return res, nil
}

// serve wires the query path over src's built shards: src's own metrics
// when Options.Obs is set, then the pipeline with every stage these
// options configure.
func (o *Options) serve(src *storeSource, dims int, res *engineResilience) *Pipeline {
	src.observe(o.Obs, o.Router, res)
	p := NewPipeline(src, dims, o.Router, o.Workers, o.Obs)
	p.timeout, p.res = o.QueryTimeout, res
	return p
}

// New partitions data row-wise and builds one searcher per shard: it is
// NewMutable with no mutation options, an engine that nobody mutates. A
// shard whose construction fails falls back to the exact host scan and is
// reported by DegradedShards (and on every Result); only configuration
// errors — unknown variant, missing framework, empty data — fail New.
func New(data *vec.Matrix, opts Options) (*Engine, error) {
	return NewMutable(data, MutableOptions{Options: opts})
}

// checkAlive gates a freshly built PIM shard searcher on its array's
// power-on self test: a shard whose array has dead crossbars (fault
// injection, internal/fault) reports an error here, which New turns into
// the graceful host-scan fallback — the caller sees exact results and a
// degraded-shard report, never an error. Shards whose arrays are healthy
// but merely faulty (stuck/drifted cells) keep their PIM searcher: the
// widened bounds already preserve exactness.
func checkAlive(s knn.Searcher, eng *pim.Engine, err error) (knn.Searcher, error) {
	if err != nil {
		return nil, err
	}
	if n := eng.DeadCrossbars(); n > 0 {
		return nil, fmt.Errorf("serve: shard PIM array has %d dead crossbars", n)
	}
	return s, nil
}

// buildFunc builds shard id's searcher over m for one epoch, sized at the
// Theorem 4 cardinality capacityN.
type buildFunc func(m *vec.Matrix, id, capacityN int) (knn.Searcher, error)

// builder returns the constructor every shard epoch is built with:
// Options.Factory, handed the shard id (it sizes its own arrays), or else
// the variant's.
func (o *Options) builder() (buildFunc, error) {
	if f := o.Factory; f != nil {
		return func(m *vec.Matrix, id, _ int) (knn.Searcher, error) { return f(m, id) }, nil
	}
	build, err := variantBuilder(*o)
	if err != nil {
		return nil, err
	}
	return func(m *vec.Matrix, _, capacityN int) (knn.Searcher, error) { return build(m, capacityN) }, nil
}

// variantBuilder maps a Variant to a capacity-parameterized searcher
// constructor. PIM variants build a fresh array per call: a payload is
// programmed once (§V-C), so a shard's first build and each compaction
// program a new one, Theorem 4-sized for the capacityN they are handed.
func variantBuilder(opts Options) (delta.Factory, error) {
	fw := opts.Framework
	var cascade func(eng *pim.Engine, m *vec.Matrix, capacityN int) (*knn.Cascade, error)
	switch opts.Variant {
	case VariantStandard:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewStandard(m), nil
		}, nil
	case VariantOST:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewOST(m, m.D/2)
		}, nil
	case VariantSM:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewSM(m, bound.FNNLevels(m.D)[2])
		}, nil
	case VariantFNN:
		return func(m *vec.Matrix, _ int) (knn.Searcher, error) {
			return knn.NewFNN(m)
		}, nil
	case VariantStandardPIM:
		cascade = func(eng *pim.Engine, m *vec.Matrix, capacityN int) (*knn.Cascade, error) {
			return knn.NewStandardPIM(eng, m, fw.Quant, capacityN)
		}
	case VariantOSTPIM:
		cascade = func(eng *pim.Engine, m *vec.Matrix, capacityN int) (*knn.Cascade, error) {
			return knn.NewOSTPIM(eng, m, fw.Quant, m.D/2, capacityN)
		}
	case VariantSMPIM:
		cascade = func(eng *pim.Engine, m *vec.Matrix, capacityN int) (*knn.Cascade, error) {
			return knn.NewSMPIM(eng, m, fw.Quant, bound.FNNLevels(m.D)[2], capacityN)
		}
	case VariantFNNPIM:
		cascade = func(eng *pim.Engine, m *vec.Matrix, capacityN int) (*knn.Cascade, error) {
			return knn.NewFNNPIM(eng, m, fw.Quant, capacityN)
		}
	default:
		return nil, fmt.Errorf("serve: unknown variant %q", opts.Variant)
	}
	if fw == nil {
		return nil, fmt.Errorf("serve: variant %q needs Options.Framework", opts.Variant)
	}
	return func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
		eng, err := fw.NewEngine()
		if err != nil {
			return nil, err
		}
		s, err := cascade(eng, m, capacityN)
		return checkAlive(s, eng, err)
	}, nil
}

// shardCapacity is the Theorem 4 sizing per shard: each shard answers
// for an even share of the full-scale cardinality on its own array.
func shardCapacity(opts Options) int {
	return (opts.CapacityN + opts.Shards - 1) / opts.Shards
}

// NumShards returns the partition count in effect.
func (e *Engine) NumShards() int { return len(e.src.stores) }

// Dims returns the dataset dimensionality (queries must match it).
func (e *Engine) Dims() int { return e.d }

// Rows returns the live row count across shards: the dataset's
// cardinality until a mutation changes it.
func (e *Engine) Rows() int {
	total := 0
	for _, n := range e.ShardSizes() {
		total += n
	}
	return total
}

// Workers returns the SearchBatch in-flight bound in effect.
func (e *Engine) Workers() int { return e.opts.Workers }

// Router returns the attached shard router (nil when unrouted).
func (e *Engine) Router() *route.Router { return e.opts.Router }

// ShardSizes returns the live row count of every shard.
func (e *Engine) ShardSizes() []int {
	sizes := make([]int, len(e.src.stores))
	for i, st := range e.src.stores {
		sizes[i] = st.Stats().LiveRows
	}
	return sizes
}

// DegradedShards returns the ids of shards whose current epoch serves
// the host fallback (nil when every shard built its configured searcher).
func (e *Engine) DegradedShards() []int { return e.src.Degraded() }

// Meter returns a merged snapshot of the cumulative per-shard activity
// since the engine was built.
func (e *Engine) Meter() *arch.Meter { return e.src.cumulative() }

// Result is one query's answer.
type Result struct {
	// Neighbors is the exact global top-k, ascending by (distance, index).
	Neighbors []vec.Neighbor
	// Meter merges the per-shard activity this query caused.
	Meter *arch.Meter
	// ShardMeters holds each shard's private activity for this query
	// (indexed by shard id). Shards run in parallel, so the query's
	// modeled latency is the maximum over shards — the merged Meter
	// models total work, not the critical path.
	ShardMeters []*arch.Meter
	// Degraded lists shards that served the host fallback for this query.
	Degraded []int
	// BreakerOpen lists shards whose circuit breaker refused the PIM
	// path for this query, so the exact host scan served instead
	// (results are still exact; only throughput modeling degrades).
	BreakerOpen []int
	// Routed annotates how the routing tier handled this query (nil when
	// the engine has no router). Skipped shards have nil ShardMeters
	// entries — they did no work at all.
	Routed *RouteInfo
}

// Search answers one kNN query by fanning out to every shard and merging
// the per-shard top-k heaps into the exact global top-k. It honors ctx
// cancellation and, when Options.QueryTimeout is set, a per-query
// deadline (surfaced as ErrQueryTimeout, which still matches
// context.DeadlineExceeded); a canceled query returns the context's
// cause. With Options.Resilience set, the query first passes admission
// control (resilience.ErrOverloaded when the engine is saturated) and
// deadline-aware shedding (resilience.ErrShedDeadline when the
// remaining deadline is below the observed p95 service time); both
// reject in microseconds, before any shard work is dispatched. Search
// is safe to call concurrently and never blocks on mutations or
// compactions.
//
// With Options.Router set, Search routes in the router's default mode;
// SearchMode overrides it per query.
func (e *Engine) Search(ctx context.Context, q []float64, k int) (*Result, error) {
	return e.pipe.Search(ctx, q, k, route.ModeAuto)
}

// SearchMode is Search with an explicit routing mode: route.ModeExact
// keeps results bit-identical to the unrouted engine while skipping
// shards whose summary lower bound proves them out of the top-k;
// route.ModeApprox visits shards by sketch similarity toward the
// router's recall target; route.ModeAuto takes the router's default.
// An explicit mode on an engine without a router is ErrNoRouter. Through
// churn the delta layer's OnMutate/OnCompact hooks keep the routing
// summaries covering every live row.
func (e *Engine) SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (*Result, error) {
	return e.pipe.Search(ctx, q, k, mode)
}

// BatchResult is the outcome of a batch submission.
type BatchResult struct {
	// Results holds one Result per query row, in query order.
	Results []*Result
	// Meter merges every query's activity.
	Meter *arch.Meter
}

// Neighbors flattens the per-query neighbor lists, for callers that want
// the answers alone.
func (b *BatchResult) Neighbors() [][]vec.Neighbor {
	out := make([][]vec.Neighbor, len(b.Results))
	for i, r := range b.Results {
		if r != nil {
			out[i] = r.Neighbors
		}
	}
	return out
}

// SearchBatch answers a whole query matrix with at most Options.Workers
// queries in flight at once (see Pipeline.SearchBatch).
func (e *Engine) SearchBatch(ctx context.Context, queries *vec.Matrix, k int) (*BatchResult, error) {
	return e.pipe.SearchBatch(ctx, queries, k)
}
