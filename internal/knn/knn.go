// Package knn implements the kNN classification algorithms evaluated in
// §VI-C of the paper and their PIM-optimized counterparts:
//
//	Standard      linear scan with exact ED        (baseline)
//	OST           LB_OST filter + refine           (Liaw et al. 2010)
//	SM            LB_SM filter + refine            (Yi & Faloutsos 2000)
//	FNN           LB_FNN cascade + refine          (Hwang et al. 2012)
//	*-PIM         the same with the bottleneck bound replaced by its
//	              PIM-aware bound computed on the ReRAM array (§V)
//	FNN-PIM-opt   FNN-PIM with §V-D's execution-plan optimization
//
// plus Hamming-distance scans over binary codes (Fig 14) and CS/PCC
// maximum-similarity scans (Fig 13d).
//
// Every filter-and-refine search is one loop. Each variant above — the ED
// family, the CS/PCC searchers, HD-PIM, Approx-PIM, Dynamic-PIM — is a
// Cascade (cascade.go): a name, an ordered list of stages — the execution
// plan of §V-D, which FromPlan compiles directly (fromplan.go) — and an
// exact step for the survivors (ED, −CS, −PCC, Hamming, or none where the
// last stage's value is the answer); that one loop owns the spans, the
// per-stage counts, the modeled costs and LastStages.
//
// The walk is columnar first bound → seed → index-order scan. The first
// stage's bound of every object is written into one column (the array
// hands all of them back before the host has looked at one object); the k
// objects with the smallest bound are visited first, so the threshold
// starts at the k-th distance among the most promising objects rather than
// at +Inf; the rest are scanned in index order and pruned on the column.
// An object that survives takes the later stages lazily, then the exact
// step. The order cannot change the answer: TopK is a total (dist, index)
// order and every prune is strict against a threshold that never rises,
// so whatever is pruned lies strictly outside the final k in any order,
// ties included. It changes only how few objects get past the first stage.
//
// On an exact-mode array the LB_PIM-FNN and LB_PIM-ED stages that lead an
// ED cascade do not compute the dot products the walk will never read
// (lazyStage, cascade.go). prepare fills the dot arrays with the payload
// digest's upper bounds (pim.Engine.UpperAll: 1/32 of the bytes), so the
// column holds under-estimates LB′ ≤ LB; the walk tightens — exact dots
// of the listed rows, gathered four at a time (pim.Engine.DotRows), then
// the exact bound — the k smallest LB′, then every row at or below the
// largest exact bound among them, which makes the k smallest (LB, index)
// exact and the seeds the ones it would have picked; visits the seeds;
// tightens every row still loose at or below the threshold they leave;
// and scans. A loose
// entry has LB ≥ LB′ > τ and τ only falls, so it is pruned exactly where
// its exact bound would have been: no decision differs, to the row, and no
// meter differs either — the query is charged the array pass the model
// still runs. When a tighten pass would list more than a quarter of the
// rows (a weakly correlated dataset, k near n) the stage sweeps once and
// the walk proceeds on the exact column. Simulate mode, faulty arrays,
// binary payloads, the CS/PCC and Approx-PIM rows and a PIM stage that is
// not first have no lazy stage and sweep as before.
//
// A stage is a bound with query-side scratch: host stages over the bound
// package's indexes (host.go, cspcc.go), LB_PIM-FNN over its two payloads
// (pimknn.go), and every single-payload function of Table 4 as a value of
// one type (table4.go). The constructors only assemble stage lists.
// Standard, SimStandard and HDStandard stay separate exact scans because
// every differential test compares against them. EDFilter (edfilter.go)
// is the LB_PIM-ED row on its own, shared with the mining tasks that
// filter with it outside a kNN search (outlier, join, dbscan, motif,
// k-means).
//
// Every algorithm performs the real computation — results are exact and
// integration tests assert each variant returns the same neighbor set as
// the exact scan — while recording modeled hardware activity into an
// arch.Meter for the timing model.
package knn

import (
	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Searcher is a kNN algorithm bound to a dataset. Search must append its
// activity to the meter (which may be shared across queries).
type Searcher interface {
	Name() string
	Search(q []float64, k int, meter *arch.Meter) []vec.Neighbor
}

// AppendSearcher is the allocation-free face of a Searcher: SearchAppend
// appends the k nearest neighbors to dst (in the same ascending
// (Dist, Index) order Search returns) and returns the extended slice.
// Searchers reuse internal scratch buffers across calls, so a warmed-up
// searcher performs zero heap allocations per query when dst has capacity
// for k neighbors — the property the alloc regression tests pin. The
// scratch makes SearchAppend non-reentrant: one searcher serves one
// goroutine, exactly as Search always has (SearchBatch builds one per
// worker).
//
// Standard and every Cascade implement AppendSearcher, and their Search is
// defined as SearchAppend(q, k, meter, nil), so both entry points return
// identical neighbors and record identical meter activity (HDPIM has the
// same pair over packed codes). The exact similarity and Hamming scans
// implement Searcher only.
type AppendSearcher interface {
	Searcher
	SearchAppend(q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor
}

// reuseTopK returns t reset for k neighbors, allocating only on first use
// (or when k outgrows the retained heap) — the per-query collector reset
// of every SearchAppend implementation.
func reuseTopK(t *vec.TopK, k int) *vec.TopK {
	if t == nil {
		return vec.NewTopK(k)
	}
	t.Reset(k)
	return t
}

// SearcherFunc adapts a function (plus a name) into a Searcher — the
// closure analogue of http.HandlerFunc, used by tests and by callers
// plugging ad-hoc searchers into the serving layer's Factory.
func SearcherFunc(name string, fn func(q []float64, k int, meter *arch.Meter) []vec.Neighbor) Searcher {
	return funcSearcher{name: name, fn: fn}
}

type funcSearcher struct {
	name string
	fn   func(q []float64, k int, meter *arch.Meter) []vec.Neighbor
}

func (s funcSearcher) Name() string { return s.name }
func (s funcSearcher) Search(q []float64, k int, m *arch.Meter) []vec.Neighbor {
	return s.fn(q, k, m)
}

// StageStat reports one filtering stage of a query: how many candidates
// entered, how many survived, and the per-object data-transfer cost in
// operands — the inputs to Fig 15 and the §V-D plan optimizer.
type StageStat struct {
	Name         string
	In, Out      int
	TransferDims int
}

// PruneRatio returns the fraction of entering candidates the stage pruned.
func (s StageStat) PruneRatio() float64 {
	if s.In == 0 {
		return 0
	}
	return 1 - float64(s.Out)/float64(s.In)
}

// Stager is implemented by filter-and-refine searchers that expose their
// last query's per-stage statistics.
type Stager interface {
	LastStages() []StageStat
}

// Preprocessor is implemented by searchers whose construction does
// offline work with a modeled hardware cost — for the PIM variants,
// programming the quantized payloads onto crossbars. Callers that
// rebuild searchers at runtime (the delta compactor) use it to charge
// re-programming to the meter.
type Preprocessor interface {
	RecordPreprocessing(meter *arch.Meter)
}

// operandBytes is the modeled width of one data operand (32 bits,
// matching arch.Config's default; meters deliberately count bytes so they
// are independent of the configuration object).
const operandBytes = 4

// costBoundScan records the host cost of evaluating a precomputed bound
// against n objects in a sequential scan, with tdims operands transferred
// and ~3 ops consumed per operand, plus a compare/branch per object.
func costBoundScan(c *arch.Counters, n int64, tdims int) {
	c.Ops += n * int64(3*tdims+2)
	c.SeqBytes += n * int64(tdims) * operandBytes
	c.Branches += n
	c.Calls += n
}

// costExactRefine records the host cost of exact d-dimensional ED on n
// surviving candidates. Survivors are visited in ascending index order
// (the scan order), so their traffic still prefetches like a sparse
// sequential stream and is charged at the sequential rate.
func costExactRefine(c *arch.Counters, n int64, d int) {
	c.Ops += n * int64(3*d)
	c.SeqBytes += n * int64(d) * operandBytes
	c.Branches += n
	c.Calls += n
}

// costPIMBound records the host-side cost of combining PIM results with
// the precomputed Φ values (function G of Eq. 3): per consulted object the
// CPU moves `operands` values (Fig 8: Φ(p) and the dot product(s); Φ(q) is
// computed once and cached) and spends a handful of ops.
func costPIMBound(c *arch.Counters, n int64, operands int) {
	c.Ops += n * int64(2*operands+4)
	c.SeqBytes += n * int64(operands) * operandBytes
	c.Branches += n
	c.Calls += n
}
