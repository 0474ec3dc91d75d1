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
// family, the CS/PCC searchers, HD-PIM and Approx-PIM — is a Cascade
// (cascade.go): a name, an ordered list of stages — the execution plan of
// §V-D, which FromPlan compiles directly (fromplan.go) — and an
// exact step for the survivors (ED, −CS, −PCC, Hamming, or none where the
// last stage's value is the answer); that one loop owns the spans, the
// per-stage counts, the modeled costs and LastStages. Its walk is columnar
// first bound → seed → index-order scan, four candidates at a time past the
// first stage (Cascade, walk); on an exact-mode array the LB_PIM-FNN and
// LB_PIM-ED stages that lead an ED cascade answer from their payloads'
// digests and compute only the dots the walk reads (lazy.go). Neither
// changes an answer, a count or a meter.
//
// A stage is a bound over an immutable index plus the query-side scratch
// of one walk: host stages over the bound package's indexes (host.go,
// cspcc.go), LB_PIM-FNN over its two payloads (pimknn.go), and every
// single-payload function of Table 4 as a value of one type (table4.go).
// A searcher holds the index and hands each search a walk of its own, so
// every searcher is safe for concurrent use. The constructors only
// assemble stage lists. Standard, SimStandard and HDStandard stay separate
// exact scans because every differential test compares against them.
// EDFilter (edfilter.go) is the LB_PIM-ED row on its own: its Refine is the
// one filter-and-refine pass of the mining tasks outside a kNN search
// (outlier, join, dbscan, motif), and k-means consults an EDQuery's LB
// point by centre.
//
// Every algorithm performs the real computation — results are exact and
// integration tests assert each variant returns the same neighbor set as
// the exact scan — while recording modeled hardware activity into an
// arch.Meter for the timing model.
package knn

import (
	"runtime"
	"sync"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Searcher is a kNN algorithm bound to a dataset. Search must append its
// activity to the meter (which may be shared across queries). It must be
// safe for concurrent use, as every searcher of this package is.
type Searcher interface {
	Name() string
	Search(q []float64, k int, meter *arch.Meter) []vec.Neighbor
}

// AppendSearcher is the allocation-free face of a Searcher: SearchAppend
// appends the k nearest neighbors to dst (in the same ascending
// (Dist, Index) order Search returns) and returns the extended slice.
// A search's scratch is reused by the searches after it, so a warmed-up
// searcher performs zero heap allocations per query when dst has capacity
// for k neighbors — the property the alloc regression tests pin.
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

// maxFree bounds a free list: beyond it, scratch given back is dropped.
var maxFree = runtime.GOMAXPROCS(0)

// freeList holds a searcher's per-search scratch between searches: get
// hands out a free one, or else one from make (the zero W without it), so
// no search waits for another, and put keeps it unless maxFree are kept.
type freeList[W any] struct {
	mu   sync.Mutex
	free []W
	make func() W
}

func (l *freeList[W]) get() (w W) {
	l.mu.Lock()
	if n := len(l.free); n > 0 {
		w, l.free[n-1] = l.free[n-1], w
		l.free = l.free[:n-1]
		l.mu.Unlock()
		return w
	}
	l.mu.Unlock()
	if l.make != nil {
		w = l.make()
	}
	return w
}

func (l *freeList[W]) put(w W) {
	l.mu.Lock()
	if len(l.free) < maxFree {
		l.free = append(l.free, w)
	}
	l.mu.Unlock()
}

// SearcherFunc adapts a function (plus a name) into a Searcher — the
// closure analogue of http.HandlerFunc, used by tests and by callers
// plugging ad-hoc searchers into the serving layer's Factory. Like every
// Searcher it must be safe for concurrent use: fn may run for several
// queries at once.
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
// CPU moves `operands` values (Fig 8: Φ(p) and the dot product(s)) and
// spends a handful of ops. Φ(q) is not charged per object: it is computed
// once per query, in the query's memo, and shared by every shard the
// query visits, while each shard's own dots and combine are charged here.
func costPIMBound(c *arch.Counters, n int64, operands int) {
	c.Ops += n * int64(2*operands+4)
	c.SeqBytes += n * int64(operands) * operandBytes
	c.Branches += n
	c.Calls += n
}
