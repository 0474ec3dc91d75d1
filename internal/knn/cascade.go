package knn

import (
	"context"
	"fmt"
	"slices"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/measure"
	"pimmine/internal/obs"
	"pimmine/internal/vec"
)

// stage is one bound of an execution plan (§V-D): query-side features are
// computed once per query by prepare, after which lb(i) is at most the
// cascade's exact value for every object — a lower bound on ED, or the
// negated upper bound of a similarity (the cascade ranks negated
// similarities, so smaller is always better and one strict prune serves
// every measure). The host stages wrap the bound package's indexes
// (host.go, cspcc.go), the PIM stages the pimbound ones plus their
// programmed payloads (pimknn.go, table4.go); the cascade treats them
// alike.
type stage interface {
	// name is the stage's meter bucket and StageStat name.
	name() string
	// operands is what one consultation moves from memory to the CPU, in
	// operands (StageStat.TransferDims, the Tcost input of Eq. 13).
	operands() int
	// segs is the bound's granularity: the dimensions it compares.
	segs() int
	// pimDots is the number of dot products one query runs on the array; 0
	// marks a bound evaluated on the host.
	pimDots() int
	// prepare computes the query's features into the stage's scratch. For
	// a PIM stage that includes the array pass, metered under name().
	prepare(q []float64, meter *arch.Meter) error
	lb(i int) float64
	// lbInto is the bound as a column: dst[i] = lb(i), to the bit, for the
	// first len(dst) objects. It is how the walk consults its first stage
	// — once per query — so the PIM stages write it as one call-free loop
	// over their Φ and dot arrays.
	lbInto(dst []float64)
	// cost is the stage's meter rule: the host cost of n consultations.
	cost(c *arch.Counters, n int64)
}

// exactStep is what a cascade does with an object no stage pruned: the
// measure's exact value against the query in flight, and the meter rule
// of computing it n times. The zero fn marks a cascade without one — its
// last stage's value is the answer (HD from a healthy array, the
// approximate ED of Approx-PIM), and nothing is charged or reported as a
// refinement.
type exactStep struct {
	fn   string // meter bucket and StageStat name
	dims int    // operands one evaluation moves (StageStat.TransferDims)
	dist func(i int) float64
	cost func(c *arch.Counters, n int64)
}

// Cascade is the paper's filter-and-refine loop (§III-B, Fig 12a) over an
// ordered list of bounds: an object reaches stage j+1 only if stage j
// failed to prune it, and the survivors of all stages take the exact step.
// OST, SM and FNN are cascades of host bounds refined with exact ED; the
// *-PIM searchers replace the bottleneck (coarsest) bound by its PIM-aware
// form, which is placed first because the array evaluates it for all
// objects in one batch; the CS/PCC, HD, Approx-PIM and Dynamic-PIM
// searchers are the same walk with another exact step (or none).
//
// The walk does not consume that batch one object at a time against a
// threshold that starts at +Inf: Fig 12a's loop spends its first k objects,
// and k·ln(n/k) more, just finding a threshold. See walk for its passes.
//
// A prune is strict (lb > threshold): an object whose bound ties the
// current k-th distance may still tie it exactly and win on the smaller
// index. With TopK a total (dist, index) order and a threshold that never
// rises, an object pruned in any visiting order lies strictly outside the
// final k, so the answer does not depend on the order — it equals the exact
// scan's, ties included. What the order does change is how many objects
// get past each stage, which is what the per-stage counts report.
type Cascade struct {
	name     string
	spanName string
	n        int // objects walked
	stages   []stage
	exact    exactStep
	q        []float64 // the query in flight, for the exact step

	// lazy is the walk's state over a first stage that answers from a
	// digest (lazy.go), resolved at construction; nil walks the column as
	// the stage's sweep left it.
	lazy *lazyWalk

	// Retained per-query scratch: a warmed-up search allocates nothing.
	column    []float64      // the first stage's bound of every object
	top       *vec.TopK      // the answer
	seeds     *vec.TopK      // the k smallest of column
	seedBuf   []vec.Neighbor // seeds in visiting order, then by index
	passed    []int          // per stage, the candidates it failed to prune
	stats     []StageStat
	timed     bool // the walk in flight is traced: time the exact step
	refineDur time.Duration
}

// newWalk builds a cascade over n objects without an exact step; the
// constructors of the measures that have one add it.
func newWalk(name string, n int, stages ...stage) *Cascade {
	c := &Cascade{
		name: name, spanName: "knn." + name, n: n, stages: stages,
		passed: make([]int, len(stages)),
		stats:  make([]StageStat, 0, len(stages)+1),
	}
	if len(stages) > 0 {
		c.column = make([]float64, n)
	}
	return c
}

// newCascade builds a cascade refined with exact ED over data. It is where
// a first stage turns lazy: the LB_PIM-FNN and LB_PIM-ED stages of the ED
// cascades implement lazyStage. The other rows of Table 4 stay eager —
// Approx-PIM's and a healthy HD's column is the answer itself and approxRow
// would inherit a tighten that writes LB_PIM-ED over its own G; HD's binary
// payload has no digest; UB_PIM-CS/PCC could take the same upper bound and
// do not yet (ROADMAP item 2) — and so does a PIM stage behind another one,
// which the walk consults row by row.
func newCascade(data *vec.Matrix, name string, stages ...stage) *Cascade {
	c := newWalk(name, data.N, stages...)
	if len(stages) > 0 {
		c.lazy = newLazyWalk(stages[0], c.n)
	}
	c.exact = exactStep{
		fn: arch.FuncED, dims: data.D,
		dist: func(i int) float64 { return measure.SqEuclidean(data.Row(i), c.q) },
		cost: func(ctr *arch.Counters, n int64) { costExactRefine(ctr, n, data.D) },
	}
	return c
}

// Name implements Searcher.
func (c *Cascade) Name() string { return c.name }

// LastStages implements Stager.
func (c *Cascade) LastStages() []StageStat { return c.stats }

// S returns the granularity of the PIM stage — Theorem 4's compressed
// dimensionality — or 0 for a host-only cascade.
func (c *Cascade) S() int {
	if len(c.stages) == 0 || c.stages[0].pimDots() == 0 {
		return 0
	}
	return c.stages[0].segs()
}

// Granularities returns each stage's granularity in plan order.
func (c *Cascade) Granularities() []int {
	out := make([]int, len(c.stages))
	for i, st := range c.stages {
		out[i] = st.segs()
	}
	return out
}

// RecordPreprocessing implements Preprocessor: it charges the offline
// programming of every PIM stage's payloads, and nothing for host stages.
func (c *Cascade) RecordPreprocessing(meter *arch.Meter) {
	for _, st := range c.stages {
		if p, ok := st.(Preprocessor); ok {
			p.RecordPreprocessing(meter)
		}
	}
}

// Search implements Searcher.
func (c *Cascade) Search(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	return c.searchAppend(context.Background(), q, k, meter, nil)
}

// SearchAppend implements AppendSearcher.
func (c *Cascade) SearchAppend(q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	return c.searchAppend(context.Background(), q, k, meter, dst)
}

// SearchCtx implements ContextSearcher: Search with per-phase spans
// (pim-dot per PIM stage, bound-eval with the seed event and one event per
// stage, refine) emitted into the context's trace.
func (c *Cascade) SearchCtx(ctx context.Context, q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	return c.searchAppend(ctx, q, k, meter, nil)
}

func (c *Cascade) searchAppend(ctx context.Context, q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	_, sp := obs.StartSpan(ctx, c.spanName)
	defer sp.End()
	c.q = q
	for si, st := range c.stages {
		var pd *obs.Span
		if st.pimDots() > 0 {
			pd = sp.StartChild("pim-dot")
		}
		if err := st.prepare(q, meter); err != nil {
			panic(fmt.Sprintf("knn: %s: %s query: %v", c.name, st.name(), err)) // shape mismatch is a caller bug
		}
		if pd != nil {
			pd.SetAttr("func", st.name())
			pd.SetAttr("dots", st.pimDots())
			pd.SetAttr("lazy", si == 0 && c.lazy != nil && c.lazy.isLoose())
			pd.End()
		}
	}

	dst = c.walk(sp, k, meter, dst)
	c.q = nil // do not keep the caller's buffer (a row of a batch arena) alive
	return dst
}

// walk is the filter-and-refine loop over prepared stages, in three passes
// over the column: (1) the first stage's bound of every object, one lbInto
// call; (2) seed — the k objects with the smallest (bound, index) are
// visited first, in that order, so the threshold is the k-th distance among
// the most promising objects before anything is tested against it; (3)
// scan — the rest in index order, pruned on the column. A cascade without
// stages is a plain scan. walk is apart from searchAppend so that a
// searcher whose query is not a []float64 (HD's packed code) prepares its
// stage itself and runs the same loop. A nil span is the untraced walk.
func (c *Cascade) walk(sp *obs.Span, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	c.timed, c.refineDur = sp != nil, 0
	be := sp.StartChild("bound-eval")
	c.top = reuseTopK(c.top, k)
	clear(c.passed)
	if len(c.stages) == 0 {
		for i := 0; i < c.n; i++ {
			c.refine(i, 0)
		}
	} else {
		c.seedAndScan(be, k)
	}

	c.stats = c.stats[:0]
	survivors := c.n // of the stages so far
	for si, st := range c.stages {
		st.cost(meter.C(st.name()), int64(survivors))
		c.stats = append(c.stats, StageStat{Name: st.name(), In: survivors, Out: c.passed[si], TransferDims: st.operands()})
		survivors = c.passed[si]
	}
	exact := c.exact
	if exact.fn != "" {
		exact.cost(meter.C(exact.fn), int64(survivors))
		c.stats = append(c.stats, StageStat{Name: exact.fn, In: survivors, Out: k, TransferDims: exact.dims})
	}
	other := meter.C(arch.FuncOther)
	other.Ops += int64(c.n) // heap maintenance
	if len(c.stages) > 0 {
		other.Ops += int64(c.n) // selecting the seeds
	}
	if c.timed {
		for _, st := range c.stats[:len(c.stages)] {
			be.Annotate(st.Name, stageAttrs(st)...)
		}
		if exact.fn != "" {
			be.AddChild("refine", c.refineDur, obs.A("in", survivors), obs.A("out", k), obs.A("transfer_dims", exact.dims))
		}
		be.End()
	}
	return c.top.AppendResults(dst)
}

// seedAndScan is the three passes of walk; be receives the seed event of a
// traced walk: how many objects seeded the threshold, where that left it,
// what the column cost, and how a lazy first stage ended and what its
// tighten passes cost.
//
// Over a loose column — under-estimates LB′ ≤ LB from the digest — it makes
// the decisions it makes over the exact one, to the row. (1) The k smallest
// LB′ are tightened; θ, the largest exact bound among them, has k exact
// bounds at or below it, so every one of the k smallest (LB, index) has
// LB′ ≤ LB ≤ θ: tightening the rest of the rows with LB′ ≤ θ makes them
// all exact, every entry still loose exceeds θ, and the selection picks the
// seeds it would pick from the exact column. (2) The seeds leave τ; every
// row still loose with LB′ ≤ τ is tightened. (3) A loose entry now has
// LB ≥ LB′ > τ, and τ only falls: `col[i] > tau` prunes it as it would have
// pruned its exact bound. A pass that would list more than n/tightenShare
// rows is replaced by the stage's sweep and the exact column.
func (c *Cascade) seedAndScan(be *obs.Span, k int) {
	c.column = vec.Resized(c.column, c.n) // the index may have grown (DynamicPIM.Add)
	col := c.column
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.stages[0].lbInto(col)
	lazy := c.lazy
	if lazy != nil && lazy.begin(c.n, c.timed) && (k > c.n/tightenShare || !c.tightenSeeds(col, k)) {
		lazy.sweepColumn(col, exitTheta)
	}
	var columnDur time.Duration
	if c.timed {
		columnDur = time.Since(t0)
	}

	c.selectSeeds(col, k)
	for _, s := range c.seedBuf {
		c.visit(s.Index, s.Dist)
	}
	tau := c.top.Threshold()
	if lazy != nil && lazy.exit == exitLazy && !lazy.tightenBelow(col, tau) {
		lazy.sweepColumn(col, exitTau)
	}
	if c.timed {
		exit, loose, tightened, tightenDur := exitEager, 0, 0, time.Duration(0)
		if lazy != nil {
			exit, loose, tightened, tightenDur = lazy.exit, lazy.nLoose, lazy.nTight, lazy.tightenDur
		}
		be.Annotate("seed", obs.A("k", len(c.seedBuf)), obs.A("tau", tau),
			obs.A("column_us", micros(columnDur)), obs.A("loose", loose), obs.A("tightened", tightened),
			obs.A("tighten_us", micros(tightenDur)), obs.A("exit", exit))
	}

	slices.SortFunc(c.seedBuf, func(a, b vec.Neighbor) int { return a.Index - b.Index })
	for i, b := range col {
		if b > tau {
			continue
		}
		if _, seeded := slices.BinarySearchFunc(c.seedBuf, i, func(s vec.Neighbor, i int) int { return s.Index - i }); seeded {
			continue
		}
		c.visit(i, b)
		tau = c.top.Threshold()
	}
}

// selectSeeds leaves in seedBuf the k smallest (bound, index) of col, in
// that order.
func (c *Cascade) selectSeeds(col []float64, k int) {
	// Rows arrive in index order, so one that ties the k-th smallest bound
	// so far ranks after it: only a strictly smaller bound gets in.
	c.seeds = reuseTopK(c.seeds, k)
	thr := c.seeds.Threshold()
	for i, b := range col {
		if b < thr {
			c.seeds.Push(i, b)
			thr = c.seeds.Threshold()
		}
	}
	c.seedBuf = c.seeds.AppendResults(c.seedBuf[:0])
}

// visit takes object i, whose first-stage bound b did not prune it, through
// the remaining stages and on to refine.
func (c *Cascade) visit(i int, b float64) {
	c.passed[0]++
	for si, st := range c.stages[1:] {
		if b = st.lb(i); b > c.top.Threshold() {
			return
		}
		c.passed[si+1]++
	}
	c.refine(i, b)
}

// refine offers object i to the answer at its exact value, or, in a cascade
// without an exact step, at b, the last bound computed for it.
func (c *Cascade) refine(i int, b float64) {
	if c.exact.dist != nil {
		if c.timed {
			t0 := time.Now()
			b = c.exact.dist(i)
			c.refineDur += time.Since(t0)
		} else {
			b = c.exact.dist(i)
		}
	}
	c.top.Push(i, b)
}

// micros renders a duration as a span attribute in microseconds.
func micros(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Microsecond))
}

// stageAttrs renders one StageStat as span attributes.
func stageAttrs(st StageStat) []obs.Attr {
	return []obs.Attr{
		obs.A("in", st.In), obs.A("out", st.Out),
		obs.A("pruned", fmt.Sprintf("%.1f%%", 100*st.PruneRatio())),
		obs.A("transfer_dims", st.TransferDims),
	}
}
