package knn

import (
	"context"
	"fmt"
	"math"
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

// lazyStage is a first stage that need not run its array pass to start the
// walk. Its payloads carry a digest (pim.Engine.UpperAll) that bounds every
// row's dot from above out of 1/32 of the bytes; the stage's G consumes the
// dot as −2·dot through operations that each round monotonically, so the
// same expression over the upper bounds is an under-estimate LB′ ≤ lb(i) —
// in floating point, not only over the reals, which is why a stage over
// two payloads takes one upper bound per payload and never a merged sum.
// A walk that prunes on LB′ > τ prunes nothing lb(i) > τ would not; the
// rows it cannot prune are the ones it asks the stage to tighten.
type lazyStage interface {
	stage
	// startLazy is called once, by the cascade this stage leads: from then
	// on prepare answers from the digests where they exist and accept the
	// query. It reports whether they exist; prepare otherwise stays eager.
	startLazy() bool
	// isLoose reports whether the last prepare left upper bounds in the dot
	// arrays, so that lb and lbInto now under-estimate.
	isLoose() bool
	// tighten gives the listed rows their exact dots and overwrites their
	// entries of col, a column lbInto filled, with lb(i) to the bit.
	tighten(rows []int, col []float64)
	// sweep runs the whole array pass for the prepared query: afterwards
	// nothing is loose. prepare has charged the query already, whichever way
	// it answered, so the walk passes no meter.
	sweep(meter *arch.Meter) error
}

// tightenShare bounds one tighten pass: a pass that would list more than
// 1/tightenShare of the rows is not run, the stage sweeps instead. A
// single-row dot measured 170 ns against 34 ns per row of the streaming
// sweep (s = 210, the wire-knn shard), so past a fifth of the rows the
// sweep is cheaper than the pass alone, and a query takes up to three
// passes after paying for the digest (EXPERIMENTS.md "Lazy exact dots").
const tightenShare = 8

// The ways a walk ends its first stage, as the seed event's exit attribute
// reports them.
const (
	exitEager = "eager" // no digest, or it refused the query: prepare swept
	exitLazy  = "lazy"  // every row the threshold could not rule out was tightened
	exitTheta = "theta" // too many rows at or below the seeds' largest bound: swept
	exitTau   = "tau"   // too many rows at or below the seeded threshold: swept
)

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

	// lazy is the first stage when it answers from a digest, resolved at
	// construction; nil walks the column as it is.
	lazy lazyStage

	// Retained per-query scratch: a warmed-up search allocates nothing.
	column    []float64      // the first stage's bound of every object
	tight     []uint64       // lazy: bitset of the rows whose column entry is exact
	rows      []int          // lazy: the rows of one tighten pass
	exit      string         // how the last walk's first stage ended
	nLoose    int            // lazy: rows at or below the threshold that decided exit
	nTight    int            // lazy: rows tightened
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
		if ls, ok := stages[0].(lazyStage); ok && ls.startLazy() {
			c.lazy = ls
			c.tight = make([]uint64, (c.n+63)/64)
			c.rows = make([]int, 0, c.n/tightenShare)
		}
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
	for _, st := range c.stages {
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
			pd.SetAttr("lazy", c.lazy != nil && st == stage(c.lazy) && c.lazy.isLoose())
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
// what the column cost, and how a lazy first stage ended.
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
	c.column = grown(c.column, c.n) // the index may have grown (DynamicPIM.Add)
	col := c.column
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.stages[0].lbInto(col)
	c.exit, c.nLoose, c.nTight = exitEager, 0, 0
	if c.lazy != nil && c.lazy.isLoose() {
		c.exit = exitLazy
		c.tight = grown(c.tight, (c.n+63)/64)
		clear(c.tight)
		if k > c.n/tightenShare || !c.tightenSeeds(col, k) {
			c.sweepColumn(col, exitTheta)
		}
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
	if c.exit == exitLazy && !c.tightenBelow(col, tau) {
		c.sweepColumn(col, exitTau)
	}
	if c.timed {
		be.Annotate("seed", obs.A("k", len(c.seedBuf)), obs.A("tau", tau),
			obs.A("column_us", fmt.Sprintf("%.1f", float64(columnDur)/float64(time.Microsecond))),
			obs.A("loose", c.nLoose), obs.A("tightened", c.nTight), obs.A("exit", c.exit))
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

// tightenSeeds is step (1) over a loose column, k ≤ n/tightenShare. It
// reports false, with the column partly tightened, when more rows lie at or
// below θ than one pass may list.
func (c *Cascade) tightenSeeds(col []float64, k int) bool {
	c.selectSeeds(col, k)
	c.rows = c.rows[:0]
	for _, s := range c.seedBuf {
		c.rows = append(c.rows, s.Index)
	}
	c.tightenRows(col)
	theta := math.Inf(-1)
	for _, i := range c.rows {
		theta = max(theta, col[i])
	}
	return c.tightenBelow(col, theta)
}

// tightenBelow tightens every row still loose whose entry of col is at most
// thr, unless they are more than one pass may list: it then reports false
// and leaves the column as it found it.
func (c *Cascade) tightenBelow(col []float64, thr float64) bool {
	most, found := c.n/tightenShare, 0
	c.rows = c.rows[:0]
	for i, b := range col {
		if b <= thr && c.tight[i>>6]&(1<<(i&63)) == 0 {
			if found < most {
				c.rows = append(c.rows, i)
			}
			found++
		}
	}
	c.nLoose = c.nTight + found
	if found > most {
		return false
	}
	c.tightenRows(col)
	return true
}

// tightenRows runs one tighten pass over c.rows and marks them.
func (c *Cascade) tightenRows(col []float64) {
	c.lazy.tighten(c.rows, col)
	for _, i := range c.rows {
		c.tight[i>>6] |= 1 << (i & 63)
	}
	c.nTight += len(c.rows)
}

// sweepColumn gives up on the digest for the query in flight: the stage
// runs its array pass and the column is refilled with exact bounds.
func (c *Cascade) sweepColumn(col []float64, exit string) {
	if err := c.lazy.sweep(nil); err != nil {
		panic(fmt.Sprintf("knn: %s: %s sweep: %v", c.name, c.lazy.name(), err)) // prepare accepted this query
	}
	c.lazy.lbInto(col)
	c.exit = exit
}

// grown returns s with length n, regrown geometrically when it is too
// small, so a stream of one-row inserts regrows a searcher's scratch
// O(log) times and not once per search.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s[:0], n)
	}
	return s[:n]
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

// stageAttrs renders one StageStat as span attributes.
func stageAttrs(st StageStat) []obs.Attr {
	return []obs.Attr{
		obs.A("in", st.In), obs.A("out", st.Out),
		obs.A("pruned", fmt.Sprintf("%.1f%%", 100*st.PruneRatio())),
		obs.A("transfer_dims", st.TransferDims),
	}
}
