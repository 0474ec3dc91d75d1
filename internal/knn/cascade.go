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

// stage is one bound of an execution plan (§V-D). prepare readies it for
// the query in flight, after which lb(i) is at most the cascade's exact
// value for every object — a lower bound on ED, or the negated upper bound
// of a similarity (the cascade ranks negated similarities, so smaller is
// always better and one strict prune serves every measure). The query-side
// features of LB_FNN, LB_PIM-FNN and LB_PIM-ED are read from the query's
// memo (memo.go), computed once per query and shared by every stage — and
// every shard — at the same granularity and α; what stays per stage is the
// dots of its own payload, its digest's group norms and the cascade's
// column. The host stages wrap the bound package's indexes (host.go,
// cspcc.go), the PIM stages the pimbound ones plus their programmed
// payloads (pimknn.go, table4.go); the cascade treats them alike.
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
	// prepare readies the stage for m's query: its features, read from m
	// or computed into the stage's scratch, and for a PIM stage the array
	// pass, metered under name().
	prepare(m *memo, meter *arch.Meter) error
	lb(i int) float64
	// lbInto is the bound as a column: dst[i] = lb(i), to the bit, for the
	// first len(dst) objects. It is how the walk consults its first stage
	// — once per query — so the PIM stages write it as one call-free loop
	// over their Φ and dot arrays.
	lbInto(dst []float64)
	// cost is the stage's meter rule: the host cost of n consultations.
	cost(c *arch.Counters, n int64)
}

// groupSize is how many candidate rows the walk takes through the later
// stages and the exact step at once. Four independent sums fill the float
// adder's pipeline that one sum leaves waiting on each add's latency
// (measure.SqEuclidean4); eight spill registers and run slower.
const groupSize = 4

// quadStage is a stage with a four-row form of its bound: lb4 sets dst[r]
// to lb(rows[r]), to the bit, for every r. Rows may repeat.
type quadStage interface {
	lb4(rows *[groupSize]int, dst *[groupSize]float64)
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
	// dist4 is dist's four-row form, nil where the measure has none: it
	// sets dst[r] to dist(rows[r]), to the bit. Rows may repeat.
	dist4 func(rows *[groupSize]int, dst *[groupSize]float64)
	cost  func(c *arch.Counters, n int64)
}

// Cascade is the paper's filter-and-refine loop (§III-B, Fig 12a) over an
// ordered list of bounds: an object reaches stage j+1 only if stage j
// failed to prune it, and the survivors of all stages take the exact step.
// OST, SM and FNN are cascades of host bounds refined with exact ED; the
// *-PIM searchers replace the bottleneck (coarsest) bound by its PIM-aware
// form, which is placed first because the array evaluates it for all
// objects in one batch; the CS/PCC, HD and Approx-PIM searchers are the
// same walk with another exact step (or none).
//
// The walk does not consume that batch one object at a time against a
// threshold that starts at +Inf: Fig 12a's loop spends its first k objects,
// and k·ln(n/k) more, just finding a threshold. See walk for its passes.
// Nor does it take the candidates past the first stage one at a time: it
// takes them in groups of four, each later bound and the exact value
// computed for the group's rows at once, and then replays the one-row
// walk's decisions over what it computed (flush), so every answer and
// every count is the one-row walk's.
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
	ceil     float64   // the walk in flight returns no row above it
	own      memo      // the query's features when ctx carries no memo for it

	// lazy is the walk's state over a first stage that answers from a
	// digest (lazy.go), resolved at construction; nil walks the column as
	// the stage's sweep left it.
	lazy *lazyWalk

	// quads holds each stage's four-row form, nil where it has none.
	quads []quadStage

	// Retained per-query scratch: a warmed-up search allocates nothing.
	column    []float64      // the first stage's bound of every object
	top       *vec.TopK      // the answer
	seeds     *vec.TopK      // the k smallest of column
	seedBuf   []vec.Neighbor // seeds in visiting order, then by index
	passed    []int          // per stage, the candidates it failed to prune
	stats     []StageStat
	timed     bool // the walk in flight is traced: time the exact step
	refineDur time.Duration

	// The group in flight (flush): its rows in visiting order, each one's
	// bound at every stage it reached (grpLB[0] is its column entry) and
	// its exact value; live lists the rows still unpruned at the group's
	// threshold, at their places liveAt, with liveVal their latest value.
	grp     [groupSize]int
	grpN    int
	grpLB   [][groupSize]float64
	grpVal  [groupSize]float64
	live    [groupSize]int
	liveAt  [groupSize]int
	liveVal [groupSize]float64
}

// newWalk builds a cascade over n objects without an exact step; the
// constructors of the measures that have one add it.
func newWalk(name string, n int, stages ...stage) *Cascade {
	c := &Cascade{
		name: name, spanName: "knn." + name, n: n, stages: stages,
		quads:  make([]quadStage, len(stages)),
		passed: make([]int, len(stages)),
		stats:  make([]StageStat, 0, len(stages)+1),
		grpLB:  make([][groupSize]float64, max(len(stages), 1)),
	}
	for si, st := range stages {
		c.quads[si], _ = st.(quadStage)
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
		dist4: func(rows *[groupSize]int, dst *[groupSize]float64) {
			dst[0], dst[1], dst[2], dst[3] = measure.SqEuclidean4(data.Row(rows[0]), data.Row(rows[1]), data.Row(rows[2]), data.Row(rows[3]), c.q)
		},
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
	return c.searchAppend(context.Background(), q, k, math.Inf(1), meter, nil)
}

// SearchAppend implements AppendSearcher.
func (c *Cascade) SearchAppend(q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	return c.searchAppend(context.Background(), q, k, math.Inf(1), meter, dst)
}

// SearchCtx implements ContextSearcher: Search with per-phase spans
// (pim-dot per PIM stage, bound-eval with the seed event and one event per
// stage, refine) emitted into the context's trace.
func (c *Cascade) SearchCtx(ctx context.Context, q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	return c.searchAppend(ctx, q, k, math.Inf(1), meter, nil)
}

// SearchCeiling implements CeilingSearcher: SearchCtx pruning on the lesser
// of ceiling and its own k-th distance, so it returns the rows of the k
// nearest at or below ceiling and nothing else.
func (c *Cascade) SearchCeiling(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter) []vec.Neighbor {
	return c.searchAppend(ctx, q, k, ceiling, meter, nil)
}

func (c *Cascade) searchAppend(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	_, sp := obs.StartSpan(ctx, c.spanName)
	defer sp.End()
	c.q = q
	m := memoFor(ctx, q, &c.own)
	for si, st := range c.stages {
		var pd *obs.Span
		if st.pimDots() > 0 {
			pd = sp.StartChild("pim-dot")
		}
		if err := st.prepare(m, meter); err != nil {
			panic(fmt.Sprintf("knn: %s: %s query: %v", c.name, st.name(), err)) // shape mismatch is a caller bug
		}
		if pd != nil {
			pd.SetAttr("func", st.name())
			pd.SetAttr("dots", st.pimDots())
			pd.SetAttr("lazy", si == 0 && c.lazy != nil && c.lazy.isLoose())
			pd.End()
		}
	}

	dst = c.walk(sp, k, ceiling, meter, dst)
	c.q = nil // do not keep the caller's buffer (a row of a batch arena) alive
	c.own.reset(nil)
	return dst
}

// walk is the filter-and-refine loop over prepared stages, in three passes
// over the column: (1) the first stage's bound of every object, one lbInto
// call; (2) seed — the k objects with the smallest (bound, index) are
// visited first, in that order, so the threshold is the k-th distance among
// the most promising objects before anything is tested against it; (3)
// scan — the rest in index order, pruned on the column. A cascade without
// stages is a plain scan. Every pass hands the rows it visits to the group
// in flight (add), four at a time, and flush takes each group on through
// the later stages and the exact step, then replays the one-row walk's
// decisions in visiting order. walk is apart from searchAppend so that a
// searcher whose query is not a []float64 (HD's packed code) prepares its
// stage itself and runs the same loop. A nil span is the untraced walk.
//
// Every prune is against threshold(): the lesser of ceiling and the k-th
// distance so far, and the walk keeps no row above ceiling. A row of the
// uncapped answer at or below ceiling is never pruned — its bound is at
// most its distance, and the k-th distance never falls below the final
// one — so the walk returns exactly the uncapped answer's rows at or
// below ceiling (+Inf: all of it).
func (c *Cascade) walk(sp *obs.Span, k int, ceiling float64, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	c.timed, c.refineDur, c.ceil = sp != nil, 0, ceiling
	be := sp.StartChild("bound-eval")
	c.top = reuseTopK(c.top, k)
	clear(c.passed)
	if len(c.stages) == 0 {
		for i := 0; i < c.n; i++ {
			c.add(i, 0, false)
		}
		c.flush(false)
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
// what the column cost, and how a lazy first stage ended — rows listed
// (loose), made exact (tightened) and left partial — and what its tighten
// passes cost.
//
// Over a loose column — under-estimates LB′ ≤ LB from the digest — it makes
// the decisions it makes over the exact one, to the row. An entry is at
// one of three precisions, each at most the next: the digest's; partial,
// where a stage of two payloads has the first one's exact dot; and exact.
// (1) tightenSeeds makes every entry at or below θ₂ exact, where k exact
// bounds lie at or below θ₂, so every one of the k smallest (LB, index) at
// or below the ceiling has LB′ ≤ LB ≤ θ₂ and is exact, every other entry
// exceeds θ₂, and the selection picks the seeds it would pick from the
// exact column. (2) The seeds leave τ; every row still loose with LB′ ≤ τ
// is listed, its entry made at least partial and exact where it stays at
// or below τ — none is loose when τ ≤ θ₂. (3) A loose entry now has
// LB ≥ LB′ > τ, and τ only falls: `col[i] > tau` prunes it as it would
// have pruned its exact bound. A pass that would list more than
// n/tightenShare rows of the whole column is replaced by the stage's
// sweep and the exact column.
//
// The seeds go to the group in flight in seed order and the group is
// flushed after the last one, so τ is what the seeds leave. Then the scan
// adds each row with col[i] ≤ τ, τ read at the last flush; the replay
// tests the row on its column entry again, against the threshold as it
// stands by then.
func (c *Cascade) seedAndScan(be *obs.Span, k int) {
	col := c.column
	var t0 time.Time
	if c.timed {
		t0 = time.Now()
	}
	c.stages[0].lbInto(col)
	lazy := c.lazy
	if lazy != nil && lazy.begin(c.timed) && (k > c.n/tightenShare || !c.tightenSeeds(col, k, c.ceil)) {
		lazy.sweepColumn(col, exitTheta)
	}
	var columnDur time.Duration
	if c.timed {
		columnDur = time.Since(t0)
	}

	c.selectSeeds(col, k)
	// The seeds come in ascending bound order: once one is above the
	// ceiling, so is every later one, and the scan prunes them all.
	for i, s := range c.seedBuf {
		if s.Dist > c.ceil {
			c.seedBuf = c.seedBuf[:i]
			break
		}
		c.add(s.Index, s.Dist, false)
	}
	c.flush(false)
	tau := c.threshold()
	if lazy != nil && lazy.exit == exitLazy && !lazy.tightenBelow(col, tau) {
		lazy.sweepColumn(col, exitTau)
	}
	if c.timed {
		exit, loose, tightened, partial, tightenDur := exitEager, 0, 0, 0, time.Duration(0)
		if lazy != nil {
			exit, loose, tightened, partial, tightenDur = lazy.exit, lazy.nLoose, lazy.nTight, lazy.nPart, lazy.tightenDur
		}
		be.Annotate("seed", obs.A("k", len(c.seedBuf)), obs.A("tau", tau), obs.A("ceiling", c.ceil),
			obs.A("column_us", micros(columnDur)), obs.A("loose", loose), obs.A("tightened", tightened),
			obs.A("partial", partial), obs.A("tighten_us", micros(tightenDur)), obs.A("exit", exit))
	}

	slices.SortFunc(c.seedBuf, func(a, b vec.Neighbor) int { return a.Index - b.Index })
	for i, b := range col {
		if b > tau {
			continue
		}
		if _, seeded := slices.BinarySearchFunc(c.seedBuf, i, func(s vec.Neighbor, i int) int { return s.Index - i }); seeded {
			continue
		}
		c.add(i, b, true)
		tau = c.threshold()
	}
	c.flush(true)
}

// threshold is what the walk prunes against: the lesser of the ceiling and
// the k-th distance so far.
func (c *Cascade) threshold() float64 {
	if t := c.top.Threshold(); t < c.ceil {
		return t
	}
	return c.ceil
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

// add appends row i, whose first-stage bound b did not prune it, to the
// group in flight, and flushes the group once it is full. scan marks a row
// of the scan, which the replay tests on its column entry again; a seed is
// visited whatever its entry.
func (c *Cascade) add(i int, b float64, scan bool) {
	c.grp[c.grpN], c.grpLB[0][c.grpN] = i, b
	if c.grpN++; c.grpN == groupSize {
		c.flush(scan)
	}
}

// flush takes the group in flight through the remaining stages and the
// exact step, as the one-row walk would take each row in turn: the same
// rows pass each stage, the same rows reach the answer and the counts are
// the same. It does so in two passes.
//
// Compute: against tau0, the threshold the group started with, each later
// stage bounds the rows it has not pruned — in one call where the stage
// has a four-row form and two or more rows are live, the empty slots
// padded with the first live row — and then the exact step takes the
// survivors, in one call where it can.
//
// Replay: row by row in visiting order, every decision of the one-row walk
// against the threshold as it stands — the scan's column test, each
// stage's prune, the counts, the ceiling and the push. The threshold never
// rises, so a row the replay takes past a stage passed it at tau0 too and
// its next value was computed; a row computed and then pruned on replay
// is counted nowhere. Every test is the strict b > threshold, in both
// passes, so a NaN bound prunes in neither.
func (c *Cascade) flush(scan bool) {
	n := c.grpN
	if n == 0 {
		return
	}
	c.grpN = 0
	tau0 := c.threshold()
	m := n
	for r := range n {
		c.live[r], c.liveAt[r] = c.grp[r], r
	}
	for si := 1; si < len(c.stages) && m > 0; si++ {
		c.bound(si, m)
		lbs, kept := &c.grpLB[si], 0
		for j := range m {
			lbs[c.liveAt[j]] = c.liveVal[j]
			if !(c.liveVal[j] > tau0) {
				c.live[kept], c.liveAt[kept] = c.live[j], c.liveAt[j]
				kept++
			}
		}
		m = kept
	}
	if c.exact.dist == nil {
		c.grpVal = c.grpLB[max(len(c.stages)-1, 0)] // the last bound is the answer
	} else if m > 0 {
		var t0 time.Time
		if c.timed {
			t0 = time.Now()
		}
		if c.exact.dist4 != nil && m > 1 {
			c.pad(m)
			c.exact.dist4(&c.live, &c.liveVal)
		} else {
			for j := range m {
				c.liveVal[j] = c.exact.dist(c.live[j])
			}
		}
		for j := range m {
			c.grpVal[c.liveAt[j]] = c.liveVal[j]
		}
		if c.timed {
			c.refineDur += time.Since(t0)
		}
	}

replay:
	for r := range n {
		for si := range c.stages {
			if (si > 0 || scan) && c.grpLB[si][r] > c.threshold() {
				continue replay
			}
			c.passed[si]++
		}
		if v := c.grpVal[r]; v <= c.ceil {
			c.top.Push(c.grp[r], v)
		}
	}
}

// bound leaves in liveVal stage si's bound of the first m live rows.
func (c *Cascade) bound(si, m int) {
	if q := c.quads[si]; q != nil && m > 1 {
		c.pad(m)
		q.lb4(&c.live, &c.liveVal)
		return
	}
	st := c.stages[si]
	for j := range m {
		c.liveVal[j] = st.lb(c.live[j])
	}
}

// pad fills the live slots past the first m with the first live row, so a
// four-row form computes the m rows and repeats one.
func (c *Cascade) pad(m int) {
	for j := m; j < groupSize; j++ {
		c.live[j] = c.live[0]
	}
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
