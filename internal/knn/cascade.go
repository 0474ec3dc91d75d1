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
// A cascade's own stages are never prepared: each walk prepares copies.
type stage interface {
	// fresh returns the stage over the same index — payloads, digests, Φ,
	// bound index — with query-side scratch of its own, unprepared.
	fresh() stage
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
// measure's exact value against the walk's query, and the meter rule of
// computing it n times. The zero fn marks a cascade without one — its
// last stage's value is the answer (HD from a healthy array, the
// approximate ED of Approx-PIM), and nothing is charged or reported as a
// refinement.
type exactStep struct {
	fn   string // meter bucket and StageStat name
	dims int    // operands one evaluation moves (StageStat.TransferDims)
	dist func(w *walk, i int) float64
	// dist4 is dist's four-row form, nil where the measure has none: it
	// sets dst[r] to dist(rows[r]), to the bit. Rows may repeat.
	dist4 func(w *walk, rows *[groupSize]int, dst *[groupSize]float64)
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
//
// A Cascade is an immutable index, and every search runs on a walk of its
// own from a small free list: a Cascade is safe for concurrent use and no
// search waits for another.
type Cascade struct {
	name     string
	spanName string
	n        int     // objects walked
	stages   []stage // the plan; walks prepare fresh copies
	exact    exactStep
	lazy     bool // walks lead with the first stage answering from its digests (lazy.go)

	walks freeList[*walk]
	last  []StageStat // the stats of the walk returned last, under walks.mu
}

// walk is one search over a Cascade: everything a query writes — the
// prepared stages, the column, the heaps, the group in flight, the stats.
// A warmed-up walk allocates nothing.
type walk struct {
	c      *Cascade
	stages []stage           // fresh copies of c.stages, prepared for the query in flight
	quads  []quadStage       // each stage's four-row form, nil where it has none
	q      []float64         // the query in flight, for the exact step
	code   measure.BitVector // HD-PIM's query in flight
	ceil   float64           // no row above it is returned
	own    memo              // the query's features when ctx carries no memo for it

	column    []float64      // the first stage's bound of every object
	top       *vec.TopK      // the answer
	seeds     *vec.TopK      // the k smallest of column
	seedBuf   []vec.Neighbor // seeds in visiting order, then by index
	passed    []int          // per stage, the candidates it failed to prune
	stats     []StageStat
	timed     bool // the walk is traced: time the exact step
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

	// A lazy first stage (nil when eager) and the walk over its loose column
	// (tightenSeeds): an entry is at one of three precisions, the digest's,
	// partial — the first payload's exact dot — or exact.
	lazy       lazyStage
	tight      []uint64      // bitset of the rows whose column entry is exact
	part       []uint64      // bitset of the rows whose entry is partial
	rows       []int         // the rows of one tighten pass
	listed     []int         // the rows listed at θ₁, for the passes after it
	theta1     float64       // every row whose entry is the digest's lies above it
	theta2     float64       // every row at or below it is exact
	exit       string        // how the walk left the first stage
	nLoose     int           // rows listed, or at a sweep exact or found by the refused listing
	nTight     int           // rows made exact
	nPart      int           // rows left partial
	tightenDur time.Duration // time in the tighten passes of a timed walk
}

// newPlan builds a cascade over n objects without an exact step; the
// constructors of the measures that have one add it.
func newPlan(name string, n int, stages ...stage) *Cascade {
	c := &Cascade{name: name, spanName: "knn." + name, n: n, stages: stages}
	c.walks.make = c.newWalk
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
	c := newPlan(name, data.N, stages...)
	if len(stages) > 0 {
		ls, ok := stages[0].(lazyStage)
		c.lazy = ok && ls.digested()
	}
	c.exact = exactStep{
		fn: arch.FuncED, dims: data.D,
		dist: func(w *walk, i int) float64 { return measure.SqEuclidean(data.Row(i), w.q) },
		dist4: func(w *walk, rows *[groupSize]int, dst *[groupSize]float64) {
			dst[0], dst[1], dst[2], dst[3] = measure.SqEuclidean4(data.Row(rows[0]), data.Row(rows[1]), data.Row(rows[2]), data.Row(rows[3]), w.q)
		},
		cost: func(ctr *arch.Counters, n int64) { costExactRefine(ctr, n, data.D) },
	}
	return c
}

// newWalk builds a walk over c: fresh stages and the scratch to walk them.
func (c *Cascade) newWalk() *walk {
	w := &walk{
		c: c, stages: make([]stage, len(c.stages)), quads: make([]quadStage, len(c.stages)),
		passed: make([]int, len(c.stages)),
		stats:  make([]StageStat, 0, len(c.stages)+1),
		grpLB:  make([][groupSize]float64, max(len(c.stages), 1)),
	}
	for si, st := range c.stages {
		w.stages[si] = st.fresh()
		w.quads[si], _ = w.stages[si].(quadStage)
	}
	if len(c.stages) > 0 {
		w.column = make([]float64, c.n)
	}
	if c.lazy {
		w.lazy = w.stages[0].(lazyStage)
		w.lazy.startLazy()
		words := (c.n + 63) / 64
		w.tight, w.part = make([]uint64, words), make([]uint64, words)
		w.rows, w.listed = make([]int, 0, c.n/tightenShare), make([]int, 0, c.n/tightenShare)
	}
	return w
}

// put records w's stats as the cascade's LastStages and takes w back.
func (c *Cascade) put(w *walk) {
	c.walks.mu.Lock()
	c.last = append(c.last[:0], w.stats...)
	c.walks.mu.Unlock()
	c.walks.put(w)
}

// Name implements Searcher.
func (c *Cascade) Name() string { return c.name }

// LastStages implements Stager: the stats of one whole walk, the one that
// ended last.
func (c *Cascade) LastStages() []StageStat {
	c.walks.mu.Lock()
	defer c.walks.mu.Unlock()
	return slices.Clone(c.last)
}

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
	w := c.walks.get()
	w.q = q
	m := memoFor(ctx, q, &w.own)
	for si, st := range w.stages {
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
			pd.SetAttr("lazy", si == 0 && w.lazy != nil && w.lazy.isLoose())
			pd.End()
		}
	}

	dst = w.walk(sp, k, ceiling, meter, dst)
	w.q = nil // do not keep the caller's buffer (a row of a batch arena) alive
	w.own.reset(nil)
	c.put(w)
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
func (w *walk) walk(sp *obs.Span, k int, ceiling float64, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	w.timed, w.refineDur, w.ceil = sp != nil, 0, ceiling
	be := sp.StartChild("bound-eval")
	w.top = reuseTopK(w.top, k)
	clear(w.passed)
	if len(w.stages) == 0 {
		for i := 0; i < w.c.n; i++ {
			w.add(i, 0, false)
		}
		w.flush(false)
	} else {
		w.seedAndScan(be, k)
	}

	w.stats = w.stats[:0]
	survivors := w.c.n // of the stages so far
	for si, st := range w.stages {
		st.cost(meter.C(st.name()), int64(survivors))
		w.stats = append(w.stats, StageStat{Name: st.name(), In: survivors, Out: w.passed[si], TransferDims: st.operands()})
		survivors = w.passed[si]
	}
	exact := w.c.exact
	if exact.fn != "" {
		exact.cost(meter.C(exact.fn), int64(survivors))
		w.stats = append(w.stats, StageStat{Name: exact.fn, In: survivors, Out: k, TransferDims: exact.dims})
	}
	other := meter.C(arch.FuncOther)
	other.Ops += int64(w.c.n) // heap maintenance
	if len(w.stages) > 0 {
		other.Ops += int64(w.c.n) // selecting the seeds
	}
	if w.timed {
		for _, st := range w.stats[:len(w.stages)] {
			be.Annotate(st.Name, stageAttrs(st)...)
		}
		if exact.fn != "" {
			be.AddChild("refine", w.refineDur, obs.A("in", survivors), obs.A("out", k), obs.A("transfer_dims", exact.dims))
		}
		be.End()
	}
	return w.top.AppendResults(dst)
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
func (w *walk) seedAndScan(be *obs.Span, k int) {
	col := w.column
	var t0 time.Time
	if w.timed {
		t0 = time.Now()
	}
	w.stages[0].lbInto(col)
	if w.begin() && (k > w.c.n/tightenShare || !w.tightenSeeds(col, k, w.ceil)) {
		w.sweepColumn(col, exitTheta)
	}
	var columnDur time.Duration
	if w.timed {
		columnDur = time.Since(t0)
	}

	w.selectSeeds(col, k)
	// The seeds come in ascending bound order: once one is above the
	// ceiling, so is every later one, and the scan prunes them all.
	for i, s := range w.seedBuf {
		if s.Dist > w.ceil {
			w.seedBuf = w.seedBuf[:i]
			break
		}
		w.add(s.Index, s.Dist, false)
	}
	w.flush(false)
	tau := w.threshold()
	if w.exit == exitLazy && !w.tightenBelow(col, tau) {
		w.sweepColumn(col, exitTau)
	}
	if w.timed {
		be.Annotate("seed", obs.A("k", len(w.seedBuf)), obs.A("tau", tau), obs.A("ceiling", w.ceil),
			obs.A("column_us", micros(columnDur)), obs.A("loose", w.nLoose), obs.A("tightened", w.nTight),
			obs.A("partial", w.nPart), obs.A("tighten_us", micros(w.tightenDur)), obs.A("exit", w.exit))
	}

	slices.SortFunc(w.seedBuf, func(a, b vec.Neighbor) int { return a.Index - b.Index })
	for i, b := range col {
		if b > tau {
			continue
		}
		if _, seeded := slices.BinarySearchFunc(w.seedBuf, i, func(s vec.Neighbor, i int) int { return s.Index - i }); seeded {
			continue
		}
		w.add(i, b, true)
		tau = w.threshold()
	}
	w.flush(true)
}

// threshold is what the walk prunes against: the lesser of the ceiling and
// the k-th distance so far.
func (w *walk) threshold() float64 {
	if t := w.top.Threshold(); t < w.ceil {
		return t
	}
	return w.ceil
}

// selectSeeds leaves in seedBuf the k smallest (bound, index) of col, in
// that order.
func (w *walk) selectSeeds(col []float64, k int) {
	// Rows arrive in index order, so one that ties the k-th smallest bound
	// so far ranks after it: only a strictly smaller bound gets in.
	w.seeds = reuseTopK(w.seeds, k)
	thr := w.seeds.Threshold()
	for i, b := range col {
		if b < thr {
			w.seeds.Push(i, b)
			thr = w.seeds.Threshold()
		}
	}
	w.seedBuf = w.seeds.AppendResults(w.seedBuf[:0])
}

// add appends row i, whose first-stage bound b did not prune it, to the
// group in flight, and flushes the group once it is full. scan marks a row
// of the scan, which the replay tests on its column entry again; a seed is
// visited whatever its entry.
func (w *walk) add(i int, b float64, scan bool) {
	w.grp[w.grpN], w.grpLB[0][w.grpN] = i, b
	if w.grpN++; w.grpN == groupSize {
		w.flush(scan)
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
func (w *walk) flush(scan bool) {
	n := w.grpN
	if n == 0 {
		return
	}
	w.grpN = 0
	tau0 := w.threshold()
	m := n
	for r := range n {
		w.live[r], w.liveAt[r] = w.grp[r], r
	}
	for si := 1; si < len(w.stages) && m > 0; si++ {
		w.bound(si, m)
		lbs, kept := &w.grpLB[si], 0
		for j := range m {
			lbs[w.liveAt[j]] = w.liveVal[j]
			if !(w.liveVal[j] > tau0) {
				w.live[kept], w.liveAt[kept] = w.live[j], w.liveAt[j]
				kept++
			}
		}
		m = kept
	}
	if w.c.exact.dist == nil {
		w.grpVal = w.grpLB[max(len(w.stages)-1, 0)] // the last bound is the answer
	} else if m > 0 {
		var t0 time.Time
		if w.timed {
			t0 = time.Now()
		}
		if w.c.exact.dist4 != nil && m > 1 {
			w.pad(m)
			w.c.exact.dist4(w, &w.live, &w.liveVal)
		} else {
			for j := range m {
				w.liveVal[j] = w.c.exact.dist(w, w.live[j])
			}
		}
		for j := range m {
			w.grpVal[w.liveAt[j]] = w.liveVal[j]
		}
		if w.timed {
			w.refineDur += time.Since(t0)
		}
	}

replay:
	for r := range n {
		for si := range w.stages {
			if (si > 0 || scan) && w.grpLB[si][r] > w.threshold() {
				continue replay
			}
			w.passed[si]++
		}
		if v := w.grpVal[r]; v <= w.ceil {
			w.top.Push(w.grp[r], v)
		}
	}
}

// bound leaves in liveVal stage si's bound of the first m live rows.
func (w *walk) bound(si, m int) {
	if q := w.quads[si]; q != nil && m > 1 {
		w.pad(m)
		q.lb4(&w.live, &w.liveVal)
		return
	}
	st := w.stages[si]
	for j := range m {
		w.liveVal[j] = st.lb(w.live[j])
	}
}

// pad fills the live slots past the first m with the first live row, so a
// four-row form computes the m rows and repeats one.
func (w *walk) pad(m int) {
	for j := m; j < groupSize; j++ {
		w.live[j] = w.live[0]
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
