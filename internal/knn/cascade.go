package knn

import (
	"context"
	"fmt"
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
	// cost is the stage's meter rule: the host cost of n consultations.
	cost(c *arch.Counters, n int64)
}

// exactStep is what a cascade does with an object no stage pruned: the
// measure's exact value against the query in flight, and the meter rule
// of computing it n times. The zero fn marks a cascade without one — its
// last stage's value is the answer (HD from a healthy array, the
// approximate ED of Approx-PIM), so dist is that stage's lb and nothing is
// charged or reported as a refinement.
type exactStep struct {
	fn   string // meter bucket and StageStat name
	dims int    // operands one evaluation moves (StageStat.TransferDims)
	dist func(i int) float64
	cost func(c *arch.Counters, n int64)
}

// Cascade is the paper's filter-and-refine loop (§III-B, Fig 12a) over an
// ordered list of bounds: every object is tested against the stages in
// turn, lazily — it reaches stage j+1 only if stage j failed to prune it
// — and the survivors of all stages take the exact step. OST, SM and FNN
// are cascades of host bounds refined with exact ED; the *-PIM searchers
// replace the bottleneck (coarsest) bound by its PIM-aware form, which is
// placed first because the array evaluates it for all objects in one
// batch; the CS/PCC, HD, Approx-PIM and Dynamic-PIM searchers are the same
// walk with another exact step (or none).
//
// A prune is strict (lb > threshold): an object whose bound ties the
// current k-th distance may still tie it exactly and win on the smaller
// index, so results equal the exact scan's including ties.
type Cascade struct {
	name     string
	spanName string
	n        int // objects walked
	stages   []stage
	exact    exactStep
	q        []float64 // the query in flight, for the exact step

	top    *vec.TopK
	passed []int // per stage, the candidates it failed to prune
	stats  []StageStat
}

// newWalk builds a cascade over n objects whose exact step is the last
// stage's value; the constructors of the other measures replace it.
func newWalk(name string, n int, stages ...stage) *Cascade {
	c := &Cascade{
		name: name, spanName: "knn." + name, n: n, stages: stages,
		passed: make([]int, len(stages)),
		stats:  make([]StageStat, 0, len(stages)+1),
	}
	if len(stages) > 0 {
		c.exact.dist = stages[len(stages)-1].lb
	}
	return c
}

// newCascade builds a cascade refined with exact ED over data.
func newCascade(data *vec.Matrix, name string, stages ...stage) *Cascade {
	c := newWalk(name, data.N, stages...)
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
// (pim-dot per PIM stage, bound-eval with one event per stage, refine)
// emitted into the context's trace.
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
			pd.End()
		}
	}

	dst = c.walk(sp, k, meter, dst)
	c.q = nil // do not keep the caller's buffer (a row of a batch arena) alive
	return dst
}

// walk is the index-order filter-and-refine loop over prepared stages. It
// is apart from searchAppend so that a searcher whose query is not a
// []float64 (HD's packed code) prepares its stage itself and runs the same
// loop. A nil span is the untraced walk.
func (c *Cascade) walk(sp *obs.Span, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	traced := sp != nil
	be := sp.StartChild("bound-eval")
	var refineDur time.Duration
	c.top = reuseTopK(c.top, k)
	top, stages, passed, exact := c.top, c.stages, c.passed, c.exact
	clear(passed)
scan:
	for i := 0; i < c.n; i++ {
		for si, st := range stages {
			if st.lb(i) > top.Threshold() {
				continue scan
			}
			passed[si]++
		}
		if traced {
			t0 := time.Now()
			top.Push(i, exact.dist(i))
			refineDur += time.Since(t0)
		} else {
			top.Push(i, exact.dist(i))
		}
	}

	c.stats = c.stats[:0]
	survivors := c.n // of the stages so far
	for si, st := range stages {
		st.cost(meter.C(st.name()), int64(survivors))
		c.stats = append(c.stats, StageStat{Name: st.name(), In: survivors, Out: passed[si], TransferDims: st.operands()})
		survivors = passed[si]
	}
	if exact.fn != "" {
		exact.cost(meter.C(exact.fn), int64(survivors))
		c.stats = append(c.stats, StageStat{Name: exact.fn, In: survivors, Out: k, TransferDims: exact.dims})
	}
	meter.C(arch.FuncOther).Ops += int64(c.n) // heap maintenance
	if traced {
		for _, st := range c.stats[:len(stages)] {
			be.Annotate(st.Name, stageAttrs(st)...)
		}
		if exact.fn != "" {
			be.AddChild("refine", refineDur, obs.A("in", survivors), obs.A("out", k), obs.A("transfer_dims", exact.dims))
		}
		be.End()
	}
	return top.AppendResults(dst)
}

// stageAttrs renders one StageStat as span attributes.
func stageAttrs(st StageStat) []obs.Attr {
	return []obs.Attr{
		obs.A("in", st.In), obs.A("out", st.Out),
		obs.A("pruned", fmt.Sprintf("%.1f%%", 100*st.PruneRatio())),
		obs.A("transfer_dims", st.TransferDims),
	}
}
