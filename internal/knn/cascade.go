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

// stage is one lower bound of an execution plan (§V-D): query-side features
// are computed once per query by prepare, after which lb(i) ≤ ED(pᵢ, q)
// holds for every object. The host stages wrap the bound package's
// indexes (host.go), the PIM stages the pimbound ones plus their
// programmed payloads (pimknn.go); the cascade treats them alike.
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
}

// Cascade is the paper's filter-and-refine loop (§III-B, Fig 12a) over an
// ordered list of bounds: every object is tested against the stages in
// turn, lazily — it reaches stage j+1 only if stage j failed to prune it
// — and the survivors of all stages are refined with exact ED. OST, SM
// and FNN are cascades of host bounds; the *-PIM searchers replace the
// bottleneck (coarsest) bound by its PIM-aware form, which is placed
// first because the array evaluates it for all objects in one batch.
//
// A prune is strict (lb > threshold): an object whose bound ties the
// current k-th distance may still tie it exactly and win on the smaller
// index, so results equal the exact scan's including ties.
type Cascade struct {
	data     *vec.Matrix
	name     string
	spanName string
	stages   []stage

	top    *vec.TopK
	passed []int // per stage, the candidates it failed to prune
	stats  []StageStat
}

func newCascade(data *vec.Matrix, name string, stages ...stage) *Cascade {
	return &Cascade{
		data: data, name: name, spanName: "knn." + name, stages: stages,
		passed: make([]int, len(stages)),
		stats:  make([]StageStat, 0, len(stages)+1),
	}
}

// Name implements Searcher.
func (c *Cascade) Name() string { return c.name }

// LastStages implements Stager.
func (c *Cascade) LastStages() []StageStat { return c.stats }

// S returns the granularity of the PIM stage — Theorem 4's compressed
// dimensionality — or 0 for a host-only cascade.
func (c *Cascade) S() int {
	if c.stages[0].pimDots() == 0 {
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
		if p, ok := st.(interface{ recordProgram(*arch.Meter) }); ok {
			p.recordProgram(meter)
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
	traced := sp != nil
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

	be := sp.StartChild("bound-eval")
	var refineDur time.Duration
	c.top = reuseTopK(c.top, k)
	top, stages, passed := c.top, c.stages, c.passed
	clear(passed)
scan:
	for i := 0; i < c.data.N; i++ {
		for si, st := range stages {
			if st.lb(i) > top.Threshold() {
				continue scan
			}
			passed[si]++
		}
		if traced {
			t0 := time.Now()
			top.Push(i, measure.SqEuclidean(c.data.Row(i), q))
			refineDur += time.Since(t0)
		} else {
			top.Push(i, measure.SqEuclidean(c.data.Row(i), q))
		}
	}

	c.stats = c.stats[:0]
	survivors := c.data.N // of the stages so far
	for si, st := range stages {
		if st.pimDots() > 0 {
			costPIMBound(meter.C(st.name()), int64(survivors), st.operands())
		} else {
			costBoundScan(meter.C(st.name()), int64(survivors), st.operands())
		}
		c.stats = append(c.stats, StageStat{Name: st.name(), In: survivors, Out: passed[si], TransferDims: st.operands()})
		survivors = passed[si]
	}
	costExactRefine(meter.C(arch.FuncED), int64(survivors), c.data.D)
	meter.C(arch.FuncOther).Ops += int64(c.data.N) // heap maintenance
	c.stats = append(c.stats, StageStat{Name: "ED", In: survivors, Out: k, TransferDims: c.data.D})
	if traced {
		for _, st := range c.stats[:len(stages)] {
			be.Annotate(st.Name, stageAttrs(st)...)
		}
		be.AddChild("refine", refineDur, obs.A("in", survivors), obs.A("out", k), obs.A("transfer_dims", c.data.D))
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
