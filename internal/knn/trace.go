package knn

import (
	"context"
	"math"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/obs"
	"pimmine/internal/vec"
)

// ContextSearcher is implemented by searchers that emit observability
// spans into a context-carried trace (internal/obs): the per-query span
// tree decomposes a search the same way §IV's profiling decomposes time —
// bound evaluation, PIM dot products, exact refinement. SearchCtx returns
// exactly what Search returns; with no active trace in ctx it degrades to
// a plain Search.
type ContextSearcher interface {
	Searcher
	SearchCtx(ctx context.Context, q []float64, k int, meter *arch.Meter) []vec.Neighbor
}

// SearchTraced runs s under the context's trace when supported: the
// serving layer calls this so per-shard spans gain searcher children
// without every Searcher implementation changing. A ceiling SearchCapped
// left in ctx reaches s when s takes one, so a wrapper that searches its
// inner searcher through SearchTraced passes the ceiling on unchanged.
func SearchTraced(ctx context.Context, s Searcher, q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	if cs, ok := s.(CeilingSearcher); ok && ctx != nil {
		if ceiling, ok := ctx.Value(ceilingKey{}).(float64); ok {
			return cs.SearchCeiling(ctx, q, k, ceiling, meter)
		}
	}
	if cs, ok := s.(ContextSearcher); ok && obs.SpanFromContext(ctx) != nil {
		return cs.SearchCtx(ctx, q, k, meter)
	}
	return s.Search(q, k, meter)
}

// CeilingSearcher is a searcher that can be told where the answer ends:
// SearchCeiling returns every row of the k nearest whose distance is at
// most ceiling, and no other row, under ctx's trace as SearchCtx does. The
// ceiling is what a caller already holds — wave 1's k-th distance, when the
// shards its other answers come from are merged with this one — and a
// cascade prunes on it from its first seed (Cascade.SearchCeiling).
type CeilingSearcher interface {
	Searcher
	SearchCeiling(ctx context.Context, q []float64, k int, ceiling float64, meter *arch.Meter) []vec.Neighbor
}

// SearchCapped runs s with a ceiling where s takes one, and otherwise as
// SearchTraced: such a searcher returns its whole k nearest, a superset of
// what the ceiling asks for, which every caller that merges answers
// accepts. A ContextSearcher that is not a CeilingSearcher — a wrapper
// around one, say — gets the ceiling in its ctx, for SearchTraced to hand
// on.
func SearchCapped(ctx context.Context, s Searcher, q []float64, k int, ceiling float64, meter *arch.Meter) []vec.Neighbor {
	switch cs := s.(type) {
	case CeilingSearcher:
		return cs.SearchCeiling(ctx, q, k, ceiling, meter)
	case ContextSearcher:
		if !math.IsInf(ceiling, 1) {
			return cs.SearchCtx(context.WithValue(ctx, ceilingKey{}, ceiling), q, k, meter)
		}
	}
	return SearchTraced(ctx, s, q, k, meter)
}

// ceilingKey carries SearchCapped's ceiling through a wrapper's ctx.
type ceilingKey struct{}

// SearchCtx implements ContextSearcher: the exact scan is pure
// refinement.
func (s *Standard) SearchCtx(ctx context.Context, q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	_, sp := obs.StartSpan(ctx, "knn."+s.Name())
	defer sp.End()
	t0 := time.Now()
	nn := s.Search(q, k, meter)
	sp.AddChild("refine", time.Since(t0), obs.A("in", s.Data.N), obs.A("out", k), obs.A("transfer_dims", s.Data.D))
	return nn
}

// Compile-time interface checks for the traced searchers.
var (
	_ ContextSearcher = (*Standard)(nil)
	_ ContextSearcher = (*Cascade)(nil)
	_ CeilingSearcher = (*Cascade)(nil)
	_ AppendSearcher  = (*Cascade)(nil)
	_ Preprocessor    = (*Cascade)(nil)
)
