package knn

import (
	"context"
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
// without every Searcher implementation changing.
func SearchTraced(ctx context.Context, s Searcher, q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	if cs, ok := s.(ContextSearcher); ok && obs.SpanFromContext(ctx) != nil {
		return cs.SearchCtx(ctx, q, k, meter)
	}
	return s.Search(q, k, meter)
}

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
	_ AppendSearcher  = (*Cascade)(nil)
	_ Preprocessor    = (*Cascade)(nil)
)
