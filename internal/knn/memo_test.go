package knn

import (
	"context"
	"math"
	"testing"

	"pimmine/internal/arch"
)

// TestMemoIdentityGuard: a cascade reads a QueryContext's memo only when
// the memo was made for the very query slice it is asked — the same
// backing array and the same length. Under a memo made for another query,
// or for a prefix of this one, it prepares the query itself, and answers
// and meters exactly as with no memo at all. The cascades cover every
// memoized feature: LB_FNN's statistics, LB_PIM-FNN's, and LB_PIM-ED's over
// the whole query, its head and its segment means.
func TestMemoIdentityGuard(t *testing.T) {
	t.Parallel()
	data, queries := testData(t, 300, 64)
	builds := []struct {
		name  string
		build func() (*Cascade, error)
	}{
		{"FNN", func() (*Cascade, error) { return NewFNN(data) }},
		{"FNN-PIM", func() (*Cascade, error) { return NewFNNPIM(newEngine(t), data, defaultQuant(t), data.N) }},
		{"SM-PIM", func() (*Cascade, error) { return NewSMPIM(newEngine(t), data, defaultQuant(t), 16, data.N) }},
		{"OST-PIM", func() (*Cascade, error) { return NewOSTPIM(newEngine(t), data, defaultQuant(t), 32, data.N) }},
		{"Approx-PIM", func() (*Cascade, error) { return NewApproxPIM(newEngine(t), data, defaultQuant(t), data.N) }},
	}
	exact := NewStandard(data)
	const k = 5
	for _, b := range builds {
		c, err := b.build()
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		for qi := 0; qi < queries.N; qi++ {
			q := queries.Row(qi)
			wantMeter := arch.NewMeter()
			want := c.Search(q, k, wantMeter)
			if b.name != "Approx-PIM" {
				assertSameNeighbors(t, b.name, want, exact.Search(q, k, arch.NewMeter()))
			}
			for _, made := range []struct {
				what string
				q    []float64
			}{
				{"another query", queries.Row((qi + 1) % queries.N)},
				{"a prefix of the query", q[:len(q)/2]},
				{"the query", q},
			} {
				qc := WithQuery(context.Background(), made.q)
				meter := arch.NewMeter()
				got := c.SearchCeiling(qc, q, k, math.Inf(1), meter)
				qc.Release()
				what := b.name + " under a memo made for " + made.what
				if len(got) != len(want) {
					t.Fatalf("%s: %d neighbours, want %d", what, len(got), len(want))
				}
				for i := range want {
					if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
						t.Fatalf("%s: neighbour %d is %+v, want %+v", what, i, got[i], want[i])
					}
				}
				sameMeters(t, what, meter, wantMeter)
			}
		}
	}
}
