package knn

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

// dropLazy removes the lazy first stage from a cascade: what is left is the
// cascade as it was before its payloads had a digest — prepare sweeps, the
// walk reads an exact column. It is the reference side of the lazy-vs-eager
// differential and exists only here; nothing outside a test can ask for it.
func dropLazy(t *testing.T, c *Cascade) {
	t.Helper()
	if c.lazy == nil {
		t.Fatalf("%s leads with no lazy stage", c.name)
	}
	switch s := c.stages[0].(type) {
	case *fnnFilter:
		s.lazy = false
	case *edStage:
		s.lazy = false
	default:
		t.Fatalf("%s: lazy stage of type %T has no row in dropLazy", c.name, s)
	}
	c.lazy = nil
}

// lazyBuilds are the four constructors whose first stage turns lazy.
// SM-PIM comes a second time at one segment per dimension, LB_PIM-ED over
// the full rows. OST-PIM comes a second time with a four-dimension head: a
// bound that orders the rows but lies far below their distances, so few
// rows reach θ and many reach τ — the one way a search gets to the sweep
// after seeding.
var lazyBuilds = []struct {
	name  string
	build func(eng *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error)
}{
	{"FNN-PIM", func(e *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error) {
		return NewFNNPIM(e, data, defaultQuant(t), prof.FullN)
	}},
	{"Standard-PIM", func(e *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error) {
		return NewStandardPIM(e, data, defaultQuant(t), prof.FullN)
	}},
	{"SM-PIM", func(e *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error) {
		divs := pim.Divisors(data.D)
		return NewSMPIM(e, data, defaultQuant(t), divs[len(divs)-2], data.N)
	}},
	{"OST-PIM", func(e *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error) {
		return NewOSTPIM(e, data, defaultQuant(t), data.D/2, data.N)
	}},
	{"OST-PIM head 4", func(e *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error) {
		return NewOSTPIM(e, data, defaultQuant(t), 4, data.N)
	}},
	{"SM-PIM full", func(e *pim.Engine, data *vec.Matrix, prof dataset.Profile, t *testing.T) (*Cascade, error) {
		c, err := NewSMPIM(e, data, defaultQuant(t), data.D, data.N)
		if err == nil && c.S() != data.D {
			t.Fatalf("SM-PIM at %d dims shrank to %d segments", data.D, c.S())
		}
		return c, err
	}},
}

func sameMeters(t *testing.T, what string, got, want *arch.Meter) {
	t.Helper()
	if !reflect.DeepEqual(got.Functions(), want.Functions()) {
		t.Fatalf("%s: meter buckets %v, eager %v", what, got.Functions(), want.Functions())
	}
	for _, fn := range want.Functions() {
		if got.Get(fn) != want.Get(fn) {
			t.Fatalf("%s: bucket %s is %+v, eager %+v", what, fn, got.Get(fn), want.Get(fn))
		}
	}
}

// TestLazyMatchesEager is the differential the digest rests on: a cascade
// that starts from upper-bounded dots and tightens only what its threshold
// cannot rule out returns the neighbours, the per-stage counts and every
// meter bucket of the same cascade sweeping every payload for every query —
// on all eight dataset profiles, with duplicated rows so ties straddle the
// k-th place, at k below, at and above n, uncapped and capped by a ceiling
// the rows tie on — and between them the searches leave the first stage
// every way there is.
func TestLazyMatchesEager(t *testing.T) {
	const distinct, copies = 100, 4
	exits := map[string]int{}
	ctx := context.Background()
	for _, prof := range dataset.Profiles {
		ds := dataset.Generate(prof, distinct, 19)
		data, queries := duplicated(ds.X, distinct, copies), ds.Queries(3, 20)
		n := data.N
		for _, b := range lazyBuilds {
			lazy, err := b.build(newEngine(t), data, prof, t)
			if err != nil {
				t.Fatalf("%s on %s: %v", b.name, prof.Name, err)
			}
			eager, err := b.build(newEngine(t), data, prof, t)
			if err != nil {
				t.Fatal(err)
			}
			dropLazy(t, eager)
			for _, k := range []int{1, 10, n - 1, n, n + 5} {
				for qi := 0; qi < queries.N; qi++ {
					// Uncapped, then capped where the answer's duplicated
					// rows tie, as wave 2 of exact routing caps a shard.
					ceiling := math.Inf(1)
					for pass := 0; pass < 2; pass++ {
						what := fmt.Sprintf("%s on %s, k=%d, query %d, ceiling %v", b.name, prof.Name, k, qi, ceiling)
						mGot, mWant := arch.NewMeter(), arch.NewMeter()
						got := lazy.SearchCeiling(ctx, queries.Row(qi), k, ceiling, mGot)
						want := eager.SearchCeiling(ctx, queries.Row(qi), k, ceiling, mWant)
						sameNeighbors(t, what, got, want)
						if !reflect.DeepEqual(lazy.LastStages(), eager.LastStages()) {
							t.Fatalf("%s: stages %+v, eager %+v", what, lazy.LastStages(), eager.LastStages())
						}
						sameMeters(t, what, mGot, mWant)
						exits[lazy.lazy.exit]++
						ceiling = want[len(want)/2].Dist
					}
				}
			}
		}
	}
	t.Logf("first-stage exits: %v", exits)
	for _, exit := range []string{exitLazy, exitTheta, exitTau} {
		if exits[exit] == 0 {
			t.Errorf("no search left its first stage by %q: %v", exit, exits)
		}
	}
	if exits[exitEager] != 0 {
		t.Errorf("%d lazy searches were answered eagerly: the digest refused a quantized query", exits[exitEager])
	}
}

// TestNoDigestNoLazyStage pins where the capability is absent: under a
// fault model and in simulate mode no payload is digested, so the same
// constructors build cascades with no lazy stage, and so do the rows left
// eager on a healthy exact array.
func TestNoDigestNoLazyStage(t *testing.T) {
	data, _ := testData(t, 64, 32)
	prof := dataset.Profile{FullN: data.N}
	sim, err := pim.NewEngine(arch.Default(), pim.ModeSimulate)
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]func() *pim.Engine{
		"faulty":   func() *pim.Engine { return faultyEngine(t, 5) },
		"simulate": func() *pim.Engine { return sim },
	} {
		for _, b := range lazyBuilds[:4] { // each under payload names of its own
			c, err := b.build(eng(), data, prof, t)
			if err != nil {
				t.Fatalf("%s, %s: %v", name, b.name, err)
			}
			if c.lazy != nil {
				t.Fatalf("%s array: %s leads with a lazy stage", name, b.name)
			}
		}
	}
	approx, err := NewApproxPIM(newEngine(t), data, defaultQuant(t), data.N)
	if err != nil {
		t.Fatal(err)
	}
	if approx.lazy != nil || approx.stages[0].(*approxRow).lazy {
		t.Fatal("Approx-PIM, whose column is its answer, leads with a lazy stage")
	}
	// A PIM stage behind another stage is consulted row by row: eager.
	lead, err := newFNNFilter(newEngine(t), data, defaultQuant(t), 8, "lead")
	if err != nil {
		t.Fatal(err)
	}
	second, err := newFNNFilter(newEngine(t), data, defaultQuant(t), 16, "second")
	if err != nil {
		t.Fatal(err)
	}
	if c := newCascade(data, "two-pim", lead, second); c.lazy == nil || c.lazy.lazyStage != lazyStage(lead) || !lead.lazy || second.lazy {
		t.Fatalf("two PIM stages: lazy stage %v, lead lazy %v, second lazy %v", c.lazy, lead.lazy, second.lazy)
	}
}

// TestTightenMatchesLBInto pins the two halves of the lazy column to the
// exact one for every lazy stage type: the digest's column under-estimates
// it entry by entry — in floating point, which is what lets the walk prune
// on it — and tighten writes lbInto's value, to the bit, over exact dots.
func TestTightenMatchesLBInto(t *testing.T) {
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 120, 31)
	data, queries := ds.X, ds.Queries(4, 32)
	all := make([]int, data.N)
	for i := range all {
		all[i] = i
	}
	seen := map[string]bool{}
	for _, b := range lazyBuilds {
		c, err := b.build(newEngine(t), data, prof, t)
		if err != nil {
			t.Fatal(err)
		}
		st := c.lazy.lazyStage
		seen[fmt.Sprintf("%T", st)] = true
		var m memo
		for qi := 0; qi < queries.N; qi++ {
			m.reset(queries.Row(qi))
			if err := st.prepare(&m, nil); err != nil {
				t.Fatal(err)
			}
			if !st.isLoose() {
				t.Fatalf("%s: the digest refused query %d", b.name, qi)
			}
			loose, tightened, exact := make([]float64, data.N), make([]float64, data.N), make([]float64, data.N)
			st.lbInto(loose)
			copy(tightened, loose)
			st.tighten(all, tightened)
			if err := st.sweep(nil); err != nil {
				t.Fatal(err)
			}
			st.lbInto(exact)
			below := 0
			for i := range exact {
				if !(loose[i] <= exact[i]) {
					t.Fatalf("%s query %d row %d: digest bound %v above the exact bound %v", b.name, qi, i, loose[i], exact[i])
				}
				if loose[i] < exact[i] {
					below++
				}
				if math.Float64bits(tightened[i]) != math.Float64bits(exact[i]) {
					t.Fatalf("%s query %d row %d: tighten wrote %v (%016x), lbInto %v (%016x)", b.name, qi, i,
						tightened[i], math.Float64bits(tightened[i]), exact[i], math.Float64bits(exact[i]))
				}
			}
			if below == 0 {
				t.Fatalf("%s query %d: no digest bound is below its exact bound: the column was never loose", b.name, qi)
			}
		}
	}
	for _, typ := range []string{"*knn.fnnFilter", "*knn.edStage"} {
		if !seen[typ] {
			t.Fatalf("no lazy stage of type %s was tested", typ)
		}
	}
}
