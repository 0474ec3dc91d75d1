package knn

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
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
// It drops the walks c keeps, which lead lazily.
func dropLazy(t *testing.T, c *Cascade) {
	t.Helper()
	if !c.lazy {
		t.Fatalf("%s leads with no lazy stage", c.name)
	}
	c.lazy = false
	c.walks.free = nil
}

// lastWalk returns the walk c's last search ran on: the walk it took back
// last, which a sequential caller's next search takes out again.
func lastWalk(t *testing.T, c *Cascade) *walk {
	t.Helper()
	if len(c.walks.free) == 0 {
		t.Fatalf("%s keeps no walk: it has run no search", c.name)
	}
	return c.walks.free[len(c.walks.free)-1]
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
						exits[lastWalk(t, lazy).exit]++
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

// TestThreePrecisionGathers pins the mechanism of the three-precision walk
// by counts, on the shape of one wire-knn shard — 5000 MSD rows, FNN-PIM
// sized for a quarter of the full-scale cardinality (s = 210), k = 10 —
// with and without a ceiling: the ⌊σ⌋ payload is gathered for at most a
// quarter of the rows the ⌊µ⌋ payload is, while neighbours, per-stage
// counts and every meter bucket stay the eager cascade's. A walk that
// gathers both dots of every row it lists reads the two counts equal.
func TestThreePrecisionGathers(t *testing.T) {
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 5000, 11)
	data, queries := ds.X, ds.Queries(12, 11)
	const shards, k = 4, 10
	capacity := (prof.FullN + shards - 1) / shards
	lazy, err := NewFNNPIM(newEngine(t), data, defaultQuant(t), capacity)
	if err != nil {
		t.Fatal(err)
	}
	if lazy.S() != 210 {
		t.Fatalf("FNN-PIM at shard capacity %d chose s = %d, not the wire-knn shard's 210", capacity, lazy.S())
	}
	eager, err := NewFNNPIM(newEngine(t), data, defaultQuant(t), capacity)
	if err != nil {
		t.Fatal(err)
	}
	dropLazy(t, eager)
	mu, sigma := lazy.name+"/mu", lazy.name+"/sigma"
	std, ctx := NewStandard(data), context.Background()
	for _, capped := range []bool{false, true} {
		stop := CountDotRows()
		exits := map[string]int{}
		for qi := 0; qi < queries.N; qi++ {
			ceiling := math.Inf(1)
			if capped {
				ceiling = std.Search(queries.Row(qi), k, arch.NewMeter())[k/2].Dist
			}
			what := fmt.Sprintf("query %d, ceiling %v", qi, ceiling)
			mGot, mWant := arch.NewMeter(), arch.NewMeter()
			got := lazy.SearchCeiling(ctx, queries.Row(qi), k, ceiling, mGot)
			want := eager.SearchCeiling(ctx, queries.Row(qi), k, ceiling, mWant)
			sameNeighbors(t, what, got, want)
			if !reflect.DeepEqual(lazy.LastStages(), eager.LastStages()) {
				t.Fatalf("%s: stages %+v, eager %+v", what, lazy.LastStages(), eager.LastStages())
			}
			sameMeters(t, what, mGot, mWant)
			exits[lastWalk(t, lazy).exit]++
		}
		counts := stop()
		t.Logf("capped %v: rows gathered per walk: ⌊µ⌋ %.1f, ⌊σ⌋ %.1f; exits %v", capped,
			float64(counts[mu])/float64(queries.N), float64(counts[sigma])/float64(queries.N), exits)
		if exits[exitLazy] == 0 || counts[mu] == 0 {
			t.Fatalf("capped %v: no walk was carried by the digest (exits %v, gathers %v)", capped, exits, counts)
		}
		if 4*counts[sigma] > counts[mu] {
			t.Fatalf("capped %v: %d ⌊σ⌋ rows gathered for %d ⌊µ⌋ rows, more than a quarter", capped, counts[sigma], counts[mu])
		}
	}
}

// TestCeilingOnPartialBound caps FNN-PIM searches, at k = 1, 2 and 10
// over duplicated rows, exactly at the partial bound — exact ⌊µ⌋ dot,
// ⌊σ⌋ digest — of every row whose partial bound lies below its exact one.
// Where that row is listed at θ₁ = ceiling but is not among the k smallest
// partial bounds, θ₂ is the ceiling and the walk must still make the row
// exact: left partial, its entry ties the ceiling and it is visited where
// the eager cascade prunes it. Answers, per-stage counts and every meter
// bucket are compared with the eager cascade's.
func TestCeilingOnPartialBound(t *testing.T) {
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 100, 5)
	data, queries := duplicated(ds.X, 100, 4), ds.Queries(6, 5)
	lazy, err := NewFNNPIM(newEngine(t), data, defaultQuant(t), prof.FullN)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := NewFNNPIM(newEngine(t), data, defaultQuant(t), prof.FullN)
	if err != nil {
		t.Fatal(err)
	}
	dropLazy(t, eager)
	st := lazy.newWalk().lazy
	ctx := context.Background()
	all := make([]int, data.N)
	tested := 0
	for qi := 0; qi < queries.N; qi++ {
		var m memo
		m.reset(queries.Row(qi))
		if err := st.prepare(&m, nil); err != nil {
			t.Fatal(err)
		}
		part, exact := make([]float64, data.N), make([]float64, data.N)
		st.lbInto(part)
		for i := range all {
			all[i] = i
		}
		st.tighten(all, part, math.Inf(-1))
		if err := st.sweep(nil); err != nil {
			t.Fatal(err)
		}
		st.lbInto(exact)
		for i := range data.N {
			if !(part[i] < exact[i]) {
				continue
			}
			tested++
			for _, k := range []int{1, 2, 10} {
				what := fmt.Sprintf("query %d, k=%d, capped at row %d's partial bound %v", qi, k, i, part[i])
				mGot, mWant := arch.NewMeter(), arch.NewMeter()
				got := lazy.SearchCeiling(ctx, queries.Row(qi), k, part[i], mGot)
				want := eager.SearchCeiling(ctx, queries.Row(qi), k, part[i], mWant)
				sameNeighbors(t, what, got, want)
				if !reflect.DeepEqual(lazy.LastStages(), eager.LastStages()) {
					t.Fatalf("%s: stages %+v, eager %+v", what, lazy.LastStages(), eager.LastStages())
				}
				sameMeters(t, what, mGot, mWant)
			}
		}
	}
	if tested == 0 {
		t.Fatal("no row's partial bound lies below its exact bound")
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
			if c.lazy {
				t.Fatalf("%s array: %s leads with a lazy stage", name, b.name)
			}
		}
	}
	approx, err := NewApproxPIM(newEngine(t), data, defaultQuant(t), data.N)
	if err != nil {
		t.Fatal(err)
	}
	if approx.lazy || approx.newWalk().stages[0].(*approxRow).lazy {
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
	c := newCascade(data, "two-pim", lead, second)
	w := c.newWalk()
	if !c.lazy || w.lazy == nil || w.lazy != w.stages[0] || !w.stages[0].(*fnnFilter).lazy || w.stages[1].(*fnnFilter).lazy {
		t.Fatalf("two PIM stages: lazy %v, lazy stage %v, lead lazy %v, second lazy %v",
			c.lazy, w.lazy, w.stages[0].(*fnnFilter).lazy, w.stages[1].(*fnnFilter).lazy)
	}
}

// TestTightenMatchesLBInto pins the lazy column to the exact one for every
// lazy stage type: the digest's column under-estimates it entry by entry —
// in floating point, which is what lets the walk prune on it — and tighten,
// at thresholds from −Inf through quantiles of the exact column to +Inf,
// gathers every listed row's first dot and the other payload's dot only
// for the rows it returns: a prefix of the listed rows, in their order,
// whose entries are lbInto's over exact dots, to the bit. Every other
// listed entry is left an under-estimate above the threshold, never below
// where it started. At some finite threshold LB_PIM-FNN must return a
// strict subset and leave a row below its exact bound — its ⌊σ⌋ gather
// skipped — and, given the rows it left partial again, gather their ⌊σ⌋
// dots alone; a stage of one payload never leaves a row out.
func TestTightenMatchesLBInto(t *testing.T) {
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 120, 31)
	data, queries := ds.X, ds.Queries(4, 32)
	seen, partial := map[string]bool{}, map[string]int{}
	for _, b := range lazyBuilds {
		c, err := b.build(newEngine(t), data, prof, t)
		if err != nil {
			t.Fatal(err)
		}
		st := c.newWalk().lazy
		typ := fmt.Sprintf("%T", st)
		seen[typ] = true
		var m memo
		prepare := func(qi int) {
			m.reset(queries.Row(qi))
			if err := st.prepare(&m, nil); err != nil {
				t.Fatal(err)
			}
			if !st.isLoose() {
				t.Fatalf("%s: the digest refused query %d", b.name, qi)
			}
		}
		for qi := 0; qi < queries.N; qi++ {
			prepare(qi)
			loose, exact := make([]float64, data.N), make([]float64, data.N)
			st.lbInto(loose)
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
			}
			if below == 0 {
				t.Fatalf("%s query %d: no digest bound is below its exact bound: the column was never loose", b.name, qi)
			}
			sorted := slices.Clone(exact)
			slices.Sort(sorted)
			thresholds := []float64{math.Inf(-1), math.Inf(1)}
			for _, q := range []float64{0.01, 0.05, 0.25, 0.5, 0.9} {
				thresholds = append(thresholds, sorted[int(q*float64(len(sorted)-1))])
			}
			for _, thr := range thresholds {
				what := fmt.Sprintf("%s query %d threshold %v", b.name, qi, thr)
				prepare(qi)
				col := make([]float64, data.N)
				st.lbInto(col)
				rows := make([]int, data.N)
				for i := range rows {
					rows[i] = data.N - 1 - i // descending, so a kept order shows
				}
				listed := slices.Clone(rows)
				slices.Sort(listed)
				stop := CountDotRows()
				got := st.tighten(rows, col, thr)
				gathered := stop()
				wantGathered := map[string]int{}
				switch s := st.(type) {
				case *fnnFilter:
					wantGathered[s.muPay.Name] = len(rows)
					if len(got) > 0 {
						wantGathered[s.sgPay.Name] = len(got)
					}
				case *edStage:
					wantGathered[s.pay.Name] = len(rows)
				}
				if !reflect.DeepEqual(gathered, wantGathered) {
					t.Fatalf("%s: tighten gathered %v rows, want %v: each listed row's first dot, the rest only for rows made exact", what, gathered, wantGathered)
				}
				if len(got) > 0 && &got[0] != &rows[0] {
					t.Fatalf("%s: tighten returned rows that are not a prefix of its argument", what)
				}
				if !slices.IsSortedFunc(got, func(a, b int) int { return b - a }) {
					t.Fatalf("%s: tighten reordered the rows it made exact: %v", what, got)
				}
				exactRow := make([]bool, data.N)
				for _, i := range got {
					exactRow[i] = true
				}
				if slices.Sort(rows); !slices.Equal(rows, listed) {
					t.Fatalf("%s: tighten lost or repeated a listed row", what)
				}
				for i := range col {
					if exactRow[i] {
						if math.Float64bits(col[i]) != math.Float64bits(exact[i]) {
							t.Fatalf("%s row %d: tighten wrote %v (%016x), lbInto %v (%016x)", what, i,
								col[i], math.Float64bits(col[i]), exact[i], math.Float64bits(exact[i]))
						}
						continue
					}
					if !(thr < col[i] && col[i] <= exact[i] && loose[i] <= col[i]) {
						t.Fatalf("%s row %d: left at %v, not above the threshold and between the digest's %v and the exact %v",
							what, i, col[i], loose[i], exact[i])
					}
				}
				if math.IsInf(thr, 1) && len(got) != data.N {
					t.Fatalf("%s: %d of %d rows made exact", what, len(got), data.N)
				}
				if !math.IsInf(thr, 0) && len(got) < data.N {
					for i := range col {
						if !exactRow[i] && col[i] < exact[i] {
							partial[typ]++ // a row whose ⌊σ⌋ dot was not gathered
							break
						}
					}
				}
				// The rows left partial, listed again, are made exact from
				// their ⌊σ⌋ dots alone: no ⌊µ⌋ dot is gathered twice.
				if f, ok := st.(*fnnFilter); ok {
					var rest []int
					for i := range col {
						if !exactRow[i] {
							rest = append(rest, i)
						}
					}
					stop := CountDotRows()
					st.tighten(rest, col, math.Inf(1))
					if gathered, want := stop(), map[string]int{f.sgPay.Name: len(rest)}; len(rest) > 0 && !reflect.DeepEqual(gathered, want) {
						t.Fatalf("%s: listing the partial rows again gathered %v, want %v", what, gathered, want)
					}
					for i := range col {
						if math.Float64bits(col[i]) != math.Float64bits(exact[i]) {
							t.Fatalf("%s row %d: listed again, tighten wrote %v, lbInto %v", what, i, col[i], exact[i])
						}
					}
				}
			}
		}
	}
	for _, typ := range []string{"*knn.fnnFilter", "*knn.edStage"} {
		if !seen[typ] {
			t.Fatalf("no lazy stage of type %s was tested", typ)
		}
	}
	if partial["*knn.fnnFilter"] == 0 {
		t.Fatal("LB_PIM-FNN's tighten left no listed row below its exact bound at any threshold: its ⌊σ⌋ gather is never skipped")
	}
	if partial["*knn.edStage"] != 0 {
		t.Fatalf("a stage of one payload left %d listings partial", partial["*knn.edStage"])
	}
}
