package knn

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

// rowWalk is the walk one row at a time, the reference the grouped walk
// replays: over c's own stages, prepared here, and its column, it visits
// the k smallest (bound, index) first and then the rest in index order,
// taking each row through every later stage and the exact step before
// the next is looked at. It charges meter as Cascade.walk does and
// returns the answer and the per-stage counts.
func rowWalk(t *testing.T, c *Cascade, q []float64, k int, ceiling float64, meter *arch.Meter) ([]vec.Neighbor, []StageStat) {
	t.Helper()
	if c.lazy {
		t.Fatalf("%s: the row walk reads the swept column, not a lazy one", c.name)
	}
	w := c.newWalk()
	w.q = q
	m := memoFor(context.Background(), q, &w.own)
	for _, st := range w.stages {
		if err := st.prepare(m, meter); err != nil {
			t.Fatal(err)
		}
	}
	top := vec.NewTopK(k)
	threshold := func() float64 { return min(top.Threshold(), ceiling) }
	passed := make([]int, len(c.stages))
	visit := func(i int, b float64) {
		for si, st := range w.stages {
			if si > 0 {
				if b = st.lb(i); b > threshold() {
					return
				}
			}
			passed[si]++
		}
		if c.exact.dist != nil {
			b = c.exact.dist(w, i)
		}
		if b <= ceiling {
			top.Push(i, b)
		}
	}

	if len(c.stages) == 0 {
		for i := 0; i < c.n; i++ {
			visit(i, 0)
		}
	} else {
		col := w.column
		w.stages[0].lbInto(col)
		order := make([]int, c.n)
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int {
			switch {
			case col[a] < col[b]:
				return -1
			case col[a] > col[b]:
				return 1
			}
			return a - b
		})
		seeded := make([]bool, c.n)
		for _, i := range order[:min(k, c.n)] {
			if col[i] > ceiling {
				break
			}
			seeded[i] = true
			visit(i, col[i])
		}
		for i, b := range col {
			if !seeded[i] && !(b > threshold()) {
				visit(i, b)
			}
		}
	}

	var stats []StageStat
	survivors := c.n
	for si, st := range c.stages {
		st.cost(meter.C(st.name()), int64(survivors))
		stats = append(stats, StageStat{Name: st.name(), In: survivors, Out: passed[si], TransferDims: st.operands()})
		survivors = passed[si]
	}
	if c.exact.fn != "" {
		c.exact.cost(meter.C(c.exact.fn), int64(survivors))
		stats = append(stats, StageStat{Name: c.exact.fn, In: survivors, Out: k, TransferDims: c.exact.dims})
	}
	other := meter.C(arch.FuncOther)
	other.Ops += int64(c.n)
	if len(c.stages) > 0 {
		other.Ops += int64(c.n)
	}
	return top.Results(), stats
}

// TestGroupedWalkMatchesRowWalk is the differential the grouped walk rests
// on: taking candidates four at a time through the later stages and the
// exact step, then replaying the decisions row by row, returns the row
// walk's answer to the bit and to the index, its per-stage counts and
// every meter bucket — for every cascade of TestWalkOrderInvariant plus
// Approx-PIM, lazy as built and eager, on every array. The duplicated rows
// tie five ways, so at k = 1, 3 and 7 the threshold falls inside a group
// and on a tie; the ceilings are those of TestCeilingMatchesUncapped.
func TestGroupedWalkMatchesRowWalk(t *testing.T) {
	data, queries := walkData(t)
	n := data.N
	cases := append(walkCascades(t, data), walkCase{"Approx-PIM", nil, func(e *pim.Engine) (Searcher, error) {
		return NewApproxPIM(e, data, defaultQuant(t), n)
	}})
	ctx := context.Background()
	ladder := func(want []vec.Neighbor) []float64 {
		if len(want) == 0 {
			return []float64{math.Inf(1)}
		}
		return []float64{-1, 0, want[len(want)/2].Dist, want[len(want)-1].Dist, math.Inf(1)}
	}
	checked := 0
	for engName, newEng := range walkEngines(t) {
		for _, tc := range cases {
			for _, eager := range []bool{false, true} {
				build := func() *Cascade {
					s, err := tc.build(newEng())
					if err != nil {
						t.Fatal(err)
					}
					return s.(*Cascade)
				}
				c, ref := build(), build()
				if ref.lazy {
					dropLazy(t, ref)
				}
				name := tc.name
				if eager {
					if !c.lazy {
						continue
					}
					dropLazy(t, c)
					name += " (eager)"
				}
				for _, k := range []int{1, 3, 7, n - 1, n, n + 5} {
					for qi := 0; qi < queries.N; qi++ {
						q := queries.Row(qi)
						uncapped, _ := rowWalk(t, ref, q, k, math.Inf(1), arch.NewMeter())
						for _, ceiling := range ladder(uncapped) {
							what := fmt.Sprintf("%s array, %s, k=%d, query %d, ceiling %v", engName, name, k, qi, ceiling)
							mGot, mWant := arch.NewMeter(), arch.NewMeter()
							got := c.SearchCeiling(ctx, q, k, ceiling, mGot)
							want, stats := rowWalk(t, ref, q, k, ceiling, mWant)
							sameNeighbors(t, what, got, want)
							if !reflect.DeepEqual(c.LastStages(), stats) {
								t.Fatalf("%s: stages %+v, the row walk's %+v", what, c.LastStages(), stats)
							}
							sameMeters(t, what, mGot, mWant)
							checked++
						}
					}
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}
