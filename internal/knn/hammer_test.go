package knn

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

// hammerWorkers is how many goroutines share one searcher in
// TestConcurrentSearchesHammer.
const hammerWorkers = 8

// hammerCase is one searcher shared by every goroutine of the hammer:
// search answers job j into meter, and stages, where the searcher reports
// them, reads its LastStages.
type hammerCase struct {
	name   string
	search func(j int, meter *arch.Meter) []vec.Neighbor
	stages func() []StageStat
}

// TestConcurrentSearchesHammer shares one searcher of every kind among
// eight goroutines that answer the same jobs a sequential run answered —
// FNN-PIM lazy on an exact array, in simulate mode and on a faulty array,
// SM-PIM, host FNN, Standard, UB_PIM-CS, HD-PIM and EDFilter.Refine. Every
// answer must equal the sequential one to the bit, the goroutines' meters
// merged must equal the sequential run's, and LastStages afterwards must be
// the stats of one whole walk of the sequential run, never a mix of two.
// Under -race it is also the check that no two searches share scratch.
func TestConcurrentSearchesHammer(t *testing.T) {
	const n, d, k, rounds = 400, 64, 7, 3
	prof := dataset.Profile{Name: "hammer", FullN: n, D: d, Clusters: 8, Correlation: 0.8, Spread: 0.1}
	ds := dataset.Generate(prof, n, 42)
	data, queries := ds.X, ds.Queries(12, 44)
	jobs := queries.N * rounds
	query := func(j int) []float64 { return queries.Row(j % queries.N) }
	q := defaultQuant(t)
	sim, err := pim.NewEngine(arch.Default(), pim.ModeSimulate)
	if err != nil {
		t.Fatal(err)
	}

	var cases []hammerCase
	cascade := func(name string, c *Cascade, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases, hammerCase{name, func(j int, m *arch.Meter) []vec.Neighbor {
			return c.Search(query(j), k, m)
		}, c.LastStages})
	}
	c, err := NewFNNPIM(newEngine(t), data, q, n)
	if err == nil && !c.lazy {
		t.Fatal("FNN-PIM on an exact array leads with no lazy stage")
	}
	cascade("FNN-PIM", c, err)
	c, err = NewFNNPIM(sim, data, q, n)
	cascade("FNN-PIM simulate", c, err)
	c, err = NewFNNPIM(faultyEngine(t, 91), data, q, n)
	cascade("FNN-PIM faulty", c, err)
	c, err = NewSMPIM(newEngine(t), data, q, 16, n)
	cascade("SM-PIM", c, err)
	c, err = NewFNN(data)
	cascade("FNN", c, err)
	c, err = NewSimPIM(newEngine(t), data, q, measure.CS, n)
	cascade("Standard-PIM CS", c, err)

	std := NewStandard(data)
	cases = append(cases, hammerCase{"Standard", func(j int, m *arch.Meter) []vec.Neighbor {
		return std.Search(query(j), k, m)
	}, nil})

	hasher := lsh.NewHasher(d, 128, 8)
	codes, qCodes := hasher.HashAll(data), hasher.HashAll(queries)
	hp, err := NewHDPIM(newEngine(t), codes, n)
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, hammerCase{"HD-PIM", func(j int, m *arch.Meter) []vec.Neighbor {
		return hp.Search(qCodes[j%queries.N], k, m)
	}, hp.c.LastStages})

	f, err := NewEDFilter(newEngine(t), data, q, n, "hammer/points")
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, hammerCase{"EDFilter.Refine", func(j int, m *arch.Meter) []vec.Neighbor {
		top := vec.NewTopK(k)
		push := func(i int, d float64) (float64, bool) {
			top.Push(i, d)
			return top.Threshold(), true
		}
		if err := f.Refine(data, query(j), 0, n, j%n, j%n+1, math.Inf(1), push, m); err != nil {
			t.Error(err)
		}
		return top.Results()
	}, nil})

	for _, tc := range cases {
		want, walks := make([][]vec.Neighbor, jobs), make([][]StageStat, jobs)
		seq := arch.NewMeter()
		for j := range jobs {
			want[j] = tc.search(j, seq)
			if tc.stages != nil {
				walks[j] = tc.stages()
			}
		}

		got, meters := make([][]vec.Neighbor, jobs), make([]*arch.Meter, hammerWorkers)
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := range meters {
			meters[w] = arch.NewMeter()
			wg.Add(1)
			go func(m *arch.Meter) {
				defer wg.Done()
				for j := int(next.Add(1) - 1); j < jobs; j = int(next.Add(1) - 1) {
					got[j] = tc.search(j, m)
				}
			}(meters[w])
		}
		wg.Wait()

		merged := arch.NewMeter()
		for _, m := range meters {
			merged.Merge(m)
		}
		for j := range jobs {
			what := fmt.Sprintf("%s, job %d", tc.name, j)
			if len(got[j]) != len(want[j]) {
				t.Fatalf("%s: %d neighbours, the sequential run %d", what, len(got[j]), len(want[j]))
			}
			for i := range want[j] {
				if got[j][i].Index != want[j][i].Index || math.Float64bits(got[j][i].Dist) != math.Float64bits(want[j][i].Dist) {
					t.Fatalf("%s: neighbour %d is %+v, the sequential run's %+v", what, i, got[j][i], want[j][i])
				}
			}
		}
		sameMeters(t, tc.name+": merged meters against the sequential run's", merged, seq)
		if tc.stages == nil {
			continue
		}
		last, whole := tc.stages(), false
		for _, st := range walks {
			whole = whole || reflect.DeepEqual(last, st)
		}
		if !whole {
			t.Fatalf("%s: LastStages %+v is no walk's stats", tc.name, last)
		}
	}
}
