package knn_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/dataset"
	"pimmine/internal/dbscan"
	"pimmine/internal/join"
	"pimmine/internal/knn"
	"pimmine/internal/motif"
	"pimmine/internal/obs"
	"pimmine/internal/outlier"
	"pimmine/internal/pim"
	"pimmine/internal/plan"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

var update = flag.Bool("update", false, "rewrite testdata/cascade.golden from the code under test")

// TestCascadeTranscript pins what the ED-family searchers and the four
// LB_PIM-ED mining tasks compute, to the bit and to the counter: every
// neighbour as (index, Float64bits), every meter bucket's full
// arch.Counters, LastStages() and the traced span-name tree. The golden
// was written by the seven hand-written scan loops this package used to
// hold (one per searcher) and by the tasks' private filter copies, and is
// committed unchanged by the refactor onto knn.Cascade / knn.EDFilter —
// a diff here means the one loop no longer computes what the seven did.
// Durations are left out: they are the only thing a span carries that a
// rerun does not reproduce.
func TestCascadeTranscript(t *testing.T) {
	var b strings.Builder
	test := dataset.Generate(dataset.Profile{Name: "test", FullN: 300, D: 64, Clusters: 8, Correlation: 0.8, Spread: 0.1}, 300, 42)
	searcherTranscript(t, &b, "test-300x64", test.X, test.Queries(5, 43).Slice(0, 3), test.X.N)
	msdProf, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	msd := dataset.Generate(msdProf, 500, 7)
	searcherTranscript(t, &b, "msd-500x420", msd.X, msd.Queries(3, 8), msdProf.FullN/4)
	taskTranscript(t, &b)

	path := filepath.Join("testdata", "cascade.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update at a commit whose output is trusted)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript diverges from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript has %d lines, %s has %d", len(gl), path, len(wl))
	}
}

// searcherTranscript runs the seven variants plus FNN-PIM-optimize over
// one dataset, each on its own array.
func searcherTranscript(t *testing.T, b *strings.Builder, label string, data, queries *vec.Matrix, capacityN int) {
	t.Helper()
	const k = 10
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	levels := bound.FNNLevels(data.D)
	build := []func(*pim.Engine) (knn.Searcher, error){
		func(*pim.Engine) (knn.Searcher, error) { return knn.NewOST(data, data.D/2) },
		func(*pim.Engine) (knn.Searcher, error) { return knn.NewSM(data, levels[2]) },
		func(*pim.Engine) (knn.Searcher, error) { return knn.NewFNN(data) },
		func(e *pim.Engine) (knn.Searcher, error) { return knn.NewStandardPIM(e, data, q, capacityN) },
		func(e *pim.Engine) (knn.Searcher, error) { return knn.NewOSTPIM(e, data, q, data.D/2, capacityN) },
		func(e *pim.Engine) (knn.Searcher, error) { return knn.NewSMPIM(e, data, q, levels[2], capacityN) },
		func(e *pim.Engine) (knn.Searcher, error) { return knn.NewFNNPIM(e, data, q, capacityN) },
		func(e *pim.Engine) (knn.Searcher, error) {
			// The PIM bound at the Theorem 4 s, then the finest host level.
			s := e.Model().ChooseS(capacityN, pim.Divisors(data.D), 2)
			return knn.FromPlan(plan.Plan{Bounds: []plan.Bound{
				{Family: "FNN", PIM: true, Segs: s},
				{Family: "FNN", Segs: levels[2]},
			}}, e, data, q)
		},
	}
	for _, mk := range build {
		s, err := mk(newEngine(t))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "== %s %s\n", label, s.Name())
		if p, ok := s.(knn.Preprocessor); ok {
			m := arch.NewMeter()
			p.RecordPreprocessing(m)
			writeMeter(b, "preprocessing", m)
		}
		for qi := 0; qi < queries.N; qi++ {
			m := arch.NewMeter()
			nn := s.Search(queries.Row(qi), k, m)
			fmt.Fprintf(b, "query %d\n", qi)
			for _, nb := range nn {
				fmt.Fprintf(b, "  nn %d %016x\n", nb.Index, math.Float64bits(nb.Dist))
			}
			writeMeter(b, "meter", m)
			for _, st := range s.(knn.Stager).LastStages() {
				fmt.Fprintf(b, "  stage %+v\n", st)
			}
		}
		// One traced run of query 0: same answer, same counters, and the
		// span-name tree under the test's root.
		tr := obs.NewTracer(1, 1)
		ctx, root := tr.Start(context.Background(), "root")
		m := arch.NewMeter()
		nn := knn.SearchTraced(ctx, s, queries.Row(0), k, m)
		root.End()
		plain := s.Search(queries.Row(0), k, arch.NewMeter())
		for i := range plain {
			if nn[i] != plain[i] {
				t.Fatalf("%s %s: traced neighbour %d is %+v, untraced %+v", label, s.Name(), i, nn[i], plain[i])
			}
		}
		writeMeter(b, "traced meter", m)
		for _, line := range strings.Split(strings.TrimRight(tr.Recent(1)[0].Render(), "\n"), "\n")[1:] {
			if i := strings.Index(line, "  ["); i >= 0 {
				line = line[:i]
			}
			if i := strings.Index(line, " ("); i >= 0 {
				line = line[:i]
			}
			fmt.Fprintf(b, "  span %s\n", line)
		}
	}
}

// taskTranscript records the meters of one PIM run of each mining task
// that consults LB_PIM-ED before every exact distance.
func taskTranscript(t *testing.T, b *strings.Builder) {
	t.Helper()
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(dataset.Profile{Name: "tasks", FullN: 160, D: 32, Clusters: 4, Correlation: 0.8, Spread: 0.05}, 160, 11)
	data, outer := ds.X, ds.Queries(6, 12)
	rng := rand.New(rand.NewSource(5))
	series := make([]float64, 220)
	v := 0.0
	for i := range series {
		v += rng.NormFloat64()
		series[i] = v
	}
	win, _, err := motif.Windows(series, 16)
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Each run gets its own array, so every transcript starts from a cold
	// filter.
	detector := func() *outlier.Detector {
		d, err := outlier.NewDetectorPIM(newEngine(t), data, q, data.N)
		must(err)
		return d
	}
	joiner := func() *join.Joiner {
		j, err := join.NewJoinerPIM(newEngine(t), data, q, data.N)
		must(err)
		return j
	}
	clusterer := func() *dbscan.Clusterer {
		c, err := dbscan.NewPIM(newEngine(t), data, q, data.N)
		must(err)
		return c
	}
	finder := func() *motif.Finder {
		f, err := motif.NewFinderPIM(newEngine(t), win, q, win.N)
		must(err)
		return f
	}
	for _, task := range []struct {
		name string
		run  func(m *arch.Meter) error
	}{
		{"outlier.TopN", func(m *arch.Meter) error { _, err := detector().TopN(5, 3, m); return err }},
		{"outlier.DB", func(m *arch.Meter) error { _, err := detector().DB(0.3, 0.05, m); return err }},
		{"join.KNN", func(m *arch.Meter) error { _, err := joiner().KNN(outer, 4, false, m); return err }},
		{"join.KNN-self", func(m *arch.Meter) error { _, err := joiner().KNN(data, 4, true, m); return err }},
		{"join.Eps", func(m *arch.Meter) error { _, err := joiner().Eps(outer, 0.3, false, m); return err }},
		{"dbscan.Run", func(m *arch.Meter) error { _, err := clusterer().Run(0.3, 4, m); return err }},
		{"motif.Top", func(m *arch.Meter) error { _, err := finder().Top(m); return err }},
		{"motif.TopK", func(m *arch.Meter) error { _, err := finder().TopK(3, m); return err }},
		{"motif.Discord", func(m *arch.Meter) error { _, err := finder().Discord(m); return err }},
	} {
		m := arch.NewMeter()
		must(task.run(m))
		fmt.Fprintf(b, "== task %s\n", task.name)
		writeMeter(b, "meter", m)
	}
}

func writeMeter(b *strings.Builder, what string, m *arch.Meter) {
	for _, fn := range m.Functions() {
		fmt.Fprintf(b, "  %s %s %+v\n", what, fn, m.Get(fn))
	}
}

func newEngine(t *testing.T) *pim.Engine {
	t.Helper()
	eng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}
