package eval_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dbscan"
	"pimmine/internal/join"
	"pimmine/internal/motif"
	"pimmine/internal/outlier"
	"pimmine/internal/vec"
)

// TestMiningMeterGolden pins what every LB_PIM-ED mining task computes and
// what it charges, on the host path and on a clean PIM array: the full
// result (floats as Float64bits hex) and every meter bucket's full
// arch.Counters. The triple goldens pin results only and the figures show
// rounded milliseconds, so this transcript is what holds "same meters"
// when the tasks' filter-and-refine loop moves. Every task runs on its own
// freshly programmed array, built by concrete constructor.
//
// Regenerate with: go test ./internal/eval -run MiningMeterGolden -update
func TestMiningMeterGolden(t *testing.T) {
	ds := goldenDataset(t, 150, 16, 4, 0.1)
	data, outer := ds.X, ds.Queries(6, 43)
	q := goldenQuant(t)

	rng := rand.New(rand.NewSource(11))
	series := make([]float64, 260)
	v := 0.0
	for i := range series {
		v += rng.NormFloat64()
		series[i] = v
	}
	for i := 0; i < 12; i++ {
		p := 8 * math.Sin(float64(i)/2)
		series[40+i] = p
		series[180+i] = p + rng.NormFloat64()*0.02
	}
	win, _, err := motif.Windows(series, 12)
	if err != nil {
		t.Fatal(err)
	}

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	clusterer := func(pim bool) *dbscan.Clusterer {
		if !pim {
			return dbscan.New(data)
		}
		c, err := dbscan.NewPIM(cleanEngine(t), data, q, data.N)
		must(err)
		return c
	}
	joiner := func(pim bool) *join.Joiner {
		if !pim {
			return join.NewJoiner(data)
		}
		j, err := join.NewJoinerPIM(cleanEngine(t), data, q, data.N)
		must(err)
		return j
	}
	detector := func(pim bool) *outlier.Detector {
		if !pim {
			return outlier.NewDetector(data)
		}
		d, err := outlier.NewDetectorPIM(cleanEngine(t), data, q, data.N)
		must(err)
		return d
	}
	finder := func(pim bool) *motif.Finder {
		if !pim {
			return motif.NewFinder(win)
		}
		f, err := motif.NewFinderPIM(cleanEngine(t), win, q, win.N)
		must(err)
		return f
	}

	tasks := []struct {
		name string
		run  func(pim bool, b *strings.Builder, m *arch.Meter) error
	}{
		{"dbscan.Run", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			res, err := clusterer(pim).Run(0.115, 5, m)
			if err != nil {
				return err
			}
			fmt.Fprintf(b, "  clusters=%d core=%d labels=%v\n", res.Clusters, res.CorePoints, res.Labels)
			return nil
		}},
		{"join.KNN", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := joiner(pim).KNN(outer, 4, false, m)
			writeNeighbors(b, out)
			return err
		}},
		{"join.KNN-self", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := joiner(pim).KNN(data, 3, true, m)
			writeNeighbors(b, out)
			return err
		}},
		{"join.Eps", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := joiner(pim).Eps(outer, 0.35, false, m)
			writePairs(b, out)
			return err
		}},
		{"join.Eps-self", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := joiner(pim).Eps(data, 0.1, true, m)
			writePairs(b, out)
			return err
		}},
		{"outlier.DB", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := detector(pim).DB(0.12, 0.04, m)
			fmt.Fprintf(b, "  outliers=%v\n", out)
			return err
		}},
		{"outlier.TopN", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := detector(pim).TopN(6, 3, m)
			for _, o := range out {
				fmt.Fprintf(b, "  outlier %d %016x\n", o.Index, math.Float64bits(o.Score))
			}
			return err
		}},
		{"motif.Top", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			mo, err := finder(pim).Top(m)
			writeMotifs(b, []motif.Motif{mo})
			return err
		}},
		{"motif.TopK", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			out, err := finder(pim).TopK(3, m)
			writeMotifs(b, out)
			return err
		}},
		{"motif.Discord", func(pim bool, b *strings.Builder, m *arch.Meter) error {
			d, err := finder(pim).Discord(m)
			fmt.Fprintf(b, "  discord %d %016x\n", d.I, math.Float64bits(d.Dist))
			return err
		}},
	}
	var b strings.Builder
	for _, task := range tasks {
		for _, pim := range []bool{false, true} {
			path := "host"
			if pim {
				path = "pim"
			}
			fmt.Fprintf(&b, "== %s %s\n", task.name, path)
			m := arch.NewMeter()
			must(task.run(pim, &b, m))
			for _, fn := range m.Functions() {
				fmt.Fprintf(&b, "  meter %s %+v\n", fn, m.Get(fn))
			}
		}
	}

	path := filepath.Join("testdata", "mining_meters.golden")
	if *update {
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
		t.Fatalf("mining meter transcript drifted from %s\n%s", path, firstDiff(string(want), got))
	}
}

func writeNeighbors(b *strings.Builder, rows [][]vec.Neighbor) {
	for i, nbs := range rows {
		fmt.Fprintf(b, "  row %d", i)
		for _, nb := range nbs {
			fmt.Fprintf(b, " %d:%016x", nb.Index, math.Float64bits(nb.Dist))
		}
		b.WriteByte('\n')
	}
}

func writePairs(b *strings.Builder, pairs []join.Pair) {
	fmt.Fprintf(b, "  pairs=%d\n", len(pairs))
	for _, p := range pairs {
		fmt.Fprintf(b, "  pair %d %d %016x\n", p.R, p.S, math.Float64bits(p.DistSq))
	}
}

func writeMotifs(b *strings.Builder, ms []motif.Motif) {
	for _, mo := range ms {
		fmt.Fprintf(b, "  motif %d %d %016x\n", mo.I, mo.J, math.Float64bits(mo.Dist))
	}
}
