package eval_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/dbscan"
	"pimmine/internal/delta"
	"pimmine/internal/join"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/motif"
	"pimmine/internal/outlier"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// The delta differential golden layer: each mining task's dataset is
// pushed through the mutable store (internal/delta) under a scripted
// churn of inserts, updates and deletes — with a compaction in the
// middle — and the store's view of the final dataset must be
// BYTE-IDENTICAL to applying the same script directly. Every task then
// runs on both copies and must render identically; the rendering is also
// pinned to a committed golden (regenerate with -update), so the mutable
// path is held to the same bit-exactness bar as the host/PIM/fault
// triple in golden_test.go.

// deltaChurn replays a deterministic script of ~n/2 mutations against
// both a delta.Store and a plain map of live rows, compacting halfway
// through. It returns the store plus the independently-applied final
// dataset (rows in ascending global id order) and its id directory.
func deltaChurn(t *testing.T, base *vec.Matrix, donors *vec.Matrix, seed int64) (*delta.Store, *vec.Matrix, []int) {
	t.Helper()
	st, err := delta.New(base.Clone(), delta.Options{
		Factory: func(m *vec.Matrix, _ int) (knn.Searcher, error) { return knn.NewStandard(m), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)

	rng := rand.New(rand.NewSource(seed))
	live := make(map[int][]float64, base.N)
	ids := make([]int, 0, base.N)
	for i := 0; i < base.N; i++ {
		live[i] = append([]float64(nil), base.Row(i)...)
		ids = append(ids, i)
	}
	donor := func() []float64 {
		return append([]float64(nil), donors.Row(rng.Intn(donors.N))...)
	}
	pickLive := func() int { return ids[rng.Intn(len(ids))] }
	removeID := func(id int) {
		for i, v := range ids {
			if v == id {
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
				return
			}
		}
	}
	ops := base.N / 2
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			if err := st.Compact(arch.NewMeter()); err != nil {
				t.Fatalf("mid-script compact: %v", err)
			}
		}
		switch rng.Intn(4) {
		case 0, 1:
			row := donor()
			id, err := st.Insert(row)
			if err != nil {
				t.Fatalf("insert op %d: %v", i, err)
			}
			live[id] = row
			ids = append(ids, id)
		case 2:
			id := pickLive()
			row := donor()
			if err := st.Update(id, row); err != nil {
				t.Fatalf("update op %d id %d: %v", i, id, err)
			}
			live[id] = row
		default:
			if len(ids) < 2 {
				continue
			}
			id := pickLive()
			if err := st.Delete(id); err != nil {
				t.Fatalf("delete op %d id %d: %v", i, id, err)
			}
			delete(live, id)
			removeID(id)
		}
	}

	sort.Ints(ids)
	final := vec.NewMatrix(len(ids), base.D)
	for i, id := range ids {
		copy(final.Row(i), live[id])
	}

	// The core differential: the store's materialized live rows must be
	// byte-identical (hex floats, same order, same ids) to the script
	// applied by hand.
	got, gotIDs := st.Materialize()
	if got.N != final.N {
		t.Fatalf("materialized %d rows, script produced %d", got.N, final.N)
	}
	for i := range ids {
		if gotIDs[i] != ids[i] {
			t.Fatalf("materialized id[%d] = %d, script has %d", i, gotIDs[i], ids[i])
		}
		for c := 0; c < final.D; c++ {
			if g, w := got.Row(i)[c], final.Row(i)[c]; g != w {
				t.Fatalf("materialized row %d (id %d) dim %d: %s != %s",
					i, ids[i], c, hexF(g), hexF(w))
			}
		}
	}
	return st, final, ids
}

// assertDeltaGolden checks the delta-engine rendering against the
// fresh-engine rendering and pins it to testdata/delta_<name>.golden.
func assertDeltaGolden(t *testing.T, name, deltaOut, freshOut string) {
	t.Helper()
	if deltaOut != freshOut {
		t.Fatalf("delta_%s: mutable-engine output diverges from fresh engine over the equivalent final dataset\n%s",
			name, firstDiff(freshOut, deltaOut))
	}
	path := filepath.Join("testdata", "delta_"+name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(deltaOut), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("delta_%s: missing golden file (regenerate with -update): %v", name, err)
	}
	if string(want) != deltaOut {
		t.Fatalf("delta_%s: output drifted from committed golden file\n%s", name, firstDiff(string(want), deltaOut))
	}
}

func donorDataset(t *testing.T, n, d, clusters int, spread float64) *dataset.Dataset {
	t.Helper()
	prof := dataset.Profile{Name: "donor", FullN: n, D: d, Clusters: clusters, Correlation: 0.4, Spread: spread}
	return dataset.Generate(prof, n, 77)
}

// TestGoldenDeltaKNN is the strongest of the set: queries are served
// LIVE through the delta store (non-empty delta buffer and tombstones,
// post-mid-script-compaction) and must render byte-identically — in
// global ids — to both a fresh host engine and a fresh FNN-PIM engine
// built over the equivalent final dataset.
func TestGoldenDeltaKNN(t *testing.T) {
	ds := goldenDataset(t, 400, 32, 5, 0.15)
	donors := donorDataset(t, 200, 32, 5, 0.15)
	queries := ds.Queries(5, 43)
	const k = 10

	st, final, ids := deltaChurn(t, ds.X, donors.X, 101)

	var live strings.Builder
	for qi := 0; qi < queries.N; qi++ {
		nn, err := st.Search(context.Background(), queries.Row(qi), k, math.Inf(1), arch.NewMeter())
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range nn {
			fmt.Fprintf(&live, "q%d i=%d d=%s\n", qi, n.Index, hexF(n.Dist))
		}
	}
	// Fresh engines answer in positions of the final matrix; remap to
	// global ids through the (monotone) id directory.
	remap := func(s knn.Searcher) string {
		var b strings.Builder
		for qi := 0; qi < queries.N; qi++ {
			for _, n := range s.Search(queries.Row(qi), k, arch.NewMeter()) {
				fmt.Fprintf(&b, "q%d i=%d d=%s\n", qi, ids[n.Index], hexF(n.Dist))
			}
		}
		return b.String()
	}
	host := remap(knn.NewStandard(final))
	pimS, err := knn.NewFNNPIM(cleanEngine(t), final, goldenQuant(t), final.N)
	if err != nil {
		t.Fatal(err)
	}
	if pimOut := remap(pimS); pimOut != host {
		t.Fatalf("delta_knn: fresh PIM engine diverges from fresh host engine\n%s", firstDiff(host, pimOut))
	}
	assertDeltaGolden(t, "knn", live.String(), host)
}

func TestGoldenDeltaKMeans(t *testing.T) {
	ds := goldenDataset(t, 300, 24, 6, 0.15)
	donors := donorDataset(t, 150, 24, 6, 0.15)
	st, final, _ := deltaChurn(t, ds.X, donors.X, 102)
	mat, _ := st.Materialize()

	initial, err := kmeans.InitCenters(final, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	assertDeltaGolden(t, "kmeans",
		renderKMeans(kmeans.NewLloyd(mat), initial),
		renderKMeans(kmeans.NewLloyd(final), initial))
}

func TestGoldenDeltaDBSCAN(t *testing.T) {
	ds := goldenDataset(t, 300, 16, 4, 0.03)
	donors := donorDataset(t, 150, 16, 4, 0.03)
	st, final, _ := deltaChurn(t, ds.X, donors.X, 103)
	mat, _ := st.Materialize()
	assertDeltaGolden(t, "dbscan",
		renderDBSCAN(t, dbscan.New(mat), 0.25, 4),
		renderDBSCAN(t, dbscan.New(final), 0.25, 4))
}

func TestGoldenDeltaOutlier(t *testing.T) {
	ds := goldenDataset(t, 350, 24, 5, 0.2)
	donors := donorDataset(t, 150, 24, 5, 0.2)
	st, final, _ := deltaChurn(t, ds.X, donors.X, 104)
	mat, _ := st.Materialize()
	assertDeltaGolden(t, "outlier",
		renderOutlier(t, outlier.NewDetector(mat), 10, 5),
		renderOutlier(t, outlier.NewDetector(final), 10, 5))
}

func TestGoldenDeltaMotif(t *testing.T) {
	// Same planted-pair series as TestGoldenMotif; windows are min-max
	// normalized into the store's [0,1] domain (a positive affine map, so
	// motif ranks are unchanged), and donor windows come from a second
	// walk pushed through the SAME transform.
	const n, w = 600, 16
	rng := rand.New(rand.NewSource(11))
	series := make([]float64, n)
	v := 0.0
	for i := range series {
		v += rng.NormFloat64()
		series[i] = v
	}
	for i := 0; i < w; i++ {
		p := 10 * math.Sin(float64(i)/3)
		series[100+i] = p
		series[400+i] = p + rng.NormFloat64()*0.01
	}
	windows, _, err := motif.Windows(series, w)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := quant.Normalize(windows)
	if err != nil {
		t.Fatal(err)
	}
	drng := rand.New(rand.NewSource(12))
	dseries := make([]float64, n/2)
	v = 0.0
	for i := range dseries {
		v += drng.NormFloat64()
		dseries[i] = v
	}
	donors, _, err := motif.Windows(dseries, w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < donors.N; i++ {
		tf.ApplyVec(donors.Row(i), donors.Row(i))
	}

	st, final, _ := deltaChurn(t, windows, donors, 105)
	mat, _ := st.Materialize()
	assertDeltaGolden(t, "motif",
		renderMotif(t, motif.NewFinder(mat), 3),
		renderMotif(t, motif.NewFinder(final), 3))
}

func TestGoldenDeltaJoin(t *testing.T) {
	ds := goldenDataset(t, 240, 16, 4, 0.2)
	s := ds.X.Slice(0, 220)
	r := ds.X.Slice(220, 240)
	donors := donorDataset(t, 100, 16, 4, 0.2)
	const eps = 0.22

	st, final, _ := deltaChurn(t, s, donors.X, 106)
	mat, _ := st.Materialize()
	assertDeltaGolden(t, "join",
		renderJoin(t, join.NewJoiner(mat), r, eps),
		renderJoin(t, join.NewJoiner(final), r, eps))
}
