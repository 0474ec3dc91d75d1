package join

import (
	"math"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

func testRelations(t *testing.T, nr, ns, d int) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	prof := dataset.Profile{Name: "t", FullN: ns, D: d, Clusters: 6, Correlation: 0.75, Spread: 0.1}
	ds := dataset.Generate(prof, ns, 13)
	return ds.Queries(nr, 14), ds.X
}

func newPIMJoiner(t *testing.T, s *vec.Matrix) *Joiner {
	t.Helper()
	eng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	j, err := NewJoinerPIM(eng, s, q, s.N)
	if err != nil {
		t.Fatal(err)
	}
	return j
}

func TestKNNJoinMatchesNestedLoop(t *testing.T) {
	r, s := testRelations(t, 20, 300, 32)
	host := NewJoiner(s)
	want, err := host.KNN(r, 5, false, arch.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	// Reference: nested loop.
	for i := 0; i < r.N; i++ {
		top := vec.NewTopK(5)
		for sj := 0; sj < s.N; sj++ {
			top.Push(sj, measure.SqEuclidean(r.Row(i), s.Row(sj)))
		}
		ref := top.Results()
		for pos := range ref {
			if want[i][pos].Dist != ref[pos].Dist {
				t.Fatalf("host join row %d pos %d: %v != %v", i, pos, want[i][pos], ref[pos])
			}
		}
	}
	pimJ := newPIMJoiner(t, s)
	got, err := pimJ.KNN(r, 5, false, arch.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		for pos := range want[i] {
			if got[i][pos].Dist != want[i][pos].Dist {
				t.Fatalf("PIM join row %d pos %d: %v != %v", i, pos, got[i][pos], want[i][pos])
			}
		}
	}
}

func TestSelfJoinExcludesIdentity(t *testing.T) {
	_, s := testRelations(t, 1, 100, 16)
	host := NewJoiner(s)
	res, err := host.KNN(s, 3, true, arch.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	for i, nn := range res {
		for _, nb := range nn {
			if nb.Index == i {
				t.Fatalf("self-join row %d contains itself", i)
			}
		}
		if len(nn) != 3 {
			t.Fatalf("row %d has %d neighbors", i, len(nn))
		}
	}
	// Self-join with a different outer relation must fail.
	r, _ := testRelations(t, 5, 50, 16)
	if _, err := host.KNN(r, 3, true, arch.NewMeter()); err == nil {
		t.Fatal("self-join with foreign outer relation must be rejected")
	}
}

func TestEpsJoinMatchesNestedLoop(t *testing.T) {
	r, s := testRelations(t, 25, 250, 24)
	eps := 0.35
	host := NewJoiner(s)
	want, err := host.Eps(r, eps, false, arch.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	// Reference.
	var ref []Pair
	for i := 0; i < r.N; i++ {
		for sj := 0; sj < s.N; sj++ {
			if d := measure.SqEuclidean(r.Row(i), s.Row(sj)); d <= eps*eps {
				ref = append(ref, Pair{R: i, S: sj, DistSq: d})
			}
		}
	}
	if len(ref) == 0 {
		t.Fatal("test eps selects nothing; widen it")
	}
	assertSamePairs(t, "host", want, ref)
	got, err := newPIMJoiner(t, s).Eps(r, eps, false, arch.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	assertSamePairs(t, "PIM", got, ref)
}

func TestEpsSelfJoinOrdering(t *testing.T) {
	_, s := testRelations(t, 1, 120, 16)
	pairs, err := NewJoiner(s).Eps(s, 0.3, true, arch.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pairs {
		if p.R >= p.S {
			t.Fatalf("self-join emitted unordered pair %+v", p)
		}
	}
}

func TestPIMJoinPrunes(t *testing.T) {
	r, s := testRelations(t, 30, 400, 32)
	mHost, mPIM := arch.NewMeter(), arch.NewMeter()
	if _, err := NewJoiner(s).KNN(r, 5, false, mHost); err != nil {
		t.Fatal(err)
	}
	if _, err := newPIMJoiner(t, s).KNN(r, 5, false, mPIM); err != nil {
		t.Fatal(err)
	}
	if mPIM.Get(arch.FuncED).Calls*2 >= mHost.Get(arch.FuncED).Calls {
		t.Fatalf("PIM join computed %d exact distances vs host %d — expected >2x pruning",
			mPIM.Get(arch.FuncED).Calls, mHost.Get(arch.FuncED).Calls)
	}
}

func TestJoinValidation(t *testing.T) {
	r, s := testRelations(t, 5, 50, 16)
	j := NewJoiner(s)
	if _, err := j.KNN(r, 0, false, arch.NewMeter()); err == nil {
		t.Fatal("k=0 must be rejected")
	}
	if _, err := j.Eps(r, 0, false, arch.NewMeter()); err == nil {
		t.Fatal("eps=0 must be rejected")
	}
	bad := vec.NewMatrix(3, 8)
	if _, err := j.KNN(bad, 2, false, arch.NewMeter()); err == nil {
		t.Fatal("dimension mismatch must be rejected")
	}
	_, selfErr := j.KNN(s, s.N, true, arch.NewMeter())
	if selfErr == nil {
		t.Fatal("k >= N self-join must be rejected")
	}
	// KNNRow is KNN's per-row primitive and rejects the same k, counting
	// the excluded row, instead of returning fewer than k neighbors.
	if _, err := j.KNNRow(s.Row(0), s.N, 0, arch.NewMeter(), nil); err == nil || err.Error() != selfErr.Error() {
		t.Fatalf("KNNRow with k = N and one row excluded: err = %v, want %v", err, selfErr)
	}
	_, outerErr := j.KNN(r, s.N+1, false, arch.NewMeter())
	if _, err := j.KNNRow(r.Row(0), s.N+1, -1, arch.NewMeter(), nil); outerErr == nil || err == nil || err.Error() != outerErr.Error() {
		t.Fatalf("KNNRow with k > N: err = %v, want %v", err, outerErr)
	}
	if nbs, err := j.KNNRow(s.Row(0), s.N-1, 0, arch.NewMeter(), nil); err != nil || len(nbs) != s.N-1 {
		t.Fatalf("KNNRow with k = N-1 and one row excluded: %d neighbors, err %v", len(nbs), err)
	}
}

func assertSamePairs(t *testing.T, name string, got, want []Pair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].R != want[i].R || got[i].S != want[i].S ||
			math.Abs(got[i].DistSq-want[i].DistSq) > 1e-12 {
			t.Fatalf("%s: pair %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}
