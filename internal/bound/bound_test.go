package bound

import (
	"math"
	"math/rand"
	"testing"

	"pimmine/internal/measure"
	"pimmine/internal/vec"
)

// randMatrix generates n×d values in [0,1].
func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

func TestBuildOSTValidation(t *testing.T) {
	t.Parallel()
	m := randMatrix(rand.New(rand.NewSource(1)), 4, 8)
	for _, bad := range []int{0, 8, -1} {
		if _, err := BuildOST(m, bad); err == nil {
			t.Errorf("BuildOST(d0=%d) must fail", bad)
		}
	}
	if _, err := BuildOST(m, 4); err != nil {
		t.Fatal(err)
	}
}

// Property: LB_OST(p,q) ≤ ED(p,q) for all head splits.
func TestOSTLowerBoundsED(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(62)
		m := randMatrix(rng, 20, d)
		d0 := 1 + rng.Intn(d-1)
		ix, err := BuildOST(m, d0)
		if err != nil {
			t.Fatal(err)
		}
		q := randMatrix(rng, 1, d).Row(0)
		qTail := ix.QueryTail(q)
		for i := 0; i < m.N; i++ {
			lb := ix.LB(i, q, qTail)
			ed := measure.SqEuclidean(m.Row(i), q)
			if lb > ed+1e-9 {
				t.Fatalf("d=%d d0=%d obj=%d: LB_OST=%v > ED=%v", d, d0, i, lb, ed)
			}
		}
	}
}

// Property: LB_SM(p,q) ≤ ED(p,q).
func TestSMLowerBoundsED(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		segs := 1 + rng.Intn(8)
		l := 1 + rng.Intn(8)
		d := segs * l
		m := randMatrix(rng, 20, d)
		ix, err := BuildSM(m, segs)
		if err != nil {
			t.Fatal(err)
		}
		q := randMatrix(rng, 1, d).Row(0)
		qMu, err := ix.QueryMu(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.N; i++ {
			lb := ix.LB(i, qMu)
			ed := measure.SqEuclidean(m.Row(i), q)
			if lb > ed+1e-9 {
				t.Fatalf("d=%d segs=%d obj=%d: LB_SM=%v > ED=%v", d, segs, i, lb, ed)
			}
		}
	}
}

// Property: LB_FNN(p,q) ≤ ED(p,q), and LB_FNN ≥ LB_SM at equal granularity
// (FNN adds the non-negative σ term).
func TestFNNLowerBoundsED(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 30; trial++ {
		segs := 1 + rng.Intn(8)
		l := 1 + rng.Intn(8)
		d := segs * l
		m := randMatrix(rng, 20, d)
		fnn, err := BuildFNN(m, segs)
		if err != nil {
			t.Fatal(err)
		}
		sm, err := BuildSM(m, segs)
		if err != nil {
			t.Fatal(err)
		}
		q := randMatrix(rng, 1, d).Row(0)
		qMu, qSigma, err := fnn.QueryStats(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < m.N; i++ {
			lb := fnn.LB(i, qMu, qSigma)
			ed := measure.SqEuclidean(m.Row(i), q)
			if lb > ed+1e-9 {
				t.Fatalf("d=%d segs=%d obj=%d: LB_FNN=%v > ED=%v", d, segs, i, lb, ed)
			}
			if smLB := sm.LB(i, qMu); lb < smLB-1e-9 {
				t.Fatalf("LB_FNN=%v < LB_SM=%v at equal granularity", lb, smLB)
			}
		}
	}
}

// Finer FNN granularity gives a tighter (or equal) bound on average; at
// full granularity (segs=d) the bound equals ED, discounted by lbSlack.
func TestFNNFullGranularityIsExact(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(10))
	m := randMatrix(rng, 10, 16)
	ix, err := BuildFNN(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	q := randMatrix(rng, 1, 16).Row(0)
	qMu, qSigma, _ := ix.QueryStats(q)
	for i := 0; i < m.N; i++ {
		lb := ix.LB(i, qMu, qSigma)
		ed := measure.SqEuclidean(m.Row(i), q)
		if lb > ed || math.Abs(lb-ed*lbSlack) > 1e-12 {
			t.Fatalf("segs=d: LB_FNN=%v != ED=%v", lb, ed)
		}
	}
}

// LB4 is LB per object, to the bit, for every granularity of a few
// dimensionalities and for objects that repeat within the four, as the
// cascade's padded groups pass them.
func TestLB4MatchesLB(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for _, d := range []int{1, 7, 12, 60, 420} {
		m := randMatrix(rng, 9, d)
		q := randMatrix(rng, 1, d).Row(0)
		for segs := 1; segs <= d; segs++ {
			if d%segs != 0 {
				continue
			}
			ix, err := BuildFNN(m, segs)
			if err != nil {
				t.Fatal(err)
			}
			qMu, qSigma, _ := ix.QueryStats(q)
			for _, rows := range [][4]int{{0, 1, 2, 3}, {8, 5, 1, 4}, {6, 6, 6, 6}, {2, 7, 2, 2}} {
				var got [4]float64
				got[0], got[1], got[2], got[3] = ix.LB4(rows[0], rows[1], rows[2], rows[3], qMu, qSigma)
				for r, i := range rows {
					if want := ix.LB(i, qMu, qSigma); math.Float64bits(got[r]) != math.Float64bits(want) {
						t.Fatalf("d=%d segs=%d rows %v: LB4[%d] = %x, LB(%d) = %x", d, segs, rows, r, math.Float64bits(got[r]), i, math.Float64bits(want))
					}
				}
			}
		}
	}
}

func TestFNNLevels(t *testing.T) {
	t.Parallel()
	// MSD's d=420 must yield the paper's granularities 7, 28, 105.
	if got := FNNLevels(420); got != [3]int{7, 28, 105} {
		t.Fatalf("FNNLevels(420) = %v, want [7 28 105]", got)
	}
	// Levels are always divisors and ascending-or-equal.
	for _, d := range []int{90, 128, 150, 500, 960, 1369, 4096} {
		lv := FNNLevels(d)
		for _, s := range lv {
			if s < 1 || d%s != 0 {
				t.Fatalf("FNNLevels(%d) = %v contains non-divisor", d, lv)
			}
		}
		if lv[0] > lv[1] || lv[1] > lv[2] {
			t.Fatalf("FNNLevels(%d) = %v not ascending", d, lv)
		}
	}
}

// Property: UB_part(p,q) ≥ p·q.
func TestPartUpperBoundsDot(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		d := 2 + rng.Intn(62)
		m := randMatrix(rng, 20, d)
		d0 := 1 + rng.Intn(d-1)
		ix, err := BuildPart(m, d0)
		if err != nil {
			t.Fatal(err)
		}
		q := randMatrix(rng, 1, d).Row(0)
		qTail := ix.QueryTail(q)
		for i := 0; i < m.N; i++ {
			ub := ix.UBDot(i, q, qTail)
			dot := vec.Dot(m.Row(i), q)
			if ub < dot-1e-9 {
				t.Fatalf("d=%d d0=%d obj=%d: UB_part=%v < dot=%v", d, d0, i, ub, dot)
			}
		}
	}
}

func TestTransferDims(t *testing.T) {
	t.Parallel()
	m := randMatrix(rand.New(rand.NewSource(12)), 4, 16)
	ost, _ := BuildOST(m, 8)
	if ost.TransferDims() != 9 {
		t.Fatalf("OST TransferDims = %d, want 9", ost.TransferDims())
	}
	sm, _ := BuildSM(m, 4)
	if sm.TransferDims() != 4 {
		t.Fatalf("SM TransferDims = %d, want 4", sm.TransferDims())
	}
	fnn, _ := BuildFNN(m, 4)
	if fnn.TransferDims() != 8 {
		t.Fatalf("FNN TransferDims = %d, want 8", fnn.TransferDims())
	}
	part, _ := BuildPart(m, 8)
	if part.TransferDims() != 10 {
		t.Fatalf("Part TransferDims = %d, want 10", part.TransferDims())
	}
}

func TestNearestDivisor(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		d      int
		target float64
		want   int
	}{
		{420, 6.5625, 7}, // d/64 → 7 (paper)
		{420, 26.25, 28}, // d/16 → 28 (paper)
		{420, 105, 105},  // d/4 → 105 (paper)
		{12, 3.5, 4},     // tie between 3 and 4 resolves upward
		{7, 2.0, 1},      // prime: nearest divisor to 2 is 1 (7 is 5 away)
		{16, 100, 16},    // target beyond d clamps to d
		{1, 0.0001, 1},   // d=1 has only itself
	} {
		if got := nearestDivisor(tc.d, tc.target); got != tc.want {
			t.Errorf("nearestDivisor(%d, %v) = %d, want %d", tc.d, tc.target, got, tc.want)
		}
	}
}
