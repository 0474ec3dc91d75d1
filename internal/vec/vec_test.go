package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixShape(t *testing.T) {
	t.Parallel()
	m := NewMatrix(3, 4)
	if m.N != 3 || m.D != 4 || len(m.Data) != 12 {
		t.Fatalf("NewMatrix(3,4) = %dx%d with %d values", m.N, m.D, len(m.Data))
	}
	m.Row(1)[2] = 7
	if m.Data[1*4+2] != 7 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestMatrixRowBounds(t *testing.T) {
	t.Parallel()
	m := NewMatrix(2, 3)
	row := m.Row(0)
	if len(row) != 3 || cap(row) != 3 {
		t.Fatalf("Row(0) len=%d cap=%d, want 3/3 (full slice expression)", len(row), cap(row))
	}
}

func TestFromRows(t *testing.T) {
	t.Parallel()
	m, err := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 3 || m.D != 2 || m.Row(2)[1] != 6 {
		t.Fatalf("FromRows built %dx%d, row2=%v", m.N, m.D, m.Row(2))
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("FromRows must reject ragged rows")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.N != 0 {
		t.Fatalf("FromRows(nil) = %v, %v", empty, err)
	}
}

func TestClone(t *testing.T) {
	t.Parallel()
	m := NewMatrix(2, 2)
	m.Row(0)[0] = 1
	c := m.Clone()
	c.Row(0)[0] = 9
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

// TestRowsView pins Rows: a run is Slice over the same storage, any other
// list a view with nil Data whose Row, Slice and Clone read the parent's
// listed rows — a view of a view included — and an id outside the matrix
// panics.
func TestRowsView(t *testing.T) {
	t.Parallel()
	m := NewMatrix(6, 2)
	for i := range m.Data {
		m.Data[i] = float64(i)
	}
	run := m.Rows([]int{2, 3, 4})
	if run.Data == nil || run.N != 3 || &run.Row(0)[0] != &m.Row(2)[0] {
		t.Fatalf("a run is not Slice(2, 5): %+v", run)
	}
	ids := []int{0, 3, 5, 4}
	v := m.Rows(ids)
	if v.Data != nil || v.N != 4 || v.D != 2 {
		t.Fatalf("view of %v: N=%d D=%d Data=%v", ids, v.N, v.D, v.Data)
	}
	for i, id := range ids {
		if row := v.Row(i); &row[0] != &m.Row(id)[0] || len(row) != 2 || cap(row) != 2 {
			t.Fatalf("view row %d does not alias parent row %d with a full slice expression", i, id)
		}
	}
	s := v.Slice(1, 3)
	if s.Data != nil || s.N != 2 || s.Row(0)[0] != 6 || s.Row(1)[1] != 11 {
		t.Fatalf("Slice(1, 3) of the view reads %v %v", s.Row(0), s.Row(1))
	}
	c := v.Clone()
	if c.Data == nil || c.N != 4 {
		t.Fatal("Clone of a view is not dense")
	}
	for i, id := range ids {
		if c.Row(i)[0] != m.Row(id)[0] || c.Row(i)[1] != m.Row(id)[1] {
			t.Fatalf("Clone row %d = %v, parent row %d = %v", i, c.Row(i), id, m.Row(id))
		}
	}
	c.Row(0)[0] = -1
	if m.Row(0)[0] == -1 {
		t.Fatal("Clone of a view shares storage")
	}
	if vv := v.Rows([]int{3, 1}); vv.Data != nil || vv.Row(0)[0] != 8 || vv.Row(1)[0] != 6 {
		t.Fatalf("view of a view reads %v %v, want parent rows 4 and 3", vv.Row(0), vv.Row(1))
	}
	if e := m.Rows(nil); e.N != 0 {
		t.Fatalf("Rows(nil) has %d rows", e.N)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Rows accepted an id past the last row")
		}
	}()
	m.Rows([]int{1, 6})
}

func TestBytes(t *testing.T) {
	t.Parallel()
	m := NewMatrix(10, 8)
	if got := m.Bytes(32); got != 320 {
		t.Fatalf("Bytes(32) = %d, want 320", got)
	}
}

func TestDot(t *testing.T) {
	t.Parallel()
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
}

func TestDotMismatchPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("Dot must panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestIntDot(t *testing.T) {
	t.Parallel()
	// Fig 1's example: [3,1,0]·[3,1,2] = 10, [1,2,3]·[3,1,2] = 11,
	// [2,0,1]·[3,1,2] = 8.
	q := []uint32{3, 1, 2}
	for _, tc := range []struct {
		p    []uint32
		want int64
	}{
		{[]uint32{3, 1, 0}, 10},
		{[]uint32{1, 2, 3}, 11},
		{[]uint32{2, 0, 1}, 8},
	} {
		if got := IntDot(tc.p, q); got != tc.want {
			t.Errorf("IntDot(%v, %v) = %d, want %d", tc.p, q, got, tc.want)
		}
	}
}

func TestIntDotNoOverflow(t *testing.T) {
	t.Parallel()
	// Values at the paper's α=10⁶ scale must accumulate in int64 without
	// overflow even at Trevi's d=4096 (max dot ≈ 4·10¹⁵ < 2⁶³).
	a := make([]uint32, 4096)
	for i := range a {
		a[i] = 1_000_000
	}
	want := int64(4096) * 1_000_000 * 1_000_000
	if got := IntDot(a, a); got != want {
		t.Fatalf("IntDot overflow: got %d, want %d", got, want)
	}
}

func TestNormsAndStats(t *testing.T) {
	t.Parallel()
	v := []float64{3, 4}
	if SqNorm(v) != 25 || Norm(v) != 5 {
		t.Fatalf("SqNorm/Norm of %v = %v/%v", v, SqNorm(v), Norm(v))
	}
	if Sum(v) != 7 || Mean(v) != 3.5 {
		t.Fatalf("Sum/Mean of %v = %v/%v", v, Sum(v), Mean(v))
	}
	if Std([]float64{2, 2, 2}) != 0 {
		t.Fatal("Std of constant vector must be 0")
	}
	if got := Std([]float64{1, 3}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("population Std of {1,3} = %v, want 1", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("Mean/Std of empty slice must be 0")
	}
}

// TestMeanStdMatchesMeanAndStd pins MeanStd to the separate Mean and Std
// bit for bit: SegmentStatsInto and pimbound's LB_PIM-FNN features read it
// in place of the two calls, at build time and per query.
func TestMeanStdMatchesMeanAndStd(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	cases := [][]float64{nil, {0.7}, {0.25, 0.75}, {0.1, 0.9}, {0.3, 0.3, 0.3, 0.3, 0.3}}
	for _, n := range []int{1, 2, 3, 7, 64, 105} {
		for rep := 0; rep < 20; rep++ {
			a := make([]float64, n)
			for i := range a {
				a[i] = rng.Float64()
			}
			cases = append(cases, a)
		}
	}
	for _, a := range cases {
		mean, std := MeanStd(a)
		if math.Float64bits(mean) != math.Float64bits(Mean(a)) || math.Float64bits(std) != math.Float64bits(Std(a)) {
			t.Fatalf("MeanStd(%v) = (%v, %v), want (%v, %v)", a, mean, std, Mean(a), Std(a))
		}
	}
}

func TestSegmentStats(t *testing.T) {
	t.Parallel()
	v := []float64{1, 3, 2, 2, 0, 4}
	mu, sigma, err := SegmentStats(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantMu := []float64{2, 2, 2}
	wantSg := []float64{1, 0, 2}
	if !Equal(mu, wantMu, 1e-12) || !Equal(sigma, wantSg, 1e-12) {
		t.Fatalf("SegmentStats = %v/%v, want %v/%v", mu, sigma, wantMu, wantSg)
	}
	if _, _, err := SegmentStats(v, 4); err == nil {
		t.Fatal("SegmentStats must reject non-divisible segment counts")
	}
}

func TestScaleAddTo(t *testing.T) {
	t.Parallel()
	a := []float64{1, 2}
	Scale(a, 3)
	if a[0] != 3 || a[1] != 6 {
		t.Fatalf("Scale = %v", a)
	}
	AddTo(a, []float64{1, 1})
	if a[0] != 4 || a[1] != 7 {
		t.Fatalf("AddTo = %v", a)
	}
}

// Property: Dot is symmetric and linear in its first argument.
func TestDotPropertiesQuick(t *testing.T) {
	t.Parallel()
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true // keep the check numerically meaningful
			}
		}
		sym := math.Abs(Dot(a, b)-Dot(b, a)) <= 1e-9*(1+math.Abs(Dot(a, b)))
		a2 := make([]float64, n)
		for i := range a {
			a2[i] = 2 * a[i]
		}
		lin := math.Abs(Dot(a2, b)-2*Dot(a, b)) <= 1e-6*(1+math.Abs(Dot(a, b)))
		return sym && lin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Cauchy–Schwarz, |a·b| ≤ ‖a‖‖b‖.
func TestCauchySchwarzQuick(t *testing.T) {
	t.Parallel()
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:2*n]
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e6 {
				return true
			}
		}
		return math.Abs(Dot(a, b)) <= Norm(a)*Norm(b)*(1+1e-9)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTopKBasic(t *testing.T) {
	t.Parallel()
	top := NewTopK(3)
	if !math.IsInf(top.Threshold(), 1) {
		t.Fatal("empty TopK threshold must be +Inf")
	}
	for i, d := range []float64{5, 1, 4, 2, 3} {
		top.Push(i, d)
	}
	res := top.Results()
	if len(res) != 3 || res[0].Dist != 1 || res[1].Dist != 2 || res[2].Dist != 3 {
		t.Fatalf("TopK results = %v", res)
	}
	if top.Threshold() != 3 {
		t.Fatalf("threshold = %v, want 3", top.Threshold())
	}
}

func TestTopKRejectsWorse(t *testing.T) {
	t.Parallel()
	top := NewTopK(2)
	top.Push(0, 1)
	top.Push(1, 2)
	if top.Push(2, 2) {
		t.Fatal("equal-to-threshold candidate must be rejected")
	}
	if !top.Push(3, 1.5) {
		t.Fatal("better candidate must be accepted")
	}
}

func TestTopKTiesDeterministic(t *testing.T) {
	t.Parallel()
	top := NewTopK(2)
	top.Push(5, 1)
	top.Push(3, 1)
	res := top.Results()
	if res[0].Index != 3 || res[1].Index != 5 {
		t.Fatalf("tie order = %v, want ascending index", res)
	}
}

// Property: TopK matches a full sort-and-truncate reference.
func TestTopKMatchesSortQuick(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		k := 1 + rng.Intn(n)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = math.Floor(rng.Float64()*100) / 10 // force ties
		}
		top := NewTopK(k)
		for i, d := range dists {
			top.Push(i, d)
		}
		got := top.Results()
		ref := make([]Neighbor, n)
		for i, d := range dists {
			ref[i] = Neighbor{i, d}
		}
		// reference: stable selection of k smallest by (dist, index)
		for i := 0; i < k; i++ {
			minJ := i
			for j := i + 1; j < n; j++ {
				if ref[j].Dist < ref[minJ].Dist ||
					(ref[j].Dist == ref[minJ].Dist && ref[j].Index < ref[minJ].Index) {
					minJ = j
				}
			}
			ref[i], ref[minJ] = ref[minJ], ref[i]
		}
		for i := 0; i < k; i++ {
			if got[i].Dist != ref[i].Dist {
				t.Fatalf("trial %d: k=%d pos=%d got dist %v want %v", trial, k, i, got[i].Dist, ref[i].Dist)
			}
		}
	}
}

func TestTopKPanicsOnZeroK(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("NewTopK(0) must panic")
		}
	}()
	NewTopK(0)
}
