package pimbound

import (
	"math"
	"math/rand"
	"testing"

	"pimmine/internal/bound"
	"pimmine/internal/measure"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

func randMatrix(rng *rand.Rand, n, d int) *vec.Matrix {
	m := vec.NewMatrix(n, d)
	for i := range m.Data {
		m.Data[i] = rng.Float64()
	}
	return m
}

// Theorem 1 (property): LB_PIM-ED(p,q) ≤ ED(p,q) for random [0,1] vectors
// across several α scales.
func TestTheorem1LowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, alpha := range []float64{1, 10, 1e3, 1e6} {
		q, err := quant.New(alpha)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 20; trial++ {
			d := 1 + rng.Intn(64)
			m := randMatrix(rng, 10, d)
			ix := BuildED(m, q)
			qv := randMatrix(rng, 1, d).Row(0)
			qf := ix.Query(qv)
			for i := 0; i < m.N; i++ {
				lb := ix.LB(i, qf, ix.HostDot(i, qf))
				ed := measure.SqEuclidean(m.Row(i), qv)
				if lb > ed+1e-9 {
					t.Fatalf("alpha=%v d=%d obj=%d: LB_PIM-ED=%v > ED=%v", alpha, d, i, lb, ed)
				}
			}
		}
	}
}

// Theorem 3 (property): the gap ED − LB_PIM-ED never exceeds 4d/α + 2d/α².
func TestTheorem3ErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, alpha := range []float64{10, 1e3, 1e6} {
		q, _ := quant.New(alpha)
		for trial := 0; trial < 20; trial++ {
			d := 1 + rng.Intn(64)
			m := randMatrix(rng, 10, d)
			ix := BuildED(m, q)
			qv := randMatrix(rng, 1, d).Row(0)
			qf := ix.Query(qv)
			maxErr := q.ErrorBound(d)
			for i := 0; i < m.N; i++ {
				gap := measure.SqEuclidean(m.Row(i), qv) - ix.LB(i, qf, ix.HostDot(i, qf))
				if gap < -1e-9 || gap > maxErr+1e-9 {
					t.Fatalf("alpha=%v d=%d: gap=%v outside [0, %v]", alpha, d, gap, maxErr)
				}
			}
		}
	}
}

// Larger α gives a tighter (or equal) average bound, as §V-B promises.
func TestAlphaTightensBound(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := randMatrix(rng, 50, 32)
	qv := randMatrix(rng, 1, 32).Row(0)
	qLo, _ := quant.New(100)
	qHi, _ := quant.New(1e6)
	ixLo, ixHi := BuildED(m, qLo), BuildED(m, qHi)
	qfLo, qfHi := ixLo.Query(qv), ixHi.Query(qv)
	var gapLo, gapHi float64
	for i := 0; i < m.N; i++ {
		ed := measure.SqEuclidean(m.Row(i), qv)
		gapLo += ed - ixLo.LB(i, qfLo, ixLo.HostDot(i, qfLo))
		gapHi += ed - ixHi.LB(i, qfHi, ixHi.HostDot(i, qfHi))
	}
	if gapHi >= gapLo {
		t.Fatalf("alpha=1e6 mean gap %v not tighter than alpha=100 gap %v", gapHi/50, gapLo/50)
	}
}

// Fig 9's worked example: p=[0.5532,0.9742,0.7375,0.6557],
// q=[0.9259,0.6644,0.8077,0.8613], α=1000 → LB ≈ 0.273 < ED ≈ 0.282.
func TestFig9WorkedExample(t *testing.T) {
	qz, _ := quant.New(1000)
	m, err := vec.FromRows([][]float64{{0.5532, 0.9742, 0.7375, 0.6557}})
	if err != nil {
		t.Fatal(err)
	}
	qv := []float64{0.9259, 0.6644, 0.8077, 0.8613}
	ix := BuildED(m, qz)
	qf := ix.Query(qv)
	ed := measure.SqEuclidean(m.Row(0), qv)
	lb := ix.LB(0, qf, ix.HostDot(0, qf))
	if math.Abs(ed-0.2819) > 5e-4 {
		t.Fatalf("ED = %v, paper's example has ≈0.282", ed)
	}
	// Hand-computing Theorem 1 on these vectors gives exactly
	// 275569.77/10⁶ = 0.2755698 (the figure's label "0.273" is a rounded
	// illustration); what matters is LB < ED with a sub-1% gap.
	if math.Abs(lb-0.2755698) > 1e-6 {
		t.Fatalf("LB_PIM-ED = %v, hand computation gives 0.2755698", lb)
	}
	if lb >= ed {
		t.Fatalf("LB %v must stay below ED %v", lb, ed)
	}
}

// Theorem 2 (property): LB_PIM-FNN(p,q) ≤ LB_FNN(p,q) ≤ ED(p,q).
func TestTheorem2Chain(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, alpha := range []float64{10, 1e3, 1e6} {
		q, _ := quant.New(alpha)
		for trial := 0; trial < 20; trial++ {
			segs := 1 + rng.Intn(8)
			l := 1 + rng.Intn(8)
			d := segs * l
			m := randMatrix(rng, 10, d)
			pimIx, err := BuildFNN(m, q, segs)
			if err != nil {
				t.Fatal(err)
			}
			hostIx, err := bound.BuildFNN(m, segs)
			if err != nil {
				t.Fatal(err)
			}
			qv := randMatrix(rng, 1, d).Row(0)
			qf, err := pimIx.Query(qv)
			if err != nil {
				t.Fatal(err)
			}
			qMu, qSigma, _ := hostIx.QueryStats(qv)
			for i := 0; i < m.N; i++ {
				dotMu, dotSigma := pimIx.HostDots(i, qf)
				pimLB := pimIx.LB(i, qf, dotMu, dotSigma)
				hostLB := hostIx.LB(i, qMu, qSigma)
				ed := measure.SqEuclidean(m.Row(i), qv)
				if pimLB > hostLB+1e-9 {
					t.Fatalf("alpha=%v segs=%d: LB_PIM-FNN=%v > LB_FNN=%v", alpha, segs, pimLB, hostLB)
				}
				if hostLB > ed+1e-9 {
					t.Fatalf("LB_FNN=%v > ED=%v", hostLB, ed)
				}
			}
		}
	}
}

func TestBuildFNNValidation(t *testing.T) {
	q, _ := quant.New(1e6)
	m := randMatrix(rand.New(rand.NewSource(25)), 4, 10)
	if _, err := BuildFNN(m, q, 3); err == nil {
		t.Fatal("BuildFNN must reject non-divisible segment counts")
	}
}

// UB_PIM-CS / UB_PIM-PCC (property): the PIM upper bounds dominate the
// exact similarities.
func TestCSAndPCCUpperBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, alpha := range []float64{10, 1e3, 1e6} {
		q, _ := quant.New(alpha)
		for trial := 0; trial < 20; trial++ {
			d := 2 + rng.Intn(62)
			m := randMatrix(rng, 10, d)
			ix := BuildCS(m, q)
			qv := randMatrix(rng, 1, d).Row(0)
			qf := ix.Query(qv)
			for i := 0; i < m.N; i++ {
				dot := ix.HostDot(i, qf)
				if ub := ix.UBDot(i, &qf, dot); ub < vec.Dot(m.Row(i), qv)-1e-9 {
					t.Fatalf("UBDot=%v < dot=%v", ub, vec.Dot(m.Row(i), qv))
				}
				if ub := ix.UBCS(i, &qf, dot); ub < measure.Cosine(m.Row(i), qv)-1e-9 {
					t.Fatalf("UB_PIM-CS=%v < CS=%v", ub, measure.Cosine(m.Row(i), qv))
				}
				if ub := ix.UBPCC(i, &qf, dot); ub < measure.Pearson(m.Row(i), qv)-1e-9 {
					t.Fatalf("UB_PIM-PCC=%v < PCC=%v", ub, measure.Pearson(m.Row(i), qv))
				}
			}
		}
	}
}

func TestCSZeroConventions(t *testing.T) {
	q, _ := quant.New(1e6)
	m, _ := vec.FromRows([][]float64{{0, 0, 0}, {0.5, 0.5, 0.5}})
	ix := BuildCS(m, q)
	qf := ix.Query([]float64{0.1, 0.2, 0.3})
	if got := ix.UBCS(0, &qf, ix.HostDot(0, qf)); got != 0 {
		t.Fatalf("UBCS of zero vector = %v, want 0", got)
	}
	// Constant vector → Φa = 0 → PCC upper bound 0.
	if got := ix.UBPCC(1, &qf, ix.HostDot(1, qf)); got != 0 {
		t.Fatalf("UBPCC of constant vector = %v, want 0", got)
	}
}

// Table 4's HD decomposition (property): d − p·q − p̃·q̃ equals the exact
// Hamming distance for random codes.
func TestHDDecompositionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := 0; trial < 50; trial++ {
		d := 1 + rng.Intn(300)
		codes := make([]measure.BitVector, 8)
		for i := range codes {
			codes[i] = measure.NewBitVector(d)
			for b := 0; b < d; b++ {
				if rng.Intn(2) == 1 {
					codes[i].Set(b, true)
				}
			}
		}
		ix, err := BuildHD(codes)
		if err != nil {
			t.Fatal(err)
		}
		qc := measure.NewBitVector(d)
		for b := 0; b < d; b++ {
			if rng.Intn(2) == 1 {
				qc.Set(b, true)
			}
		}
		qf := ix.Query(qc)
		for i := range codes {
			dot, comp := ix.HostDots(i, qf)
			if got, want := ix.HD(dot, comp), measure.Hamming(codes[i], qc); got != want {
				t.Fatalf("d=%d code=%d: PIM HD=%d, exact=%d", d, i, got, want)
			}
		}
	}
}

func TestBuildHDValidation(t *testing.T) {
	a := measure.NewBitVector(8)
	b := measure.NewBitVector(16)
	if _, err := BuildHD([]measure.BitVector{a, b}); err == nil {
		t.Fatal("BuildHD must reject mixed code lengths")
	}
	empty, err := BuildHD(nil)
	if err != nil || empty.D != 0 {
		t.Fatalf("BuildHD(nil) = %v, %v", empty, err)
	}
}
