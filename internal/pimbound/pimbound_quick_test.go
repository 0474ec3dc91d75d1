package pimbound

import (
	"math"
	"testing"
	"testing/quick"

	"pimmine/internal/measure"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// clampUnitVec maps arbitrary fuzz floats into [0,1].
func clampUnitVec(raw []float64) []float64 {
	out := make([]float64, 0, len(raw))
	for _, v := range raw {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			continue
		}
		out = append(out, math.Abs(v)-math.Floor(math.Abs(v)))
	}
	return out
}

// Property (quick-driven Theorem 1 + 3): for arbitrary [0,1] vectors and
// a spread of α values, 0 ≤ ED − LB_PIM-ED ≤ 4d/α + 2d/α².
func TestTheorem1And3Quick(t *testing.T) {
	f := func(rawP, rawQ []float64, alphaSel uint8) bool {
		p := clampUnitVec(rawP)
		qv := clampUnitVec(rawQ)
		n := len(p)
		if len(qv) < n {
			n = len(qv)
		}
		if n == 0 {
			return true
		}
		p, qv = p[:n], qv[:n]
		alpha := []float64{2, 37, 1e3, 1e6}[alphaSel%4]
		qz, err := quant.New(alpha)
		if err != nil {
			return false
		}
		m, err := vec.FromRows([][]float64{p})
		if err != nil {
			return false
		}
		ix := BuildED(m, qz)
		qf := ix.Query(qv)
		lb := ix.LB(0, qf, ix.HostDot(0, qf))
		ed := measure.SqEuclidean(p, qv)
		gap := ed - lb
		return gap >= -1e-9 && gap <= qz.ErrorBound(n)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: the HD decomposition identities agree for arbitrary codes —
// Table 4's two-payload form, the single-payload Ones form, and the
// direct XOR+popcount scan.
func TestHDIdentitiesQuick(t *testing.T) {
	f := func(rawP, rawQ []byte, bitsRaw uint8) bool {
		bits := int(bitsRaw)%200 + 1
		mk := func(raw []byte) measure.BitVector {
			b := measure.NewBitVector(bits)
			for i := 0; i < bits; i++ {
				if i < len(raw)*8 && raw[i/8]>>(i%8)&1 == 1 {
					b.Set(i, true)
				}
			}
			return b
		}
		p, q := mk(rawP), mk(rawQ)
		ix, err := BuildHD([]measure.BitVector{p})
		if err != nil {
			return false
		}
		qf := ix.Query(q)
		dot, comp := ix.HostDots(0, qf)
		want := measure.Hamming(p, q)
		return ix.HD(dot, comp) == want && ix.HD1(0, q.Ones(), dot) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: CS and PCC upper bounds dominate the exact values for
// arbitrary [0,1] vectors.
func TestSimilarityUpperBoundsQuick(t *testing.T) {
	f := func(rawP, rawQ []float64) bool {
		p := clampUnitVec(rawP)
		qv := clampUnitVec(rawQ)
		n := len(p)
		if len(qv) < n {
			n = len(qv)
		}
		if n < 2 {
			return true
		}
		p, qv = p[:n], qv[:n]
		qz, err := quant.New(1e6)
		if err != nil {
			return false
		}
		m, err := vec.FromRows([][]float64{p})
		if err != nil {
			return false
		}
		ix := BuildCS(m, qz)
		qf := ix.Query(qv)
		dot := ix.HostDot(0, qf)
		return ix.UBCS(0, &qf, dot) >= measure.Cosine(p, qv)-1e-9 &&
			ix.UBPCC(0, &qf, dot) >= measure.Pearson(p, qv)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}
