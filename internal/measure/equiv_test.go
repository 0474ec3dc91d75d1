package measure

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// Differential tests pinning the unrolled SqEuclidean kernel bit-identical
// to the retained reference (same accumulator, same evaluation order) —
// the license for using it under the byte-identical eval goldens.

func TestSqEuclideanMatchesRef(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 128, 257} {
		for rep := 0; rep < 4; rep++ {
			p := make([]float64, n)
			q := make([]float64, n)
			for i := range p {
				p[i] = rng.NormFloat64()
				q[i] = rng.NormFloat64() * 1e3
			}
			got, want := SqEuclidean(p, q), SqEuclideanRef(p, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: SqEuclidean=%x, ref=%x", n, math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestSqEuclidean4MatchesRef pins each of SqEuclidean4's four results to
// the reference on its own row, at every length across the 4-element
// blocks, with distinct rows and with rows aliasing one slice, as the
// cascade's padded groups pass them.
func TestSqEuclidean4MatchesRef(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 257; n++ {
		var rows [4][]float64
		for r := range rows {
			rows[r] = make([]float64, n)
			for i := range rows[r] {
				rows[r][i] = rng.NormFloat64() * float64(r+1)
			}
		}
		q := make([]float64, n)
		for i := range q {
			q[i] = rng.NormFloat64() * 1e3
		}
		for _, pick := range [][4]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {0, 0, 0, 0}, {1, 2, 1, 1}} {
			p := [4][]float64{rows[pick[0]], rows[pick[1]], rows[pick[2]], rows[pick[3]]}
			var got [4]float64
			got[0], got[1], got[2], got[3] = SqEuclidean4(p[0], p[1], p[2], p[3], q)
			for r := range got {
				if want := SqEuclideanRef(p[r], q); math.Float64bits(got[r]) != math.Float64bits(want) {
					t.Fatalf("n=%d rows %v: SqEuclidean4[%d]=%x, ref=%x", n, pick, r, math.Float64bits(got[r]), math.Float64bits(want))
				}
			}
		}
	}
}

func TestSqEuclidean4LengthMismatchPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("SqEuclidean4 accepted a row shorter than the query")
		}
	}()
	row := make([]float64, 8)
	SqEuclidean4(row, row, row[:7], row, row)
}

// FuzzMeasureKernelEquivalence drives arbitrary byte payloads through the
// optimized distance kernel and its reference, requiring bit-identical
// sums.
func FuzzMeasureKernelEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("0123456789abcdef0123456789abcdef"))
	seed := make([]byte, 8*17)
	for i := range seed {
		seed[i] = byte(i * 31)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 16
		p := make([]float64, n)
		q := make([]float64, n)
		for i := 0; i < n; i++ {
			fp := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16:]))
			fq := math.Float64frombits(binary.LittleEndian.Uint64(data[i*16+8:]))
			if math.IsNaN(fp) || math.IsInf(fp, 0) {
				fp = float64(i)
			}
			if math.IsNaN(fq) || math.IsInf(fq, 0) {
				fq = -float64(i)
			}
			p[i], q[i] = fp, fq
		}
		got, want := SqEuclidean(p, q), SqEuclideanRef(p, q)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: SqEuclidean=%x, ref=%x", n, math.Float64bits(got), math.Float64bits(want))
		}

		// SqEuclidean4 over four rows cut from p — its first, second, first
		// again (an aliased slot, as padding passes it) and fourth quarters —
		// against q's first quarter.
		m := n / 4
		rows := [4][]float64{p[:m], p[m : 2*m], p[:m], p[3*m : 4*m]}
		var got4 [4]float64
		got4[0], got4[1], got4[2], got4[3] = SqEuclidean4(rows[0], rows[1], rows[2], rows[3], q[:m])
		for r, row := range rows {
			if want := SqEuclideanRef(row, q[:m]); math.Float64bits(got4[r]) != math.Float64bits(want) {
				t.Fatalf("m=%d: SqEuclidean4[%d]=%x, ref=%x", m, r, math.Float64bits(got4[r]), math.Float64bits(want))
			}
		}
	})
}
