// Package measure implements the exact similarity measures of Table 2 of
// the paper: squared Euclidean distance (ED), cosine similarity (CS),
// Pearson correlation coefficient (PCC) on floating-point vectors, and
// Hamming distance (HD) on binary vectors.
//
// Following the paper's convention, "ED" always denotes the *squared*
// Euclidean distance Σ(pᵢ−qᵢ)²; every bound in internal/bound and
// internal/pimbound is a bound on this squared form. Since x² is monotone
// on non-negative reals, kNN results under ED² match kNN under true ED.
package measure

import (
	"fmt"
	"math"
	"math/bits"
)

// Kind identifies a similarity measure.
type Kind int

const (
	// ED is squared Euclidean distance (smaller is more similar).
	ED Kind = iota
	// CS is cosine similarity (larger is more similar).
	CS
	// PCC is the Pearson correlation coefficient (larger is more similar).
	PCC
	// HD is Hamming distance on binary vectors (smaller is more similar).
	HD
)

// String returns the paper's abbreviation for the measure.
func (k Kind) String() string {
	switch k {
	case ED:
		return "ED"
	case CS:
		return "CS"
	case PCC:
		return "PCC"
	case HD:
		return "HD"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Distance reports whether smaller values of the measure mean more similar
// (true for ED and HD) as opposed to similarity scores where larger is more
// similar (CS, PCC).
func (k Kind) Distance() bool { return k == ED || k == HD }

// SqEuclidean returns ED(p,q) = Σ (pᵢ−qᵢ)², the paper's squared Euclidean
// distance. Panics on length mismatch. The unrolled kernel is
// bit-identical to SqEuclideanRef (single accumulator, ascending index
// order — differentially tested).
func SqEuclidean(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("measure: ED of mismatched lengths %d and %d", len(p), len(q)))
	}
	return sqEuclideanKernel(p, q)
}

// SqEuclidean4 returns SqEuclidean(p0, q), …, SqEuclidean(p3, q), each to
// the bit: every row keeps its own accumulator in ascending index order,
// and the four sums run in lockstep, so they take about the time of two
// rather than four. Rows may alias one another. Panics on a length
// mismatch.
func SqEuclidean4(p0, p1, p2, p3, q []float64) (d0, d1, d2, d3 float64) {
	if n := len(q); len(p0) != n || len(p1) != n || len(p2) != n || len(p3) != n {
		panic(fmt.Sprintf("measure: ED of rows of lengths %d, %d, %d and %d against %d", len(p0), len(p1), len(p2), len(p3), n))
	}
	return sqEuclidean4Kernel(p0, p1, p2, p3, q)
}

// Cosine returns CS(p,q) = p·q / (‖p‖‖q‖). If either vector has zero norm
// the similarity is defined as 0.
func Cosine(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("measure: CS of mismatched lengths %d and %d", len(p), len(q)))
	}
	var dot, np, nq float64
	for i := range p {
		dot += p[i] * q[i]
		np += p[i] * p[i]
		nq += q[i] * q[i]
	}
	if np == 0 || nq == 0 {
		return 0
	}
	return dot / math.Sqrt(np*nq)
}

// Pearson returns PCC(p,q) = Σ(pᵢ−µp)(qᵢ−µq) / (d·σp·σq), the Pearson
// correlation coefficient with population standard deviations. If either
// vector is constant (σ = 0) the correlation is defined as 0.
func Pearson(p, q []float64) float64 {
	if len(p) != len(q) {
		panic(fmt.Sprintf("measure: PCC of mismatched lengths %d and %d", len(p), len(q)))
	}
	d := float64(len(p))
	if d == 0 {
		return 0
	}
	var sp, sq float64
	for i := range p {
		sp += p[i]
		sq += q[i]
	}
	mp, mq := sp/d, sq/d
	var cov, vp, vq float64
	for i := range p {
		dp, dq := p[i]-mp, q[i]-mq
		cov += dp * dq
		vp += dp * dp
		vq += dq * dq
	}
	if vp == 0 || vq == 0 {
		return 0
	}
	return cov / math.Sqrt(vp*vq)
}

// BitVector is a packed binary vector of a fixed number of bits, used for
// Hamming-distance workloads over LSH codes.
type BitVector struct {
	Bits  int
	Words []uint64 // ceil(Bits/64) words; unused high bits are zero
}

// NewBitVector allocates an all-zero bit vector of the given length.
func NewBitVector(bits int) BitVector {
	if bits < 0 {
		panic("measure: negative bit-vector length")
	}
	return BitVector{Bits: bits, Words: make([]uint64, (bits+63)/64)}
}

// Set sets bit i to v.
func (b BitVector) Set(i int, v bool) {
	if i < 0 || i >= b.Bits {
		panic(fmt.Sprintf("measure: bit index %d out of range [0,%d)", i, b.Bits))
	}
	if v {
		b.Words[i/64] |= 1 << (i % 64)
	} else {
		b.Words[i/64] &^= 1 << (i % 64)
	}
}

// Get returns bit i.
func (b BitVector) Get(i int) bool {
	if i < 0 || i >= b.Bits {
		panic(fmt.Sprintf("measure: bit index %d out of range [0,%d)", i, b.Bits))
	}
	return b.Words[i/64]>>(i%64)&1 == 1
}

// Ones returns the population count of the vector.
func (b BitVector) Ones() int {
	n := 0
	for _, w := range b.Words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Hamming returns HD(p,q) = Σ Δ(pᵢ−qᵢ), the number of differing bits.
// Panics if the two vectors have different lengths.
func Hamming(p, q BitVector) int {
	if p.Bits != q.Bits {
		panic(fmt.Sprintf("measure: HD of mismatched lengths %d and %d", p.Bits, q.Bits))
	}
	n := 0
	for i := range p.Words {
		n += bits.OnesCount64(p.Words[i] ^ q.Words[i])
	}
	return n
}
