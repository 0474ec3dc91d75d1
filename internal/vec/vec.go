// Package vec provides the dense-vector containers and arithmetic kernels
// that every other package in this repository builds on: row-major float
// matrices, dot products, norms, per-segment statistics, and a bounded
// top-k heap used by the kNN algorithms.
//
// All floating-point data is held as float64 for accumulation accuracy;
// the architecture model (internal/arch) separately accounts for the
// modeled operand width (32 bits, matching the paper's setup).
package vec

import (
	"fmt"
	"math"
	"slices"
)

// Matrix is a dense row-major matrix of N rows by D columns. It is the
// canonical in-memory representation of a dataset: one row per object.
//
// A matrix Rows returns over a list that is not one run is a view: its Data
// is nil and Row(i) reads row ids[i] of the parent's storage. Every reader
// of a shard goes through Row, N and D, so a view serves wherever a shard
// is read; code that reaches for Data on one fails loudly.
type Matrix struct {
	N, D int
	Data []float64 // len == N*D; nil on a view

	parent []float64 // a view's rows: row i is parent[ids[i]*D:]
	ids    []int
}

// NewMatrix allocates an N×D zero matrix.
func NewMatrix(n, d int) *Matrix {
	if n < 0 || d < 0 {
		panic(fmt.Sprintf("vec: invalid matrix shape %dx%d", n, d))
	}
	return &Matrix{N: n, D: d, Data: make([]float64, n*d)}
}

// FromRows builds a matrix from a slice of equal-length rows, copying the
// values.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return &Matrix{}, nil
	}
	d := len(rows[0])
	m := NewMatrix(len(rows), d)
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("vec: row %d has length %d, want %d", i, len(r), d)
		}
		copy(m.Row(i), r)
	}
	return m, nil
}

// Row returns row i as a slice sharing the matrix's storage.
func (m *Matrix) Row(i int) []float64 {
	data := m.Data
	if m.ids != nil {
		data, i = m.parent, m.ids[i]
	}
	return data[i*m.D : (i+1)*m.D : (i+1)*m.D]
}

// Slice returns rows [lo,hi) as a matrix view sharing m's storage — the
// zero-copy row-wise partitioning used by the sharded query engine. It
// panics on an invalid range, because shard boundaries are computed, not
// user input.
func (m *Matrix) Slice(lo, hi int) *Matrix {
	if lo < 0 || hi < lo || hi > m.N {
		panic(fmt.Sprintf("vec: slice [%d,%d) outside matrix of %d rows", lo, hi, m.N))
	}
	if m.ids != nil {
		return &Matrix{N: hi - lo, D: m.D, parent: m.parent, ids: m.ids[lo:hi:hi]}
	}
	return &Matrix{N: hi - lo, D: m.D, Data: m.Data[lo*m.D : hi*m.D : hi*m.D]}
}

// Rows returns the listed rows of m, in list order, sharing m's storage: a
// shard placed by something other than contiguous ranges, with no copy of
// the data. A list that is one ascending run lo, lo+1, … is Slice; any
// other makes a view (see Matrix), which keeps ids, so the caller must not
// modify them afterwards. An id outside m panics, as in Slice.
func (m *Matrix) Rows(ids []int) *Matrix {
	run := true
	for i, id := range ids {
		if id < 0 || id >= m.N {
			panic(fmt.Sprintf("vec: row %d outside matrix of %d rows", id, m.N))
		}
		run = run && id == ids[0]+i
	}
	switch {
	case len(ids) == 0:
		return m.Slice(0, 0)
	case run:
		return m.Slice(ids[0], ids[0]+len(ids))
	case m.ids != nil: // a view of a view reads the first parent
		mapped := make([]int, len(ids))
		for i, id := range ids {
			mapped[i] = m.ids[id]
		}
		ids = mapped
	}
	parent := m.parent
	if m.ids == nil {
		parent = m.Data
	}
	return &Matrix{N: len(ids), D: m.D, parent: parent, ids: ids}
}

// Clone returns a deep copy of the matrix; a view's is dense.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.N, m.D)
	if m.ids == nil {
		copy(c.Data, m.Data)
		return c
	}
	for i := range m.N {
		copy(c.Row(i), m.Row(i))
	}
	return c
}

// Bytes reports the modeled storage size of the matrix assuming the given
// operand width in bits (the paper models 32-bit operands regardless of the
// in-memory Go representation).
func (m *Matrix) Bytes(operandBits int) int64 {
	return int64(m.N) * int64(m.D) * int64(operandBits) / 8
}

// checkLens panics on a float-slice length mismatch with op's message.
func checkLens(op string, a, b []float64) {
	if len(a) != len(b) {
		panicLens(op, len(a), len(b))
	}
}

func panicLens(op string, la, lb int) {
	panic(fmt.Sprintf("vec: %s of mismatched lengths %d and %d", op, la, lb))
}

// Dot returns the inner product of a and b. It panics if the lengths differ,
// because a length mismatch is always a programming error in this codebase.
// The unrolled kernel is bit-identical to DotRef (same accumulator, same
// evaluation order — differentially tested).
func Dot(a, b []float64) float64 {
	checkLens("dot", a, b)
	return dotKernel(a, b)
}

// IntDot returns the inner product of two non-negative integer vectors as
// an int64, mirroring what the ReRAM crossbar computes in the analog domain.
// It is the one-row case of IntDotRows (same kernel, same 4-wide block).
// Differentially tested bit-identical to IntDotRef.
func IntDot(a, b []uint32) int64 {
	if len(a) != len(b) {
		panicLens("intdot", len(a), len(b))
	}
	var out [1]int64
	intDotRowsKernel(a, b, out[:])
	return out[0]
}

// IntDotRows computes the inner product of q with every row of a row-major
// slab: dst[r] = rows[r·dims:(r+1)·dims]·q. This is the host stand-in for
// the PIM array's one-pass dot product against a whole programmed payload.
// Like IntDot it panics on a shape mismatch (len(q) != dims or
// len(rows) != len(dst)·dims), and it is differentially tested
// bit-identical to a per-row IntDotRef loop.
func IntDotRows(rows []uint32, dims int, q []uint32, dst []int64) {
	if len(q) != dims {
		panicLens("intdotrows", dims, len(q))
	}
	if len(rows) != len(dst)*dims {
		panic(fmt.Sprintf("vec: intdotrows of a %d-element slab as %d rows of %d", len(rows), len(dst), dims))
	}
	intDotRowsKernel(rows, q, dst)
}

// IntDotGather sets dst[r] = slab[r·dims:(r+1)·dims]·q, where
// dims = len(q), for every listed r and leaves every other entry of dst
// alone: the few exact dots of a payload a lazy first stage asks for
// instead of a sweep. Rows may come in any order and more than once. Every
// index is checked before anything is written, and one whose row does not
// lie inside len(slab), or whose slot does not lie inside dst, panics as a
// slice expression does. Differentially tested bit-identical to IntDotRef
// on every listed row.
func IntDotGather(slab, q []uint32, rows []int, dst []int64) {
	dims := len(q)
	slab = slab[:len(slab):len(slab)] // a row past len(slab) is not one, whatever the cap
	for _, r := range rows {
		_, _ = slab[r*dims:(r+1)*dims], dst[r]
	}
	intDotGatherKernel(slab, q, rows, dst)
}

// Resized returns s with length n and unspecified contents, regrown
// geometrically (append's amortised doubling) when its capacity is too
// small: retained per-query scratch over an index that grows a row at a
// time is regrown O(log) times, not once per query.
func Resized[T any](s []T, n int) []T {
	if cap(s) < n {
		s = slices.Grow(s[:0], n)
	}
	return s[:n]
}

// SqNorm returns the squared L2 norm Σ aᵢ². Differentially tested
// bit-identical to SqNormRef.
func SqNorm(a []float64) float64 {
	return sqNormKernel(a)
}

// Norm returns the L2 norm.
func Norm(a []float64) float64 { return math.Sqrt(SqNorm(a)) }

// Sum returns Σ aᵢ.
func Sum(a []float64) float64 {
	var s float64
	for _, v := range a {
		s += v
	}
	return s
}

// Mean returns the arithmetic mean of a, or 0 for an empty slice.
func Mean(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	return Sum(a) / float64(len(a))
}

// Std returns the population standard deviation of a (σ with 1/n), or 0 for
// an empty slice. The population form matches the LB_FNN definition in the
// paper, where σ(p̂ᵢ) is computed over the fixed-length segment.
func Std(a []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	mu := Mean(a)
	var s float64
	for _, v := range a {
		dv := v - mu
		s += dv * dv
	}
	return math.Sqrt(s / float64(len(a)))
}

// MeanStd returns Mean(a) and Std(a) from one sum of a: the same
// arithmetic in the same order, so both are bit-identical to the
// separate calls, whose Std sums a a second time.
func MeanStd(a []float64) (mean, std float64) {
	if len(a) == 0 {
		return 0, 0
	}
	mean = Sum(a) / float64(len(a))
	var s float64
	for _, v := range a {
		dv := v - mean
		s += dv * dv
	}
	return mean, math.Sqrt(s / float64(len(a)))
}

// SegmentStats divides a d-dimensional vector into segs equal segments and
// returns the per-segment means and population standard deviations. It is
// the Φ precomputation used by LB_FNN (Hwang et al., CVPR 2012): the vector
// is split into d′ = segs segments of length l = d/segs.
//
// d must be divisible by segs; callers pick segment counts accordingly
// (the dataset generators use power-of-two-friendly dimensionalities).
func SegmentStats(v []float64, segs int) (mu, sigma []float64, err error) {
	if segs <= 0 || len(v)%segs != 0 {
		return nil, nil, fmt.Errorf("vec: cannot split %d dims into %d equal segments", len(v), segs)
	}
	mu = make([]float64, segs)
	sigma = make([]float64, segs)
	if err := SegmentStatsInto(v, segs, mu, sigma); err != nil {
		return nil, nil, err
	}
	return mu, sigma, nil
}

// SegmentStatsInto is SegmentStats writing into caller-owned buffers (both
// len segs), the allocation-free form the steady-state query paths use.
func SegmentStatsInto(v []float64, segs int, mu, sigma []float64) error {
	d := len(v)
	if segs <= 0 || d%segs != 0 {
		return fmt.Errorf("vec: cannot split %d dims into %d equal segments", d, segs)
	}
	if len(mu) != segs || len(sigma) != segs {
		return fmt.Errorf("vec: segment buffers of %d/%d, want %d", len(mu), len(sigma), segs)
	}
	l := d / segs
	for i := 0; i < segs; i++ {
		mu[i], sigma[i] = MeanStd(v[i*l : (i+1)*l])
	}
	return nil
}

// Scale multiplies every element of a by f in place.
func Scale(a []float64, f float64) {
	for i := range a {
		a[i] *= f
	}
}

// AddTo accumulates src into dst element-wise. It panics on length mismatch.
func AddTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("vec: addto of mismatched lengths %d and %d", len(dst), len(src)))
	}
	for i := range dst {
		dst[i] += src[i]
	}
}

// Equal reports whether a and b have the same length and all elements within
// tol of each other.
func Equal(a, b []float64, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > tol {
			return false
		}
	}
	return true
}
