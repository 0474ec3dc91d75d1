// Optimized distance kernel. This file must stay free of bounds checks:
// the CI kernel-verify job compiles it with -d=ssa/check_bce and fails on
// any IsInBounds. The retained reference lives in kernels_ref.go.
package measure

// sqEuclideanKernel is the 4-wide unrolled, bounds-check-free ED loop —
// the single hottest kernel in the repository (every refine step of every
// mining task lands here). Float adds stay in ascending index order into
// one accumulator so the result is bit-identical to the reference; see
// internal/vec/kernels.go for the ordering invariant.
func sqEuclideanKernel(p, q []float64) float64 {
	var s float64
	for len(p) >= 4 && len(q) >= 4 {
		d0 := p[0] - q[0]
		s += d0 * d0
		d1 := p[1] - q[1]
		s += d1 * d1
		d2 := p[2] - q[2]
		s += d2 * d2
		d3 := p[3] - q[3]
		s += d3 * d3
		p, q = p[4:], q[4:]
	}
	for len(p) > 0 && len(q) > 0 {
		d := p[0] - q[0]
		s += d * d
		p, q = p[1:], q[1:]
	}
	return s
}

// sqEuclidean4Kernel is sqEuclideanKernel over four rows against one q:
// each row keeps its own accumulator, summed in ascending index order, so
// every result is bit-identical to the reference, and the four dependency
// chains overlap in the float adder's pipeline where one chain waits out
// each add's latency. Each 4-element block re-slices the five operands
// once (IsSliceInBounds) and indexes them check-free; advancing five
// slices instead keeps fifteen slice words live and spills. Every p must
// be as long as q.
func sqEuclidean4Kernel(p0, p1, p2, p3, q []float64) (s0, s1, s2, s3 float64) {
	j := 0
	for ; j+4 <= len(q); j += 4 {
		k := q[j : j+4 : j+4]
		a, b, c, e := p0[j:j+4:j+4], p1[j:j+4:j+4], p2[j:j+4:j+4], p3[j:j+4:j+4]
		d := a[0] - k[0]
		s0 += d * d
		d = b[0] - k[0]
		s1 += d * d
		d = c[0] - k[0]
		s2 += d * d
		d = e[0] - k[0]
		s3 += d * d
		d = a[1] - k[1]
		s0 += d * d
		d = b[1] - k[1]
		s1 += d * d
		d = c[1] - k[1]
		s2 += d * d
		d = e[1] - k[1]
		s3 += d * d
		d = a[2] - k[2]
		s0 += d * d
		d = b[2] - k[2]
		s1 += d * d
		d = c[2] - k[2]
		s2 += d * d
		d = e[2] - k[2]
		s3 += d * d
		d = a[3] - k[3]
		s0 += d * d
		d = b[3] - k[3]
		s1 += d * d
		d = c[3] - k[3]
		s2 += d * d
		d = e[3] - k[3]
		s3 += d * d
	}
	k := q[j:]
	a, b, c, e := p0[j:][:len(k)], p1[j:][:len(k)], p2[j:][:len(k)], p3[j:][:len(k)]
	for i, ki := range k {
		d := a[i] - ki
		s0 += d * d
		d = b[i] - ki
		s1 += d * d
		d = c[i] - ki
		s2 += d * d
		d = e[i] - ki
		s3 += d * d
	}
	return s0, s1, s2, s3
}
