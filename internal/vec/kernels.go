package vec

// This file holds the unrolled hot-loop kernels behind Dot, IntDot,
// IntDotRows and SqNorm; the retained scalar references the
// kernel-equivalence harness pins them against live in kernels_ref.go.
//
// One body is assembly: intDotQuadsAVX2 (intdot_amd64.s), the integer
// sweep's four-row step at eight columns an instruction, past the one
// IMULQ a cycle the Go step is held to. It keeps the lockstep: PR 15's
// single-stream sweep was refused for the spread of its query_p95_refs,
// and a faster body waits on its loads for more of its time, not less.
// intDotRowsKernel takes it on amd64 when the CPU says it has AVX2 and the
// OS saves YMM state (detectAVX2); no tag, variable or option selects it.
//
// The gc compiler does not auto-vectorise, under any GOAMD64 level: what
// the Go bodies buy is unrolling, independent accumulators where the
// arithmetic allows them, and no per-element bounds check — `go build
// -gcflags=-d=ssa/check_bce` reports no IsInBounds in this file, which
// the CI kernel-verify job asserts. Bounds-check-free is necessary, not
// sufficient: the float kernels use the slice-advancing idiom (index
// constants under a len guard, then a=a[4:]), which has no checks at all
// but rewrites two three-word slice headers per step; the integer kernel
// is index-blocked (one IsSliceInBounds re-slice per row per 4-element
// block, a plain induction variable), which measured ~1.35× faster than
// the slice-advancing form of the same body on a 5000×210 sweep.
//
// CRITICAL INVARIANT — float kernels preserve evaluation order. The float
// accumulations run in strictly ascending index order into a single
// accumulator, exactly like the references: reassociating float adds
// (e.g. four partial sums) would change low-order bits and break the
// byte-identical differential goldens in internal/eval. Only the integer
// kernel uses multiple accumulators, because integer addition is
// associative and the reassociation is exact.

// dotKernel is the unrolled float dot product. Single accumulator,
// ascending index order — bit-identical to DotRef.
func dotKernel(a, b []float64) float64 {
	var s float64
	for len(a) >= 4 && len(b) >= 4 {
		s += a[0] * b[0]
		s += a[1] * b[1]
		s += a[2] * b[2]
		s += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for len(a) > 0 && len(b) > 0 {
		s += a[0] * b[0]
		a, b = a[1:], b[1:]
	}
	return s
}

// intDotQuadsGo is the quad body in Go, the only one off amd64 and on x86
// without AVX2: dst[r+i·h] = rows[(r+i·h)·len(q):][:len(q)]·q for r < h and
// i < 4, with no per-row call, closure or re-validation.
//
// A sweep walks four rows in lockstep, one from each quarter of the slab,
// against one load of q. A single front-to-back pass leaves the core with
// one stream of cache misses to wait on, and how long that wait is depends
// on what else the machine is doing: on a 5000×210 sweep it measured
// 0.47-1.26 ms from a quiet to a busy spell of the same box. Four
// independent streams keep four times the loads in flight: 0.41-0.85 ms,
// faster in the quiet spells and half as sensitive to the busy ones. The
// adds of a block are summed before they reach the accumulator, so one
// accumulator per row keeps the multiplier busy (exact for integers,
// modulo 2⁶⁴ like IntDotRef).
func intDotQuadsGo(rows, q []uint32, dst []int64, h int) {
	dims := len(q)
	d0, d1, d2, d3 := dst[:h], dst[h:][:h], dst[2*h:][:h], dst[3*h:][:h]
	for r := range d0 {
		r0 := rows[r*dims : (r+1)*dims]
		r1 := rows[(r+h)*dims : (r+h+1)*dims]
		r2 := rows[(r+2*h)*dims : (r+2*h+1)*dims]
		r3 := rows[(r+3*h)*dims : (r+3*h+1)*dims]
		var s0, s1, s2, s3 int64
		j := 0
		for ; j+4 <= dims; j += 4 {
			a, b, c, d := r0[j:j+4:j+4], r1[j:j+4:j+4], r2[j:j+4:j+4], r3[j:j+4:j+4]
			k := q[j : j+4 : j+4]
			k0, k1, k2, k3 := int64(k[0]), int64(k[1]), int64(k[2]), int64(k[3])
			s0 += int64(a[0])*k0 + int64(a[1])*k1 + int64(a[2])*k2 + int64(a[3])*k3
			s1 += int64(b[0])*k0 + int64(b[1])*k1 + int64(b[2])*k2 + int64(b[3])*k3
			s2 += int64(c[0])*k0 + int64(c[1])*k1 + int64(c[2])*k2 + int64(c[3])*k3
			s3 += int64(d[0])*k0 + int64(d[1])*k1 + int64(d[2])*k2 + int64(d[3])*k3
		}
		k := q[j:]
		a, b, c, d := r0[j:][:len(k)], r1[j:][:len(k)], r2[j:][:len(k)], r3[j:][:len(k)]
		for i, ki := range k {
			s0 += int64(a[i]) * int64(ki)
			s1 += int64(b[i]) * int64(ki)
			s2 += int64(c[i]) * int64(ki)
			s3 += int64(d[i]) * int64(ki)
		}
		d0[r], d1[r], d2[r], d3[r] = s0, s1, s2, s3
	}
}

// intDotRowsKernel is the integer dot product: it sets
// dst[r] = rows[r·len(q):(r+1)·len(q)]·q for every r. The caller has
// checked len(rows) == len(dst)·len(q). The first 4·(len(dst)/4) rows go
// four at a time to a quad body — this is the one place that chooses it —
// and the len(dst)%4 rows left over, and IntDot's single row, run the Go
// body's 4-wide block one row at a time.
func intDotRowsKernel(rows, q []uint32, dst []int64) {
	dims := len(q)
	h := len(dst) / 4
	switch {
	case h == 0: // IntDot's row, or under four of them: no quad, no call
	case hasAVX2 && dims > 0:
		steps := max(1, quadCallElems/(4*dims))
		for r := 0; r < h; r += steps {
			intDotQuadsAVX2(rows[r*dims:], q, dst[r:], h, min(steps, h-r))
		}
	default:
		intDotQuadsGo(rows, q, dst, h)
	}
	rest := dst[4*h:]
	for i := range rest {
		row := rows[(4*h+i)*dims : (4*h+i+1)*dims]
		var s int64
		j := 0
		for ; j+4 <= dims; j += 4 {
			a, k := row[j:j+4:j+4], q[j:j+4:j+4]
			s += int64(a[0])*int64(k[0]) + int64(a[1])*int64(k[1]) + int64(a[2])*int64(k[2]) + int64(a[3])*int64(k[3])
		}
		k := q[j:]
		a := row[j:][:len(k)]
		for i, ki := range k {
			s += int64(a[i]) * int64(ki)
		}
		rest[i] = s
	}
}

// quadCallElems is the most multiply-adds one intDotQuadsAVX2 call covers.
// Assembly is not asynchronously preemptible — the scheduler and a GC stop
// wait for it to return — so the Go loop above cuts a sweep into calls of
// ~25 µs at the streaming rate (a full-scale MSD payload, 992 272 × 210,
// swept in one call would hold its P for ~40 ms).
const quadCallElems = 1 << 17

// sqNormKernel is the unrolled squared norm. Single accumulator,
// ascending index order — bit-identical to SqNormRef.
func sqNormKernel(a []float64) float64 {
	var s float64
	for len(a) >= 4 {
		s += a[0] * a[0]
		s += a[1] * a[1]
		s += a[2] * a[2]
		s += a[3] * a[3]
		a = a[4:]
	}
	for len(a) > 0 {
		s += a[0] * a[0]
		a = a[1:]
	}
	return s
}
