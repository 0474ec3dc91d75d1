package vec

// This file holds the unrolled hot-loop kernels behind IntDot, IntDotRows
// and IntDotGather; the retained scalar reference the kernel-equivalence
// harness pins them against lives in kernels_ref.go. Dot and SqNorm are
// plain loops in vec.go: their callers (LSH hashing, the router's norms)
// are not on a shard visit.
//
// Two bodies are assembly (intdot_amd64.s), both four rows in lockstep at
// eight columns an instruction, past the one IMULQ a cycle the Go step is
// held to, and both built from the same macros. intDotQuadsAVX2 is the
// integer sweep's step, one row from each quarter of the slab: it keeps
// the lockstep because PR 15's single-stream sweep was refused for the
// spread of its query_p95_refs, and a faster body waits on its loads for
// more of its time, not less. intDotGatherAVX2 is the same step over four
// listed rows — the fix-ups of a lazy first stage, which lie anywhere in
// the slab, so four cache misses are in flight instead of one.
// intDotRowsKernel and intDotGatherKernel take them on amd64 when the CPU
// says it has AVX2 and the OS saves YMM state (detectAVX2); no tag,
// variable or option selects them. IntDot's lone row, and the rows a sweep
// or a gather leaves over past a multiple of four, run the Go one-row body.
//
// The gc compiler does not auto-vectorise, under any GOAMD64 level: what
// the Go bodies buy is unrolling, independent accumulators where the
// arithmetic allows them, and no per-element bounds check — `go build
// -gcflags=-d=ssa/check_bce` reports no IsInBounds in this file but the
// one per listed index where intDotGatherGo writes its slot, which the CI
// kernel-verify job asserts. Bounds-check-free is necessary, not
// sufficient: the integer kernel is index-blocked (one IsSliceInBounds
// re-slice per row per 4-element block, a plain induction variable), which
// measured ~1.35× faster than the slice-advancing form of the same body
// (index constants under a len guard, then a=a[4:], no checks at all but
// two three-word slice headers rewritten per step) on a 5000×210 sweep.
// Its bodies keep several accumulators because integer addition is
// associative and the reassociation is exact.

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
// faster in the quiet spells and half as sensitive to the busy ones.
func intDotQuadsGo(rows, q []uint32, dst []int64, h int) {
	dims := len(q)
	d0, d1, d2, d3 := dst[:h], dst[h:][:h], dst[2*h:][:h], dst[3*h:][:h]
	for r := range d0 {
		d0[r], d1[r], d2[r], d3[r] = quadDotGo(
			rows[r*dims:(r+1)*dims], rows[(r+h)*dims:(r+h+1)*dims],
			rows[(r+2*h)*dims:(r+2*h+1)*dims], rows[(r+3*h)*dims:(r+3*h+1)*dims], q)
	}
}

// intDotGatherGo is the gathered body in Go, the only one off amd64 and on
// x86 without AVX2: dst[r] = slab[r·len(q):][:len(q)]·q for every r of
// rows, whose length is a multiple of four, four listed rows in lockstep.
// The rows a lazy stage lists lie anywhere in the slab, so each is a cache
// miss of its own; four at a time keep four of them in flight. Writing
// dst[r] is the one bounds check per listed index.
func intDotGatherGo(slab, q []uint32, rows []int, dst []int64) {
	dims := len(q)
	for i := 0; i+4 <= len(rows); i += 4 {
		rs := rows[i : i+4 : i+4]
		a, b, c, d := rs[0], rs[1], rs[2], rs[3]
		dst[a], dst[b], dst[c], dst[d] = quadDotGo(
			slab[a*dims:(a+1)*dims], slab[b*dims:(b+1)*dims],
			slab[c*dims:(c+1)*dims], slab[d*dims:(d+1)*dims], q)
	}
}

// quadDotGo is the four-row step of both Go bodies: the dots of r0…r3, each
// len(q) long, with q, against one load of q per block. The adds of a block
// are summed before they reach the accumulator, so one accumulator per row
// keeps the multiplier busy (exact for integers, modulo 2⁶⁴ like IntDotRef).
func quadDotGo(r0, r1, r2, r3, q []uint32) (s0, s1, s2, s3 int64) {
	dims := len(q)
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
	return s0, s1, s2, s3
}

// intDotRowsKernel is the integer dot product: it sets
// dst[r] = rows[r·len(q):(r+1)·len(q)]·q for every r. The caller has
// checked len(rows) == len(dst)·len(q). The first 4·(len(dst)/4) rows go
// four at a time to a quad body — this is the one place that chooses it —
// and the len(dst)%4 rows left over, IntDot's single row and the rows a
// gather leaves over, run the Go body's 4-wide block one row at a time.
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

// intDotGatherKernel is the gathered integer dot: it sets
// dst[r] = slab[r·len(q):(r+1)·len(q)]·q for every r of rows. The caller
// has range-checked every listed index against slab and dst. The first
// 4·(len(rows)/4) listed rows go four at a time to a gathered body — this
// is the one place that chooses it, from what intDotRowsKernel chooses
// from — and the len(rows)%4 left over run IntDot's one-row path.
func intDotGatherKernel(slab, q []uint32, rows []int, dst []int64) {
	dims := len(q)
	quads := rows[:len(rows)/4*4]
	switch {
	case len(quads) == 0:
	case hasAVX2 && dims > 0:
		per := 4 * max(1, quadCallElems/(4*dims))
		for i := 0; i < len(quads); i += per {
			intDotGatherAVX2(slab, q, quads[i:min(i+per, len(quads))], dst)
		}
	default:
		intDotGatherGo(slab, q, quads, dst)
	}
	for _, r := range rows[len(quads):] {
		intDotRowsKernel(slab[r*dims:(r+1)*dims], q, dst[r:r+1])
	}
}

// quadCallElems is the most multiply-adds one assembly call covers.
// Assembly is not asynchronously preemptible — the scheduler and a GC stop
// wait for it to return — so the Go loops above cut a sweep or a gather
// into calls of ~25 µs at the streaming rate (a full-scale MSD payload,
// 992 272 × 210, swept in one call would hold its P for ~40 ms).
const quadCallElems = 1 << 17
