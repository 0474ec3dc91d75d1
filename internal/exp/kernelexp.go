package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pimmine/internal/crossbar"
	"pimmine/internal/measure"
	"pimmine/internal/vec"
)

func init() {
	register("ext-kernels", ExtKernels)
}

// benchNs measures one operation's wall-clock nanoseconds: it runs f in
// growing batches until a batch takes at least minBatch, three times, and
// keeps the best (least-interrupted) batch. Best-of keeps the artifact
// stable across noisy CI machines; unlike the modeled times everywhere
// else in this harness, these are real measured nanoseconds.
func benchNs(f func()) float64 {
	const minBatch = 2 * time.Millisecond
	iters := 1
	best := math.MaxFloat64
	for rep := 0; rep < 3; rep++ {
		for {
			start := time.Now()
			for i := 0; i < iters; i++ {
				f()
			}
			elapsed := time.Since(start)
			if elapsed >= minBatch {
				if ns := float64(elapsed.Nanoseconds()) / float64(iters); ns < best {
					best = ns
				}
				break
			}
			iters *= 4
		}
	}
	return best
}

// ExtKernels benchmarks the optimized hot-path kernels against their
// retained scalar references — the perf half of the kernel-equivalence
// harness (the tests and fuzzers pin bit-identity; this pins the speedup
// that justifies the optimized code's existence). Every pair is checked
// for agreement on the benchmark inputs before timing, so a divergence
// fails the run rather than producing a meaningless speedup row.
func ExtKernels(s *Suite) (*Table, error) {
	t := &Table{
		ID:     "ext-kernels",
		Title:  "Optimized kernels vs retained scalar references (measured wall clock)",
		Header: []string{"Kernel", "Shape", "Ref(ns/op)", "Opt(ns/op)", "Speedup"},
	}
	rng := rand.New(rand.NewSource(s.Seed))

	// Word-parallel bit-plane crossbar vs cell-at-a-time reference, on the
	// paper's Table 5 geometry (M=256, 2-bit cells, 2-bit DACs, 8-bit
	// operands → 64 dims per vector slot at full packing).
	spec := crossbar.Spec{M: 256, CellBits: 2, DACBits: 2, ReadLatencyNs: 29.31, WriteLatencyNs: 50.88}
	const dims, opBits = 256, 8
	nvecs := spec.VectorsPerCrossbar(dims, opBits)
	xb := crossbar.New(spec)
	for v := 0; v < nvecs; v++ {
		vals := make([]uint32, dims)
		for i := range vals {
			vals[i] = rng.Uint32() & 0xff
		}
		if _, err := xb.ProgramVector(vals, opBits); err != nil {
			return nil, fmt.Errorf("ext-kernels: program crossbar: %w", err)
		}
	}
	input := make([]uint32, dims)
	for i := range input {
		input[i] = rng.Uint32() & 0xff
	}
	want, _, err := xb.DotAllRef(input, opBits)
	if err != nil {
		return nil, fmt.Errorf("ext-kernels: DotAllRef: %w", err)
	}
	dst := make([]int64, nvecs)
	if _, err := xb.DotAllInto(input, opBits, dst); err != nil {
		return nil, fmt.Errorf("ext-kernels: DotAllInto: %w", err)
	}
	for i := range dst {
		if dst[i] != want[i] {
			return nil, fmt.Errorf("ext-kernels: crossbar DotAll diverges from reference at vector %d", i)
		}
	}
	refNs := benchNs(func() { xb.DotAllRef(input, opBits) })
	optNs := benchNs(func() { xb.DotAllInto(input, opBits, dst) })
	t.AddRow("CrossbarDotAll", fmt.Sprintf("M=%d d=%d op=%db ×%d vecs", spec.M, dims, opBits, nvecs),
		ms2(refNs), ms2(optNs), speedup(refNs, optNs))

	// Same kernel on the HD decomposition shape (Table 4): 1-bit operands,
	// 1-bit input — one cell per operand packs a vector per row, and the
	// word-parallel planes collapse to a single AND+popcount per 64 cells.
	bvecs := spec.VectorsPerCrossbar(dims, 1)
	xbb := crossbar.New(spec)
	for v := 0; v < bvecs; v++ {
		vals := make([]uint32, dims)
		for i := range vals {
			vals[i] = rng.Uint32() & 1
		}
		if _, err := xbb.ProgramVector(vals, 1); err != nil {
			return nil, fmt.Errorf("ext-kernels: program binary crossbar: %w", err)
		}
	}
	binput := make([]uint32, dims)
	for i := range binput {
		binput[i] = rng.Uint32() & 1
	}
	bwant, _, err := xbb.DotAllRef(binput, 1)
	if err != nil {
		return nil, fmt.Errorf("ext-kernels: binary DotAllRef: %w", err)
	}
	bdst := make([]int64, bvecs)
	if _, err := xbb.DotAllInto(binput, 1, bdst); err != nil {
		return nil, fmt.Errorf("ext-kernels: binary DotAllInto: %w", err)
	}
	for i := range bdst {
		if bdst[i] != bwant[i] {
			return nil, fmt.Errorf("ext-kernels: binary crossbar DotAll diverges from reference at vector %d", i)
		}
	}
	refNs = benchNs(func() { xbb.DotAllRef(binput, 1) })
	optNs = benchNs(func() { xbb.DotAllInto(binput, 1, bdst) })
	t.AddRow("CrossbarDotAll-HD", fmt.Sprintf("M=%d d=%d op=1b ×%d vecs", spec.M, dims, bvecs),
		ms2(refNs), ms2(optNs), speedup(refNs, optNs))

	// Host-side kernels at a typical Table 6 dimensionality.
	const d = 420
	fa := make([]float64, d)
	fb := make([]float64, d)
	ia := make([]uint32, d)
	ib := make([]uint32, d)
	for i := 0; i < d; i++ {
		fa[i] = rng.NormFloat64()
		fb[i] = rng.NormFloat64()
		ia[i] = rng.Uint32() & 0xff
		ib[i] = rng.Uint32() & 0xff
	}
	type pair struct {
		name     string
		ref, opt func()
		agree    bool
	}
	var sink float64
	var isink int64
	pairs := []pair{
		{"IntDot", func() { isink = vec.IntDotRef(ia, ib) }, func() { isink = vec.IntDot(ia, ib) },
			vec.IntDot(ia, ib) == vec.IntDotRef(ia, ib)},
		{"Dot", func() { sink = vec.DotRef(fa, fb) }, func() { sink = vec.Dot(fa, fb) },
			math.Float64bits(vec.Dot(fa, fb)) == math.Float64bits(vec.DotRef(fa, fb))},
		{"SqNorm", func() { sink = vec.SqNormRef(fa) }, func() { sink = vec.SqNorm(fa) },
			math.Float64bits(vec.SqNorm(fa)) == math.Float64bits(vec.SqNormRef(fa))},
		{"SqEuclidean", func() { sink = measure.SqEuclideanRef(fa, fb) }, func() { sink = measure.SqEuclidean(fa, fb) },
			math.Float64bits(measure.SqEuclidean(fa, fb)) == math.Float64bits(measure.SqEuclideanRef(fa, fb))},
	}
	for _, p := range pairs {
		if !p.agree {
			return nil, fmt.Errorf("ext-kernels: %s diverges from its reference", p.name)
		}
		refNs := benchNs(p.ref)
		optNs := benchNs(p.opt)
		t.AddRow(p.name, fmt.Sprintf("d=%d", d), ms2(refNs), ms2(optNs), speedup(refNs, optNs))
	}
	_, _ = sink, isink

	// The exact-mode payload sweep: one blocked IntDotRows call over a
	// row-major slab (one serving shard's ⌊µ⌋ payload: N=5000, s=210) vs
	// the per-row reference loop.
	const sweepN, sweepS = 5000, 210
	slab := make([]uint32, sweepN*sweepS)
	for i := range slab {
		slab[i] = rng.Uint32() & 0xff
	}
	sq := ia[:sweepS]
	perRowRef := func(dst []int64) {
		for r := range dst {
			dst[r] = vec.IntDotRef(slab[r*sweepS:(r+1)*sweepS], sq)
		}
	}
	sweepRef, sweepOpt := make([]int64, sweepN), make([]int64, sweepN)
	perRowRef(sweepRef)
	vec.IntDotRows(slab, sweepS, sq, sweepOpt)
	for r := range sweepRef {
		if sweepOpt[r] != sweepRef[r] {
			return nil, fmt.Errorf("ext-kernels: IntDotRows diverges from the per-row reference at row %d", r)
		}
	}
	refNs = benchNs(func() { perRowRef(sweepRef) })
	optNs = benchNs(func() { vec.IntDotRows(slab, sweepS, sq, sweepOpt) })
	t.AddRow("IntDotRows", fmt.Sprintf("N=%d s=%d", sweepN, sweepS), ms2(refNs), ms2(optNs), speedup(refNs, optNs))

	// The zero-alloc refine scratch path: per-query FNN feature statistics
	// through caller-owned buffers (SegmentStatsInto, what SearchAppend
	// uses) vs the allocating SegmentStats it replaced on the hot path.
	const segs = 105 // s for MSD at full scale (Theorem 4)
	muBuf := make([]float64, segs)
	sgBuf := make([]float64, segs)
	if err := vec.SegmentStatsInto(fa, segs, muBuf, sgBuf); err != nil {
		return nil, fmt.Errorf("ext-kernels: SegmentStatsInto: %w", err)
	}
	muRef, sgRef, err := vec.SegmentStats(fa, segs)
	if err != nil {
		return nil, fmt.Errorf("ext-kernels: SegmentStats: %w", err)
	}
	for i := range muRef {
		if math.Float64bits(muRef[i]) != math.Float64bits(muBuf[i]) ||
			math.Float64bits(sgRef[i]) != math.Float64bits(sgBuf[i]) {
			return nil, fmt.Errorf("ext-kernels: SegmentStatsInto diverges from SegmentStats at segment %d", i)
		}
	}
	refNs = benchNs(func() { vec.SegmentStats(fa, segs) })
	optNs = benchNs(func() { vec.SegmentStatsInto(fa, segs, muBuf, sgBuf) })
	t.AddRow("SegmentStats", fmt.Sprintf("d=%d s=%d", d, segs), ms2(refNs), ms2(optNs), speedup(refNs, optNs))
	t.Note("all pairs verified bit-identical on the benchmark inputs before timing")
	t.Note("measured wall clock (best of 3), not modeled PIM time; float kernels keep the reference's evaluation order, so their win is bounds-check elimination only; the integer kernel (IntDot, IntDotRows) is 4-wide and index-blocked, and a sweep walks four rows in lockstep, one per quarter of the slab")
	return t, nil
}

// ms2 formats a nanosecond measurement.
func ms2(ns float64) string { return fmt.Sprintf("%.1f", ns) }
