package exp

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pimmine/internal/arch"
	"pimmine/internal/crossbar"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
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
	// paper's Table 5 geometry (M=256, 2-bit cells, 2-bit DACs). Dense
	// 8-bit operands occupy every bit plane. The HD decomposition shape
	// (Table 4) has 1-bit operands and input: one cell per operand, and the
	// planes collapse to a single AND+popcount per 64 cells. The FNN
	// payload shape is 32-bit operands holding 20-bit ⌊α·µ⌋ values at
	// s=210: 12 of the 32 planes on either side are empty and the
	// word-parallel walk skips them, the reference cannot.
	spec := crossbar.Spec{M: 256, CellBits: 2, DACBits: 2, ReadLatencyNs: 29.31, WriteLatencyNs: 50.88}
	for _, sh := range []struct {
		name                    string
		dims, opBits, valueBits int
	}{
		{"CrossbarDotAll", 256, 8, 8},
		{"CrossbarDotAll-HD", 256, 1, 1},
		{"CrossbarDotAll-FNN", 210, 32, 20},
	} {
		mask := uint32(1)<<uint(sh.valueBits) - 1
		nvecs := spec.VectorsPerCrossbar(sh.dims, sh.opBits)
		xb := crossbar.New(spec)
		vals := make([]uint32, sh.dims)
		for v := 0; v < nvecs; v++ {
			for i := range vals {
				vals[i] = rng.Uint32() & mask
			}
			if _, err := xb.ProgramVector(vals, sh.opBits); err != nil {
				return nil, fmt.Errorf("ext-kernels: %s: program crossbar: %w", sh.name, err)
			}
		}
		input := make([]uint32, sh.dims)
		for i := range input {
			input[i] = rng.Uint32() & mask
		}
		want, _, err := xb.DotAllRef(input, sh.opBits)
		if err != nil {
			return nil, fmt.Errorf("ext-kernels: %s: DotAllRef: %w", sh.name, err)
		}
		dst := make([]int64, nvecs)
		if _, err := xb.DotAllInto(input, sh.opBits, dst); err != nil {
			return nil, fmt.Errorf("ext-kernels: %s: DotAllInto: %w", sh.name, err)
		}
		for i := range dst {
			if dst[i] != want[i] {
				return nil, fmt.Errorf("ext-kernels: %s diverges from reference at vector %d", sh.name, i)
			}
		}
		refNs := benchNs(func() { xb.DotAllRef(input, sh.opBits) })
		optNs := benchNs(func() { xb.DotAllInto(input, sh.opBits, dst) })
		shape := fmt.Sprintf("M=%d d=%d op=%db ×%d vecs", spec.M, sh.dims, sh.opBits, nvecs)
		if sh.valueBits < sh.opBits {
			shape = fmt.Sprintf("M=%d d=%d op=%db, %d-bit values ×%d vecs", spec.M, sh.dims, sh.opBits, sh.valueBits, nvecs)
		}
		t.AddRow(sh.name, shape, ms2(refNs), ms2(optNs), speedup(refNs, optNs))
	}

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
	// the per-row reference loop. The Opt column is whichever body of the
	// sweep vec takes on this CPU: AVX2 assembly on amd64 that has it, the
	// Go four-row loop elsewhere.
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
	refNs := benchNs(func() { perRowRef(sweepRef) })
	optNs := benchNs(func() { vec.IntDotRows(slab, sweepS, sq, sweepOpt) })
	t.AddRow("IntDotRows", fmt.Sprintf("N=%d s=%d", sweepN, sweepS), ms2(refNs), ms2(optNs), speedup(refNs, optNs))

	// Is that sweep bound by memory traffic or by the multiplier (the Go
	// body is, at 1.1-1.3x; the AVX2 one, at ~2.1x, is not)? The same
	// MAC count two ways: eight 4.2 MB slabs visited round-robin, so every
	// sweep streams a slab the previous seven evicted from L1/L2, against
	// one 168 KB slab that stays there, swept 25 times. Not a ref/opt pair:
	// the Ref column is the streaming form, Opt the resident one.
	const resSlabs, resN = 8, 200
	slabs := [resSlabs][]uint32{slab}
	for i := 1; i < resSlabs; i++ {
		slabs[i] = append([]uint32(nil), slab...)
	}
	next := 0
	refNs = benchNs(func() {
		vec.IntDotRows(slabs[next%resSlabs], sweepS, sq, sweepOpt)
		next++
	})
	small := slab[:resN*sweepS]
	optNs = benchNs(func() {
		for i := 0; i < sweepN/resN; i++ {
			vec.IntDotRows(small, sweepS, sq, sweepOpt[:resN])
		}
	})
	t.AddRow("IntDotRows-residency", fmt.Sprintf("%d×(N=%d) round-robin vs %d×(N=%d), s=%d", resSlabs, sweepN, sweepN/resN, resN, sweepS),
		ms2(refNs), ms2(optNs), speedup(refNs, optNs))

	// What a lazy first stage pays in place of that sweep (pim.UpperAll,
	// pim.DotRows), through the engine's own entry points and over the same
	// eight round-robin slabs, so rows are fetched from memory as a shard
	// visit fetches them. Hit: the digest's sweep plus digestFixups
	// single-row dots, the rows a wire-knn visit tightens. Miss: the
	// digest's sweep and then the full sweep anyway, what a query pays when
	// the digest proves nothing (the GIST profile).
	const digestFixups = 150
	eng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		return nil, err
	}
	var pays [resSlabs]*pim.Payload
	for i := range pays {
		rows := slabs[i]
		pays[i], err = eng.Program(fmt.Sprintf("ext-kernels/%d", i), sweepN, sweepS, 1,
			func(r int) []uint32 { return rows[r*sweepS : (r+1)*sweepS] })
		if err != nil {
			return nil, fmt.Errorf("ext-kernels: %w", err)
		}
	}
	qd := make([]uint32, pays[0].DigestDims())
	fixups := make([]int, digestFixups)
	for i := range fixups {
		fixups[i] = i*(sweepN/digestFixups) + i%7
	}
	upper, ok := eng.UpperAll(pays[0], sq, qd, nil)
	if !ok {
		return nil, fmt.Errorf("ext-kernels: the digest refused the benchmark query")
	}
	tightened := append([]int64(nil), upper...)
	eng.DotRows(pays[0], sq, fixups, tightened)
	for r := range sweepRef {
		if upper[r] < sweepRef[r] {
			return nil, fmt.Errorf("ext-kernels: digest bound %d below the dot %d at row %d", upper[r], sweepRef[r], r)
		}
	}
	for _, r := range fixups {
		if tightened[r] != sweepRef[r] {
			return nil, fmt.Errorf("ext-kernels: DotRows diverges from the per-row reference at row %d", r)
		}
	}
	fullSweep := func() {
		if sweepOpt, err = eng.QueryAll(nil, "", pays[next%resSlabs], sq, sweepOpt); err != nil {
			panic(err) // the shape was accepted above
		}
	}
	refNs = benchNs(func() { fullSweep(); next++ })
	optNs = benchNs(func() {
		upper, _ = eng.UpperAll(pays[next%resSlabs], sq, qd, upper)
		eng.DotRows(pays[next%resSlabs], sq, fixups, upper)
		next++
	})
	t.AddRow("IntDotRows-digest", fmt.Sprintf("full sweep vs digest sweep + %d single-row dots, N=%d s=%d round-robin", digestFixups, sweepN, sweepS),
		ms2(refNs), ms2(optNs), speedup(refNs, optNs))
	refNs = benchNs(func() { fullSweep(); next++ }) // again: each quotient from neighbouring batches
	missNs := benchNs(func() {
		upper, _ = eng.UpperAll(pays[next%resSlabs], sq, qd, upper)
		fullSweep()
		next++
	})
	t.AddRow("IntDotRows-digest-miss", fmt.Sprintf("full sweep vs digest sweep + full sweep, N=%d s=%d round-robin", sweepN, sweepS),
		ms2(refNs), ms2(missNs), speedup(refNs, missNs))

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
	t.Note("IntDotRows-residency is not a ref/opt pair: equal MACs streamed from eight 4.2 MB slabs (Ref column) and from one cache-resident 168 KB slab (Opt column); the ratio is the most a sweep could gain from never missing cache. Near 1x the sweep is bound by the multiplier (the Go body reads 1.1-1.3x); the AVX2 body reads ~2x with the streaming column near 4.2 MB in 0.2 ms, 20 GB/s: it waits for bytes, so bytes per row and queries per byte read are what is left to take")
	t.Note("IntDotRows-digest and -miss are not ref/opt pairs of one kernel either: Ref is the engine's full exact-mode sweep of a 5000 x 210 payload, Opt what a cascade's lazy first stage runs in its place, both over the eight round-robin slabs. 150 fix-ups is the measured mean a wire-knn shard visit tightens (153.1 of 5000 rows, 64 pool queries at seed 11, per payload); -miss is a query the digest proves nothing about, expected near 0.9x: the digest's sweep reads 1/32 of the bytes again")
	t.Note("measured wall clock (best of 3), not modeled PIM time; float kernels keep the reference's evaluation order, so their win is bounds-check elimination only; an integer sweep (IntDotRows) walks four rows in lockstep, one per quarter of the slab, eight columns an instruction in the AVX2 assembly body where CPUID allows it (3-4x the per-row reference) and in the 4-wide index-blocked Go body elsewhere (1.4-1.7x); IntDot is a lone row and always the Go body")
	return t, nil
}

// ms2 formats a nanosecond measurement.
func ms2(ns float64) string { return fmt.Sprintf("%.1f", ns) }
