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

	// The crossbar's operand sweep (one integer dot per vector over the
	// operands the tile's read observes) vs the cell-at-a-time reference,
	// on the paper's Table 5 geometry (M=256, 2-bit cells, 2-bit DACs).
	// Dense 8-bit operands take four cells each. The HD decomposition shape
	// (Table 4) has 1-bit operands and input: one cell per operand, so the
	// reference does least there and the sweep's lead is smallest. The FNN
	// payload shape is 32-bit operands holding 20-bit ⌊α·µ⌋ values at
	// s=210: sixteen cells and sixteen input cycles per operand for the
	// reference, one multiply-add for the sweep.
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

	// The exact step of a grouped walk: four rows against one query as
	// four SqEuclidean calls, one dependency chain each and one after
	// another (Ref), and as one SqEuclidean4, the four chains in lockstep
	// (Opt), at MSD's d and at Trevi's.
	for _, d4 := range []int{d, 4096} {
		var rows [4][]float64
		for r := range rows {
			rows[r] = make([]float64, d4)
			for i := range rows[r] {
				rows[r][i] = rng.NormFloat64()
			}
		}
		q4 := make([]float64, d4)
		for i := range q4 {
			q4[i] = rng.NormFloat64()
		}
		var got [4]float64
		got[0], got[1], got[2], got[3] = measure.SqEuclidean4(rows[0], rows[1], rows[2], rows[3], q4)
		for r, row := range rows {
			if math.Float64bits(got[r]) != math.Float64bits(measure.SqEuclideanRef(row, q4)) {
				return nil, fmt.Errorf("ext-kernels: SqEuclidean4 diverges from its reference at row %d, d=%d", r, d4)
			}
		}
		refNs := benchNs(func() {
			for _, row := range rows {
				sink += measure.SqEuclidean(row, q4)
			}
		})
		optNs := benchNs(func() {
			a, b, c, e := measure.SqEuclidean4(rows[0], rows[1], rows[2], rows[3], q4)
			sink += a + b + c + e
		})
		name := "SqEuclidean4"
		if d4 != d {
			name = fmt.Sprintf("SqEuclidean4-%d", d4)
		}
		t.AddRow(name, fmt.Sprintf("4 rows, d=%d", d4), ms2(refNs), ms2(optNs), speedup(refNs, optNs))
	}

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
	// visit fetches them. Hit: the digest's sweep plus the gathered dots of
	// digestFixups rows, the rows a wire-knn visit tightens. Miss: the
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

	// Those fix-ups alone: a vec.IntDot per listed row, as DotRows ran them
	// before it gathered, against one IntDotGather pass, four listed rows in
	// lockstep, over the same round-robin slabs.
	perRow := func(dst []int64) {
		slab := slabs[next%resSlabs]
		for _, r := range fixups {
			dst[r] = vec.IntDot(slab[r*sweepS:(r+1)*sweepS], sq)
		}
		next++
	}
	gathered := func(dst []int64) {
		vec.IntDotGather(slabs[next%resSlabs], sq, fixups, dst)
		next++
	}
	fixed := make([]int64, sweepN)
	gathered(fixed) // the eight slabs are copies of one
	for _, r := range fixups {
		if fixed[r] != sweepRef[r] {
			return nil, fmt.Errorf("ext-kernels: IntDotGather diverges from the per-row reference at row %d", r)
		}
	}
	refNs = benchNs(func() { perRow(tightened) })
	optNs = benchNs(func() { gathered(tightened) })
	t.AddRow("IntDotGather", fmt.Sprintf("%d listed rows, per-row IntDot vs one gathered pass, N=%d s=%d round-robin", digestFixups, sweepN, sweepS),
		ms2(refNs), ms2(optNs), speedup(refNs, optNs))

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
	t.AddRow("IntDotRows-digest", fmt.Sprintf("full sweep vs digest sweep + %d gathered dots, N=%d s=%d round-robin", digestFixups, sweepN, sweepS),
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
	t.Note("IntDotGather is the fix-ups alone: 150 listed rows spread over a streamed slab, each a cache miss of its own, one vec.IntDot at a time (Ref, what pim.DotRows ran before it gathered) against one vec.IntDotGather pass that walks four listed rows in lockstep (Opt: the AVX2 body where CPUID allows it, the Go four-row body elsewhere)")
	t.Note("IntDotRows-digest and -miss are not ref/opt pairs of one kernel either: Ref is the engine's full exact-mode sweep of a 5000 x 210 payload, Opt what a cascade's lazy first stage runs in its place, both over the eight round-robin slabs. 150 fix-ups is the measured mean a wire-knn shard visit tightens (153.1 of 5000 rows, 64 pool queries at seed 11, per payload), computed as one gathered pass (pim.DotRows); -miss is a query the digest proves nothing about, expected near 0.9x: the digest's sweep reads 1/32 of the bytes again")
	t.Note("SqEuclidean4 is not a ref/opt pair of one kernel: Ref is four SqEuclidean calls, Opt one SqEuclidean4 over the same four rows, each row still one accumulator in ascending order and bit-identical, the four chains in lockstep; it is the exact step of the cascade's grouped walk and of the Standard scan")
	t.Note("measured wall clock (best of 3), not modeled PIM time; float kernels keep the reference's evaluation order, so a one-row body's win is bounds-check elimination only; an integer sweep (IntDotRows) walks four rows in lockstep, one per quarter of the slab, eight columns an instruction in the AVX2 assembly body where CPUID allows it (3-4x the per-row reference) and in the 4-wide index-blocked Go body elsewhere (1.4-1.7x); IntDot is a lone row and always the Go body")
	return t, nil
}

// ms2 formats a nanosecond measurement.
func ms2(ns float64) string { return fmt.Sprintf("%.1f", ns) }
