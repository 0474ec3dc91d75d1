// Kernel-layer microbenchmarks: the optimized hot-path kernels against
// their retained scalar references, with allocation reporting. The CI
// bench-smoke step runs these and fails if any steady-state path
// (the crossbar's operand sweep, SearchAppend, KNNRow) reports a nonzero
// allocs/op — the executable form of the zero-alloc contract that the
// AllocsPerRun tests pin per package.
//
//	go test -bench='Kernel|CrossbarDot|VecDistance|Refine' -benchmem -run='^$'
package pimmine_test

import (
	"math/rand"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/crossbar"
	"pimmine/internal/dataset"
	"pimmine/internal/join"
	"pimmine/internal/knn"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// BenchmarkCrossbarDot compares the cell-at-a-time reference against the
// operand sweep (one vec.IntDotRows over the tile's observed operands) on
// the paper's Table 5 geometry, once with dense 8-bit operands and once on
// the FNN payload shape: 32-bit operands holding 20-bit ⌊α·µ⌋ values at
// d=210, sixteen cells per operand that the reference walks one at a time
// and the sweep reads as one integer. The sweep cases must stay at 0
// allocs/op.
func BenchmarkCrossbarDot(b *testing.B) {
	spec := crossbar.Spec{M: 256, CellBits: 2, DACBits: 2, ReadLatencyNs: 29.31, WriteLatencyNs: 50.88}
	for _, shape := range []struct {
		suffix                  string
		dims, opBits, valueBits int
	}{
		{"", 256, 8, 8},
		{"-fnn", 210, 32, 20},
	} {
		rng := rand.New(rand.NewSource(1))
		mask := uint32(1)<<uint(shape.valueBits) - 1
		xb := crossbar.New(spec)
		vals := make([]uint32, shape.dims)
		for v := 0; v < spec.VectorsPerCrossbar(shape.dims, shape.opBits); v++ {
			for i := range vals {
				vals[i] = rng.Uint32() & mask
			}
			if _, err := xb.ProgramVector(vals, shape.opBits); err != nil {
				b.Fatal(err)
			}
		}
		input := make([]uint32, shape.dims)
		for i := range input {
			input[i] = rng.Uint32() & mask
		}
		dst := make([]int64, xb.Vectors())
		b.Run("ref"+shape.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := xb.DotAllRef(input, shape.opBits); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sweep"+shape.suffix, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := xb.DotAllInto(input, shape.opBits, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkVecDistance times the unrolled distance kernels against their
// retained references at a Table 6 dimensionality (MSD, d=420), and four
// rows' ED as four SqEuclidean calls (ref) against one SqEuclidean4 (opt)
// there and at Trevi's d=4096.
func BenchmarkVecDistance(b *testing.B) {
	const d = 420
	rng := rand.New(rand.NewSource(2))
	fa, fb := make([]float64, d), make([]float64, d)
	ia, ib := make([]uint32, d), make([]uint32, d)
	for i := 0; i < d; i++ {
		fa[i], fb[i] = rng.NormFloat64(), rng.NormFloat64()
		ia[i], ib[i] = rng.Uint32()&0xff, rng.Uint32()&0xff
	}
	var rows [4][]float64
	for r := range rows {
		rows[r] = make([]float64, 4096)
		for i := range rows[r] {
			rows[r][i] = rng.NormFloat64()
		}
	}
	q4 := make([]float64, 4096)
	for i := range q4 {
		q4[i] = rng.NormFloat64()
	}
	var fsink float64
	var isink int64
	four := func(n int) (ref, opt func()) {
		q := q4[:n]
		ref = func() {
			for _, row := range rows {
				fsink += measure.SqEuclidean(row[:n], q)
			}
		}
		opt = func() {
			a, b, c, e := measure.SqEuclidean4(rows[0][:n], rows[1][:n], rows[2][:n], rows[3][:n], q)
			fsink += a + b + c + e
		}
		return ref, opt
	}
	ref420, opt420 := four(d)
	ref4096, opt4096 := four(4096)
	for _, bc := range []struct {
		name string
		fn   func()
	}{
		{"IntDot/ref", func() { isink = vec.IntDotRef(ia, ib) }},
		{"IntDot/opt", func() { isink = vec.IntDot(ia, ib) }},
		{"SqEuclidean/ref", func() { fsink = measure.SqEuclideanRef(fa, fb) }},
		{"SqEuclidean/opt", func() { fsink = measure.SqEuclidean(fa, fb) }},
		{"SqEuclidean4/ref", ref420},
		{"SqEuclidean4/opt", opt420},
		{"SqEuclidean4-4096/ref", ref4096},
		{"SqEuclidean4-4096/opt", opt4096},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bc.fn()
			}
		})
	}
	_, _ = fsink, isink
}

// BenchmarkRefine times the steady-state filter-and-refine paths — host
// and PIM SearchAppend, and the per-row join refine. All three must stay
// at 0 allocs/op once scratch is warm.
func BenchmarkRefine(b *testing.B) {
	const k = 10
	prof, err := dataset.ByName("Notre")
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.Generate(prof, 2000, 3)
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		b.Fatal(err)
	}
	stdPIM, err := knn.NewStandardPIM(eng, ds.X, q, prof.FullN)
	if err != nil {
		b.Fatal(err)
	}
	jEng, err := pim.NewEngine(arch.Default(), pim.ModeExact)
	if err != nil {
		b.Fatal(err)
	}
	joiner, err := join.NewJoinerPIM(jEng, ds.X, q, prof.FullN)
	if err != nil {
		b.Fatal(err)
	}
	query := ds.X.Row(7)
	meter := arch.NewMeter()
	dst := make([]vec.Neighbor, 0, k)

	searchers := []struct {
		name string
		s    knn.AppendSearcher
	}{
		{"host-search", knn.NewStandard(ds.X)},
		{"pim-search", stdPIM},
	}
	for _, bc := range searchers {
		b.Run(bc.name, func(b *testing.B) {
			dst = bc.s.SearchAppend(query, k, meter, dst[:0]) // warm scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dst = bc.s.SearchAppend(query, k, meter, dst[:0])
			}
		})
	}
	b.Run("join-row", func(b *testing.B) {
		if dst, err = joiner.KNNRow(query, k, -1, meter, dst[:0]); err != nil {
			b.Fatal(err) // warm scratch
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if dst, err = joiner.KNNRow(query, k, -1, meter, dst[:0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
