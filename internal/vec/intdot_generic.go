//go:build !amd64

package vec

// Only amd64 has assembly bodies: hasAVX2 is a false constant here, so
// the compiler drops intDotRowsKernel's and intDotGatherKernel's calls of
// them.
const hasAVX2 = false

func intDotQuadsAVX2(rows, q []uint32, dst []int64, h, steps int) {
	panic("vec: no AVX2 body on this GOARCH")
}

func intDotGatherAVX2(slab, q []uint32, rows []int, dst []int64) {
	panic("vec: no AVX2 body on this GOARCH")
}
