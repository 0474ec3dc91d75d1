//go:build !amd64

package vec

// Only amd64 has an assembly body: hasAVX2 is a false constant here, so
// the compiler drops intDotRowsKernel's call of it.
const hasAVX2 = false

func intDotQuadsAVX2(rows, q []uint32, dst []int64, h, steps int) {
	panic("vec: no AVX2 body on this GOARCH")
}
