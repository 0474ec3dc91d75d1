package vec

// The retained scalar reference kernel — the executable specification the
// kernel-equivalence harness (tests, fuzzers, ext-kernels benchmarks) pins
// the optimized integer kernels in kernels.go against. It lives in its own
// file because it keeps its natural bounds checks: the CI kernel-verify
// job asserts kernels.go compiles with zero IsInBounds under
// -d=ssa/check_bce, and this reference is exempt by design.

// IntDotRef is the retained scalar reference for IntDot.
func IntDotRef(a, b []uint32) int64 {
	if len(a) != len(b) {
		panicLens("intdot", len(a), len(b))
	}
	var s int64
	for i := range a {
		s += int64(a[i]) * int64(b[i])
	}
	return s
}
