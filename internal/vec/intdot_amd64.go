package vec

// hasAVX2 reports whether intDotQuadsAVX2 may run. It is read once, from
// the CPU itself: go.mod has no dependency to ask.
var hasAVX2 = detectAVX2()

// detectAVX2 is Intel's rule (SDM vol. 1, §14.7.1): the CPU has AVX and
// says the OS uses XSAVE (CPUID.1:ECX — XGETBV faults otherwise), the OS
// saves the YMM halves across a context switch (XCR0 bits 1 and 2), and
// the CPU has AVX2 (CPUID.(7,0):EBX bit 5).
func detectAVX2() bool {
	const osxsaveAVX, ymmState, avx2 = 1<<27 | 1<<28, 1<<1 | 1<<2, 1 << 5
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, ecx, _ := cpuid(1, 0)
	if maxLeaf < 7 || ecx&osxsaveAVX != osxsaveAVX || xgetbv0()&ymmState != ymmState {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}

//go:noescape
func intDotQuadsAVX2(rows, q []uint32, dst []int64, h, steps int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32
