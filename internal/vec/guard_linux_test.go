package vec

import (
	"math/rand"
	"syscall"
	"testing"
	"unsafe"
)

// guarded returns n uint32s whose last byte is the last byte before a
// PROT_NONE page: a load that runs even one lane past the slice dies with
// SIGSEGV instead of quietly reading a neighbour.
func guarded(t *testing.T, n int) []uint32 {
	t.Helper()
	page := syscall.Getpagesize()
	body := (4*n + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, body+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // the test's own mapping; nothing to report to
	if err := syscall.Mprotect(mem[body:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*uint32)(unsafe.Pointer(&mem[body-4*n])), n)
}

// TestIntDotRowsNoOverRead pins the alias-the-caller's-array contract on
// every body: a payload slab and a query are whatever memory the caller
// had, and either may end where its mapping does. A body that finishes a
// row with a full-width load fails this test with SIGSEGV.
func TestIntDotRowsNoOverRead(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dims := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 210} {
		for _, n := range []int{4, 7} {
			rows, q := guarded(t, n*dims), guarded(t, dims)
			fillUint32s(rng, rows)
			fillUint32s(rng, q)
			want := make([]int64, n)
			intDotRowsRef(rows, dims, q, want)
			matchSweeps(t, rows, q, want)
		}
	}
}
