package vec

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The unrolled integer kernels must equal the retained reference exactly
// (integer addition is associative, so they are free to reassociate).
// These differential tests and the fuzzer below are what license the
// optimized kernels to replace the reference everywhere, including under
// the byte-identical eval goldens.

// lengths crosses every unroll boundary: the 4-wide body, the tail, and
// the empty case.
var lengths = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 63, 64, 65, 100, 128, 257}

func TestIntDotMatchesRef(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, n := range lengths {
		for rep := 0; rep < 4; rep++ {
			a := make([]uint32, n)
			b := make([]uint32, n)
			for i := range a {
				a[i] = rng.Uint32()
				b[i] = rng.Uint32()
			}
			got, want := IntDot(a, b), IntDotRef(a, b)
			if got != want {
				t.Fatalf("n=%d: IntDot=%d, IntDotRef=%d", n, got, want)
			}
		}
	}
}

// intDotRowsRef is the executable specification of IntDotRows: one
// IntDotRef per row.
func intDotRowsRef(rows []uint32, dims int, q []uint32, dst []int64) {
	for r := range dst {
		dst[r] = IntDotRef(rows[r*dims:(r+1)*dims], q)
	}
}

// sweepBody is one way to sweep a slab: run writes the leading slots of dst
// that are its to write and returns how many those are.
type sweepBody struct {
	name string
	have bool // false: this CPU or GOARCH cannot run it
	run  func(rows, q []uint32, dst []int64) int
}

// sweepBodies is IntDotRows itself — with its cut into bounded assembly
// calls and its n%4 rows left over — and then every body of the lockstep
// step, called directly, not through intDotRowsKernel's choice of one: the
// Go body stays tested on a CPU with AVX2, and a wrong body cannot hide
// behind the other. The assembly one needs h > 0 and dims > 0, which
// intDotRowsKernel guarantees it.
var sweepBodies = []sweepBody{
	{"dispatch", true, func(rows, q []uint32, dst []int64) int {
		IntDotRows(rows, len(q), q, dst)
		return len(dst)
	}},
	{"go", true, func(rows, q []uint32, dst []int64) int {
		intDotQuadsGo(rows, q, dst, len(dst)/4)
		return len(dst) / 4 * 4
	}},
	{"avx2", hasAVX2, func(rows, q []uint32, dst []int64) int {
		h := len(dst) / 4
		if h == 0 || len(q) == 0 {
			return 0
		}
		intDotQuadsAVX2(rows, q, dst, h, h)
		return 4 * h
	}},
}

// matchSweep requires b to write its slots of dst exactly as want has them
// and not one slot more.
func matchSweep(t *testing.T, b sweepBody, rows, q []uint32, want []int64) {
	t.Helper()
	got := make([]int64, len(want))
	for i := range got {
		got[i] = -1 // every slot must be written, zero rows included
	}
	end := b.run(rows, q, got)
	for r := range want {
		if r >= end && got[r] != -1 {
			t.Fatalf("dims=%d n=%d: %s wrote slot %d, past its %d", len(q), len(want), b.name, r, end)
		}
		if r < end && got[r] != want[r] {
			t.Fatalf("dims=%d n=%d row %d: %s=%d, IntDotRef=%d", len(q), len(want), r, b.name, got[r], want[r])
		}
	}
}

// fillUint32s overwrites s with full-range operands.
func fillUint32s(rng *rand.Rand, s []uint32) {
	for i := range s {
		s[i] = rng.Uint32()
	}
}

// matchSweeps is matchSweep on every body this CPU can run.
func matchSweeps(t *testing.T, rows, q []uint32, want []int64) {
	t.Helper()
	for _, b := range sweepBodies {
		if b.have {
			matchSweep(t, b, rows, q, want)
		}
	}
}

// TestIntDotRowsMatchesRef crosses the four-row lockstep sweep in every
// body, the one-row path for the n%4 rows left over, whole 8- and 4-wide
// blocks, every length of masked tail, more steps than one assembly call
// takes and the empty shapes, with full-range operands: sums wrap modulo
// 2⁶⁴ exactly as IntDotRef's do, so equality is exact even where int64
// overflows.
func TestIntDotRowsMatchesRef(t *testing.T) {
	t.Parallel()
	for _, b := range sweepBodies {
		b := b
		t.Run(b.name, func(t *testing.T) {
			if !b.have {
				t.Skip("this CPU cannot run the body")
			}
			rng := rand.New(rand.NewSource(13))
			for _, dims := range []int{0, 1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 32, 33, 105, 210, 420} {
				overCap := 4*(quadCallElems/(4*max(dims, 1))+1) + 3
				for _, n := range []int{0, 1, 3, 4, 7, 8, 64, 4999, 5000, overCap} {
					rows, q := make([]uint32, n*dims), make([]uint32, dims)
					fillUint32s(rng, rows)
					fillUint32s(rng, q)
					if dims > 0 {
						q[0] = math.MaxUint32
						if n > 0 {
							rows[0] = math.MaxUint32
						}
					}
					want := make([]int64, n)
					intDotRowsRef(rows, dims, q, want)
					matchSweep(t, b, rows, q, want)
				}
			}
		})
	}
}

// gatherBody is one way to compute listed rows' dots: run writes the slots
// of the leading listed rows that are its to write and returns how many
// listed rows those are.
type gatherBody struct {
	name string
	have bool // false: this CPU or GOARCH cannot run it
	run  func(slab, q []uint32, rows []int, dst []int64) int
}

// gatherBodies is IntDotGather itself — with its index checks, its cut into
// bounded assembly calls and its len(rows)%4 rows left over — and then
// every gathered body called directly, as sweepBodies has the sweep's. The
// assembly one needs a positive multiple of four rows and dims > 0, which
// intDotGatherKernel guarantees it.
var gatherBodies = []gatherBody{
	{"dispatch", true, func(slab, q []uint32, rows []int, dst []int64) int {
		IntDotGather(slab, q, rows, dst)
		return len(rows)
	}},
	{"go", true, func(slab, q []uint32, rows []int, dst []int64) int {
		n := len(rows) / 4 * 4
		intDotGatherGo(slab, q, rows[:n], dst)
		return n
	}},
	{"avx2", hasAVX2, func(slab, q []uint32, rows []int, dst []int64) int {
		n := len(rows) / 4 * 4
		if n == 0 || len(q) == 0 {
			return 0
		}
		intDotGatherAVX2(slab, q, rows[:n], dst)
		return n
	}},
}

// matchGather requires b to write, for each of the leading listed rows it
// covers, that row's IntDotRef into its slot of dst, and to leave every
// other slot as it found it.
func matchGather(t *testing.T, b gatherBody, slab, q []uint32, rows []int, n int) {
	t.Helper()
	const sentinel = -0x5a5a5a5a
	got := make([]int64, n)
	for i := range got {
		got[i] = sentinel
	}
	end := b.run(slab, q, rows, got)
	dims := len(q)
	covered := map[int]bool{}
	for _, r := range rows[:end] {
		covered[r] = true
	}
	for r := range got {
		if !covered[r] {
			if got[r] != sentinel {
				t.Fatalf("dims=%d rows=%v: %s wrote slot %d, which is not among the %d rows it covers", dims, rows, b.name, r, end)
			}
			continue
		}
		if want := IntDotRef(slab[r*dims:(r+1)*dims], q); got[r] != want {
			t.Fatalf("dims=%d rows=%v row %d: %s=%d, IntDotRef=%d", dims, rows, r, b.name, got[r], want)
		}
	}
}

// matchGathers is matchGather on every gathered body this CPU can run.
func matchGathers(t *testing.T, slab, q []uint32, rows []int, n int) {
	t.Helper()
	for _, b := range gatherBodies {
		if b.have {
			matchGather(t, b, slab, q, rows, n)
		}
	}
}

// TestIntDotGatherMatchesRef crosses the four-listed-rows lockstep in every
// body with every count of rows left over (0–9 listed), rows listed
// ascending, descending and more than once, whole blocks and every tail,
// and — through the dispatch row — more quads than one assembly call takes,
// with full-range operands; every slot not listed keeps its sentinel.
func TestIntDotGatherMatchesRef(t *testing.T) {
	t.Parallel()
	for _, b := range gatherBodies {
		b := b
		t.Run(b.name, func(t *testing.T) {
			if !b.have {
				t.Skip("this CPU cannot run the body")
			}
			rng := rand.New(rand.NewSource(19))
			const n = 24 // rows in the slab
			for _, dims := range []int{1, 7, 8, 9, 31, 32, 33, 210, 4096} {
				slab, q := make([]uint32, n*dims), make([]uint32, dims)
				fillUint32s(rng, slab)
				fillUint32s(rng, q)
				q[0], slab[len(slab)-1] = math.MaxUint32, math.MaxUint32
				overCap := 4*(quadCallElems/(4*dims)+1) + 3
				for _, count := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, overCap} {
					asc := make([]int, count)
					for i := range asc {
						asc[i] = (i*5 + 3) % n // every n listed rows, each row once
					}
					slices.Sort(asc)
					desc := slices.Clone(asc)
					slices.Reverse(desc)
					dup := make([]int, count)
					for i := range dup {
						dup[i] = rng.Intn(n / 4) // a quarter of the rows: most listed twice or more
					}
					for _, rows := range [][]int{asc, desc, dup} {
						matchGather(t, b, slab, q, rows, n)
					}
				}
			}
		})
	}
}

// TestIntDotGatherPanicsBeforeWriting pins the checks the assembly relies
// on: a listed row past the slab's length (even inside its capacity), a
// negative one, or one whose slot is past dst panics, and before any slot
// of the quad it sits in, or of any other, is written.
func TestIntDotGatherPanicsBeforeWriting(t *testing.T) {
	t.Parallel()
	slab, q := make([]uint32, 3*4), []uint32{1, 2, 3, 4}
	for i := range slab {
		slab[i] = 1
	}
	for _, tc := range []struct {
		slab  []uint32
		rows  []int
		slots int
	}{
		{slab, []int{2, 1, 0, 3}, 4},
		{slab, []int{0, 1, -1, 2}, 3},
		{slab[:8], []int{0, 1, 0, 1, 2}, 3},
		{slab, []int{0, 1, 2, 0}, 2},
	} {
		dst := make([]int64, tc.slots)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("rows %v of a %d-row slab into %d slots: no panic", tc.rows, len(tc.slab)/4, tc.slots)
				}
			}()
			IntDotGather(tc.slab, q, tc.rows, dst)
		}()
		if slices.ContainsFunc(dst, func(v int64) bool { return v != 0 }) {
			t.Fatalf("rows %v: a panicking gather wrote %v", tc.rows, dst)
		}
	}
}

func TestKernelsPanicOnMismatch(t *testing.T) {
	t.Parallel()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic on length mismatch", name)
			}
		}()
		fn()
	}
	mustPanic("Dot", func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic("IntDot", func() { IntDot([]uint32{1}, []uint32{1, 2}) })
	mustPanic("IntDotRows/query", func() { IntDotRows(make([]uint32, 4), 2, make([]uint32, 3), make([]int64, 2)) })
	mustPanic("IntDotRows/slab", func() { IntDotRows(make([]uint32, 5), 2, make([]uint32, 2), make([]int64, 2)) })
	mustPanic("IntDotRows/dst", func() { IntDotRows(make([]uint32, 4), 2, make([]uint32, 2), make([]int64, 3)) })
}

// FuzzVecKernelEquivalence drives arbitrary integer payloads through the
// optimized kernels and their reference, requiring identical results at
// every split of the payload into (a, b), and —
// the rows target — at every carving of the payload into a query and a
// row-major slab of 1..24-wide rows, swept whole and gathered at a list of
// its rows.
func FuzzVecKernelEquivalence(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("0123456789abcdef0123456789abcdef0123456789abcdef"), uint8(3))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x01\x02\x03\x04\x05\x06\x07\x08"), uint8(1))
	seed := make([]byte, 8*33)
	for i := range seed {
		seed[i] = byte(i * 37)
	}
	f.Add(seed, uint8(16))
	f.Add(seed, uint8(8))  // rows target: 6 rows 9 wide: one lockstep pass and 2 left over, blocks + tail
	f.Add(seed, uint8(23)) // rows target: one 24-wide row, whole blocks, no tail
	f.Add(seed, uint8(4))  // rows target: 12 rows 5 wide: three lockstep passes, none left over
	f.Add(seed, uint8(5))  // rows target: 10 rows 6 wide: two lockstep passes and 2 left over
	f.Fuzz(func(t *testing.T, data []byte, splitRaw uint8) {
		fuzzIntDotRows(t, data, 1+int(splitRaw)%24)
		words := len(data) / 8
		if words == 0 {
			return
		}
		// Split the 64-bit words into two equal-length operands at a
		// fuzzed offset: a takes the low halves, b the high ones.
		n := words / 2
		off := int(splitRaw) % (words - n + 1)
		ia := make([]uint32, n)
		ib := make([]uint32, n)
		for i := 0; i < n; i++ {
			ia[i] = uint32(binary.LittleEndian.Uint64(data[i*8:]))
			ib[i] = uint32(binary.LittleEndian.Uint64(data[(off+i)*8:]) >> 32)
		}
		if got, want := IntDot(ia, ib), IntDotRef(ia, ib); got != want {
			t.Fatalf("n=%d: IntDot=%d, IntDotRef=%d", n, got, want)
		}
	})
}

// fuzzIntDotRows reads data as little-endian uint32s, takes the first dims
// as the query and as many whole rows as follow, and requires IntDotRows
// and every quad body this CPU can run to match a per-row IntDotRef loop.
// Then it lists len(data)%12 of those rows, the i-th being data[i] modulo
// their count, and requires every gathered body to match IntDotRef on them.
func fuzzIntDotRows(t *testing.T, data []byte, dims int) {
	words := make([]uint32, len(data)/4)
	for i := range words {
		words[i] = binary.LittleEndian.Uint32(data[i*4:])
	}
	if len(words) < dims {
		return
	}
	q, rest := words[:dims], words[dims:]
	n := len(rest) / dims
	rows := rest[:n*dims]
	want := make([]int64, n)
	intDotRowsRef(rows, dims, q, want)
	matchSweeps(t, rows, q, want)
	if n == 0 {
		return
	}
	listed := make([]int, len(data)%12)
	for i := range listed {
		listed[i] = int(data[i]) % n
	}
	matchGathers(t, rows, q, listed, n)
}

// TestTopKAppendResultsMatchesResults pins the allocation-free result path
// bit-identical to Results across random insertion histories.
func TestTopKAppendResultsMatchesResults(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(11))
	dst := make([]Neighbor, 0, 32)
	for rep := 0; rep < 200; rep++ {
		k := rng.Intn(8) + 1
		top := NewTopK(k)
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			top.Push(i, float64(rng.Intn(10))) // many distance ties
		}
		want := top.Results()
		dst = top.AppendResults(dst[:0])
		if len(dst) != len(want) {
			t.Fatalf("rep %d: AppendResults len %d, Results len %d", rep, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("rep %d pos %d: AppendResults %+v, Results %+v", rep, i, dst[i], want[i])
			}
		}
	}
}

// TestTopKReset pins Reset's reuse semantics: emptied, re-armed for the
// new k, and allocation-free when the retained heap suffices.
func TestTopKReset(t *testing.T) {
	// Not parallel: AllocsPerRun counts every goroutine's mallocs.
	top := NewTopK(8)
	for i := 0; i < 20; i++ {
		top.Push(i, float64(20-i))
	}
	top.Reset(3)
	if top.Len() != 0 || top.Full() {
		t.Fatalf("after Reset: len=%d full=%v", top.Len(), top.Full())
	}
	for i := 0; i < 10; i++ {
		top.Push(i, float64(i))
	}
	res := top.Results()
	if len(res) != 3 || res[0].Index != 0 || res[2].Index != 2 {
		t.Fatalf("after Reset(3): %+v", res)
	}
	allocs := testing.AllocsPerRun(100, func() {
		top.Reset(3)
		top.Push(1, 1)
	})
	if allocs != 0 {
		t.Fatalf("Reset+Push allocated %.1f times per run, want 0", allocs)
	}
}
