package pim

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/crossbar"
	"pimmine/internal/vec"
)

// nopInjector is a fault injector that changes nothing: what matters to
// the digest is that one is installed.
type nopInjector struct{}

func (nopInjector) Attach(*Payload) error                                { return nil }
func (nopInjector) TileFault(*Payload, int, int) crossbar.ReadFault      { return nil }
func (nopInjector) Apply(*Payload, bool, []uint32, []int64) (f, r int64) { return 0, 0 }
func (nopInjector) DeadCrossbars() int                                   { return 0 }

func flatRows(slab []uint32, dims int) func(i int) []uint32 {
	return func(i int) []uint32 { return slab[i*dims : (i+1)*dims] }
}

// TestDigestOnlyWhereTheSlabIsTheArray pins where a digest is built: in
// exact mode, with no fault injector, for operands wider than a bit — and
// nowhere else, so simulate mode, faulty engines and binary payloads keep
// the memory and the behaviour they had.
func TestDigestOnlyWhereTheSlabIsTheArray(t *testing.T) {
	const n, dims = 6, 70
	slab := make([]uint32, n*dims)
	for i := range slab {
		slab[i] = uint32(i % 2)
	}
	exact := newTestEngine(t, ModeExact)
	sim := newTestEngine(t, ModeSimulate)
	faulty, err := NewFaultyEngine(arch.Default(), ModeExact, nopInjector{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		eng    *Engine
		opBits int
		want   int
	}{
		{"exact", exact, 32, 3},
		{"exact 2-bit", exact, 2, 3},
		{"exact binary", exact, 1, 0},
		{"simulate", sim, 32, 0},
		{"faulty", faulty, 32, 0},
	} {
		p, err := tc.eng.ProgramWidth(tc.name, n, dims, 1, tc.opBits, flatRows(slab, dims))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := p.DigestDims(); got != tc.want {
			t.Fatalf("%s: DigestDims = %d, want %d", tc.name, got, tc.want)
		}
		if want := int64(n) * int64(min(tc.want, 1)); p.Digested() != want || len(p.digest) != n*tc.want {
			t.Fatalf("%s: digested %d rows into %d values, want %d rows", tc.name, p.Digested(), len(p.digest), want)
		}
		input, qd := make([]uint32, dims), make([]uint32, tc.want)
		if _, ok := tc.eng.UpperAll(p, input, qd, nil); ok != (tc.want > 0) {
			t.Fatalf("%s: UpperAll accepted = %v", tc.name, ok)
		}
	}
}

// TestDigestExtendsByAppendedRows pins Append's cost: each call digests
// the rows it adds and no other, and a row too wide for the digest ends it
// for the payload without disturbing what QueryAll returns.
func TestDigestExtendsByAppendedRows(t *testing.T) {
	const dims, initial, appends = 40, 5, 64
	rng := rand.New(rand.NewSource(3))
	slab := make([]uint32, (initial+appends+1)*dims)
	for i := range slab {
		slab[i] = uint32(rng.Intn(1 << 20))
	}
	e := newTestEngine(t, ModeExact)
	a, err := e.ProgramAppendable("grow", initial, initial+appends+1, dims, 1, 32, flatRows(slab, dims))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < appends; i++ {
		if _, err := a.Append(1, flatRows(slab, dims)); err != nil {
			t.Fatal(err)
		}
		if got, want := a.Digested(), int64(initial+i+1); got != want {
			t.Fatalf("after %d one-row appends %d rows were digested in all, want %d", i+1, got, want)
		}
	}
	input, qd := slab[:dims], make([]uint32, a.DigestDims())
	upper, ok := e.UpperAll(a.Payload, input, qd, nil)
	if !ok || len(upper) != a.N {
		t.Fatalf("UpperAll over the grown payload: ok=%v, %d bounds for %d rows", ok, len(upper), a.N)
	}
	for i, u := range upper {
		if exact := vec.IntDotRef(a.Row(i), input); u < exact {
			t.Fatalf("row %d: upper bound %d below the dot %d", i, u, exact)
		}
	}

	slab[(initial+appends)*dims+7] = digestValueLimit
	if _, err := a.Append(1, flatRows(slab, dims)); err != nil {
		t.Fatal(err)
	}
	if a.DigestDims() != 0 || a.digest != nil {
		t.Fatal("a row holding a value at the width limit left the digest in place")
	}
	if _, ok := e.UpperAll(a.Payload, input, qd, upper); ok {
		t.Fatal("UpperAll accepted a query against a payload that gave up its digest")
	}
	dots, err := e.QueryAll(nil, "f", a.Payload, input, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dots {
		if want := vec.IntDotRef(a.Row(i), input); d != want {
			t.Fatalf("row %d: QueryAll %d, reference %d", i, d, want)
		}
	}
}

// TestChargeQueryMatchesQueryAll pins the one metering rule from outside:
// a query answered through UpperAll is charged what QueryAll, and over two
// payloads QueryAllParallel, would have charged it.
func TestChargeQueryMatchesQueryAll(t *testing.T) {
	const n, dims = 9, 64
	slab := make([]uint32, n*dims)
	e := newTestEngine(t, ModeExact)
	a, err := e.Program("a", n, dims, 2, flatRows(slab, dims))
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.ProgramWidth("b", n-1, dims, 2, 8, flatRows(slab, dims))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]uint32, dims)
	swept, charged := arch.NewMeter(), arch.NewMeter()
	if _, err := e.QueryAll(swept, "one", a, input, nil); err != nil {
		t.Fatal(err)
	}
	e.ChargeQuery(charged, "one", a)
	if _, err := e.QueryAllParallel(swept, "two", []*Payload{a, b}, [][]uint32{input, input}, nil); err != nil {
		t.Fatal(err)
	}
	e.ChargeQuery(charged, "two", a, b)
	for _, fn := range []string{"one", "two"} {
		if swept.Get(fn) != charged.Get(fn) || swept.Get(fn).Calls != 1 {
			t.Fatalf("%s: swept %+v, charged %+v", fn, swept.Get(fn), charged.Get(fn))
		}
	}
	e.ChargeQuery(nil, "none", a) // a nil meter charges nothing, as in QueryAll
}

func newTestEngine(t *testing.T, mode Mode) *Engine {
	t.Helper()
	e, err := NewEngine(arch.Default(), mode)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestDotRowsPanicsAsRow pins DotRows' bad index to Payload.Row's: one
// gathered call over the slab refuses a row outside the payload with the
// panic the per-row Row call raised, whether it sits in a quad or is left
// over.
func TestDotRowsPanicsAsRow(t *testing.T) {
	const n, dims = 5, 40
	slab := make([]uint32, n*dims)
	e := newTestEngine(t, ModeExact)
	p, err := e.Program("bad-row", n, dims, 1, flatRows(slab, dims))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]uint32, dims)
	panicOf := func(f func()) (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		f()
		return ""
	}
	for _, bad := range []int{n, -1} {
		want := panicOf(func() { p.Row(bad) })
		for _, rows := range [][]int{{0, 1, bad, 2}, {0, bad}} {
			if got := panicOf(func() { e.DotRows(p, input, rows, make([]int64, n)) }); got != want || want == "" {
				t.Fatalf("DotRows over %v panics %q, Row(%d) %q", rows, got, bad, want)
			}
		}
	}
}

// fuzzDims are the row lengths FuzzDigestUpper draws from: one value, one
// short of, exactly and one past a group, the wire-knn payload, and Trevi.
var fuzzDims = [...]int{1, 31, 32, 33, 210, 4096}

// FuzzDigestUpper fuzzes the digest against the reference dot. Rows and
// query are the raw bytes read as little-endian words, tiled to the drawn
// shape and shifted right to the drawn width, so one input reaches 20-bit
// floors, values at the width limit and full 32-bit words alike. Whenever
// a digest exists and accepts the query, every group norm is the exact
// ceiling, every bound is the unwrapped digest dot and is at least
// IntDotRef, and DotRows returns IntDotRef for the rows it is given and
// touches no other; a digest exists exactly when no row value reaches the
// limit, and a query holding one is refused.
func FuzzDigestUpper(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0x0f, 0, 1, 0, 0, 0, 0x40, 0x42, 0x0f, 0}, []byte{0x3f, 0x42, 0x0f, 0, 7, 0, 0, 0}, byte(4), byte(12), byte(3))
	f.Add([]byte{0, 0, 0, 0}, []byte{0, 0, 0, 0}, byte(2), byte(0), byte(5))                                                 // all-zero rows and query
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, []byte{1, 0, 0, 0}, byte(0), byte(0), byte(2))                                     // rows past the limit
	f.Add([]byte{1, 0, 0, 0}, []byte{0xff, 0xff, 0xff, 0xff}, byte(1), byte(2), byte(1))                                     // query past the limit
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xfe, 0xff, 0xff, 0xff}, []byte{0xff, 0xff, 0xff, 0xff}, byte(5), byte(3), byte(4)) // 4096 dims below the limit: the dot could wrap
	f.Add([]byte("thirty-one and thirty-three dims straddle a group"), []byte("as does the query"), byte(3), byte(9), byte(7))

	f.Fuzz(func(t *testing.T, rawRows, rawQuery []byte, dimsSel, shift, nSel byte) {
		dims, n, sh := fuzzDims[int(dimsSel)%len(fuzzDims)], int(nSel)%9+1, uint(shift)%33
		tile := func(raw []byte, count int) []uint32 {
			words := make([]uint32, max(1, len(raw)/4))
			for i := 0; i+4 <= len(raw); i += 4 {
				words[i/4] = binary.LittleEndian.Uint32(raw[i:])
			}
			out := make([]uint32, count)
			for i := range out {
				out[i] = uint32(uint64(words[i%len(words)]) >> sh)
			}
			return out
		}
		slab, input := tile(rawRows, n*dims), tile(rawQuery, dims)
		wide := func(vals []uint32) bool {
			for _, v := range vals {
				if v >= digestValueLimit {
					return true
				}
			}
			return false
		}

		e := newTestEngine(t, ModeExact)
		if !e.Model().FitsB(n, dims, 1, 32) {
			t.Skip("shape exceeds the array")
		}
		p, err := e.Program("fuzz", n, dims, 1, flatRows(slab, dims))
		if err != nil {
			t.Fatal(err)
		}
		groups := (dims + digestGroup - 1) / digestGroup
		if wide(slab) {
			if p.DigestDims() != 0 {
				t.Fatal("a payload holding a value at or past the width limit has a digest")
			}
			groups = 0
		} else if p.DigestDims() != groups || len(p.digest) != n*groups {
			t.Fatalf("DigestDims = %d over %d values, want %d groups × %d rows", p.DigestDims(), len(p.digest), groups, n)
		}
		for i := 0; i < n*groups; i++ {
			r, g := i/groups, i%groups
			var sum uint64
			for _, v := range p.Row(r)[g*digestGroup : min((g+1)*digestGroup, dims)] {
				sum += uint64(v) * uint64(v)
			}
			if norm := uint64(p.digest[i]); norm*norm < sum || (norm > 0 && (norm-1)*(norm-1) >= sum) {
				t.Fatalf("row %d group %d: norm %d is not ⌈√%d⌉", r, g, norm, sum)
			}
		}

		qd := make([]uint32, groups)
		upper, ok := e.UpperAll(p, input, qd, nil)
		if groups == 0 || wide(input) {
			if ok {
				t.Fatalf("UpperAll accepted a query it cannot bound (digest dims %d)", groups)
			}
			return
		}
		if !ok {
			// Refused for wrap risk: the largest products must reach 2⁶³.
			var pMax, qMax uint64
			for _, v := range p.digest {
				pMax = max(pMax, uint64(v))
			}
			for _, v := range qd {
				qMax = max(qMax, uint64(v))
			}
			if hi, lo := bits.Mul64(pMax*qMax, uint64(groups)); hi == 0 && lo <= math.MaxInt64 {
				t.Fatalf("UpperAll refused a query whose digest dots stay below %d", lo)
			}
			return
		}
		for r := 0; r < n; r++ {
			var hi, lo uint64 // the digest dot in 128 bits
			for g, v := range p.digest[r*groups : (r+1)*groups] {
				h, l := bits.Mul64(uint64(v), uint64(qd[g]))
				var carry uint64
				lo, carry = bits.Add64(lo, l, 0)
				hi, _ = bits.Add64(hi, h, carry)
			}
			if hi != 0 || lo > math.MaxInt64 || upper[r] != int64(lo) {
				t.Fatalf("row %d: bound %d, the digest dot is %d·2⁶⁴+%d", r, upper[r], hi, lo)
			}
			if exact := vec.IntDotRef(p.Row(r), input); upper[r] < exact {
				t.Fatalf("row %d: bound %d below the dot %d", r, upper[r], exact)
			}
		}
		listed := []int{n - 1, 0}[:min(n, 2)]
		dots := append([]int64(nil), upper...)
		e.DotRows(p, input, listed, dots)
		for r, d := range dots {
			want := upper[r]
			if r == 0 || r == n-1 {
				want = vec.IntDotRef(p.Row(r), input)
			}
			if d != want {
				t.Fatalf("DotRows over %v left %d at row %d, want %d", listed, d, r, want)
			}
		}
	})
}
