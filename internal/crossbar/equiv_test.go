package crossbar

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// buildRandom programs nvecs random dims-dim opBits-bit vectors into a
// fresh crossbar of the given spec.
func buildRandom(t testing.TB, spec Spec, rng *rand.Rand, nvecs, dims, opBits int) *Crossbar {
	t.Helper()
	return buildRandomValues(t, spec, rng, nvecs, dims, opBits, opBits)
}

// buildRandomValues is buildRandom with values of only valueBits bits, so
// the operand's cell bits above valueBits stay empty.
func buildRandomValues(t testing.TB, spec Spec, rng *rand.Rand, nvecs, dims, opBits, valueBits int) *Crossbar {
	t.Helper()
	c := New(spec)
	maxVal := uint64(1)<<uint(valueBits) - 1
	for v := 0; v < nvecs; v++ {
		vals := make([]uint32, dims)
		for i := range vals {
			vals[i] = uint32(rng.Uint64() & maxVal)
		}
		if _, err := c.ProgramVector(vals, opBits); err != nil {
			t.Fatalf("ProgramVector: %v", err)
		}
	}
	return c
}

// TestDotAllMatchesRef pins the operand sweep of DotAll bit-identical to
// the retained cell-at-a-time reference across a grid of geometries,
// operand widths and edge sizes (1 dim, odd dims, full crossbars), and
// over operands wider than their values (the FNN payload: 20-bit values in
// 32-bit operands), 1-bit operands (HD), an all-zero input, a lone input
// bit at bit 31 and full 32-bit operands times full 32-bit inputs, whose
// products wrap mod 2^64 in both.
func TestDotAllMatchesRef(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	specs := []Spec{
		{M: 256, CellBits: 2, DACBits: 2, ReadLatencyNs: 29.31, WriteLatencyNs: 50.88}, // Table 5
		{M: 64, CellBits: 1, DACBits: 1, ReadLatencyNs: 1, WriteLatencyNs: 1},
		{M: 65, CellBits: 3, DACBits: 4, ReadLatencyNs: 1, WriteLatencyNs: 1},
		{M: 16, CellBits: 16, DACBits: 16, ReadLatencyNs: 1, WriteLatencyNs: 1},
		{M: 3, CellBits: 5, DACBits: 7, ReadLatencyNs: 1, WriteLatencyNs: 1},
	}
	for _, spec := range specs {
		for _, op := range [][2]int{{1, 1}, {2, 2}, {7, 7}, {8, 8}, {17, 17}, {32, 32}, {32, 20}, {17, 3}} {
			opBits, valueBits := op[0], op[1]
			cpo := spec.CellsPerOperand(opBits)
			maxVecs := spec.M / cpo
			if maxVecs == 0 {
				continue
			}
			for _, dims := range []int{1, 2, spec.M/2 + 1, spec.M} {
				if dims <= 0 || dims > spec.M {
					continue
				}
				nvecs := rng.Intn(maxVecs) + 1
				c := buildRandomValues(t, spec, rng, nvecs, dims, opBits, valueBits)
				// Full-width inputs at four widths, then 20-bit values, all
				// zeros, and bit 31 alone on some rows, declared 32 wide.
				for _, in := range []struct {
					bits int
					mask uint32
				}{{1, 1}, {3, 7}, {8, 0xff}, {32, 1<<32 - 1}, {32, 1<<20 - 1}, {32, 0}, {32, 1 << 31}} {
					inBits := in.bits
					input := make([]uint32, dims)
					for i := range input {
						input[i] = rng.Uint32() & in.mask
					}
					want, wantCyc, err := c.DotAllRef(input, inBits)
					if err != nil {
						t.Fatalf("DotAllRef: %v", err)
					}
					got, gotCyc, err := c.DotAll(input, inBits)
					if err != nil {
						t.Fatalf("DotAll: %v", err)
					}
					if gotCyc != wantCyc {
						t.Fatalf("spec=%+v opBits=%d dims=%d: cycles %d, ref %d", spec, opBits, dims, gotCyc, wantCyc)
					}
					for v := range want {
						if got[v] != want[v] {
							t.Fatalf("spec M=%d h=%d dac=%d opBits=%d valueBits=%d dims=%d input %+v vec %d: dot %d, ref %d",
								spec.M, spec.CellBits, spec.DACBits, opBits, valueBits, dims, in, v, got[v], want[v])
						}
					}
				}
			}
		}
	}
}

// TestDotAllMatchesRefFaulted pins the equivalence with a read-fault hook
// installed: DotAll recombines the faulted operands once, when the hook
// goes in, the reference consults the hook per cycle; both must agree
// because the hook is pure. M=96 at 77 dims leaves the sweep a ragged
// tail, M=256 is Table 5 at the FNN dimensionality.
func TestDotAllMatchesRefFaulted(t *testing.T) {
	t.Parallel()
	for _, g := range []struct{ m, dims int }{{96, 77}, {256, 210}} {
		t.Run(fmt.Sprintf("M=%d", g.m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			spec := Spec{M: g.m, CellBits: 2, DACBits: 2, ReadLatencyNs: 1, WriteLatencyNs: 1}
			c := buildRandom(t, spec, rng, 5, g.dims, 8)
			maxLevel := uint16(1)<<uint(spec.CellBits) - 1
			c.SetReadFault(func(row, col int, level uint16) uint16 {
				// Deterministic stuck-at-style perturbation.
				if (row*31+col*17)%5 == 0 {
					return maxLevel
				}
				if (row+col)%7 == 0 {
					return level &^ 1
				}
				return level
			})
			input := make([]uint32, g.dims)
			for i := range input {
				input[i] = rng.Uint32() & 0xff
			}
			want, _, err := c.DotAllRef(input, 8)
			if err != nil {
				t.Fatalf("DotAllRef: %v", err)
			}
			got, _, err := c.DotAll(input, 8)
			if err != nil {
				t.Fatalf("DotAll: %v", err)
			}
			for v := range want {
				if got[v] != want[v] {
					t.Fatalf("faulted vec %d: dot %d, ref %d", v, got[v], want[v])
				}
			}
			// Removing the hook must restore the clean operands exactly.
			c.SetReadFault(nil)
			clean, _, err := c.DotAllRef(input, 8)
			if err != nil {
				t.Fatalf("DotAllRef clean: %v", err)
			}
			got, _, err = c.DotAll(input, 8)
			if err != nil {
				t.Fatalf("DotAll clean: %v", err)
			}
			for v := range clean {
				if got[v] != clean[v] {
					t.Fatalf("clean vec %d: dot %d, ref %d", v, got[v], clean[v])
				}
			}
		})
	}
}

// TestDotAllMatchesRefFaultedEmptyPlane installs a stuck-at-1 bit in a
// cell that is empty as programmed (4-bit values in 8-bit operands leave
// each vector's two high cells at level 0). The operand DotAll sweeps must
// be recombined from the levels the read observes: the programmed value
// drops the fault's contribution. Both ways of getting there are pinned —
// hook installed over programmed cells, and cells programmed (after a
// Reset) under an installed hook — and removing the hook must restore the
// programmed operand. M=96 and M=256 (Table 5), the stuck row near the
// end of each.
func TestDotAllMatchesRefFaultedEmptyPlane(t *testing.T) {
	t.Parallel()
	for _, g := range []struct{ m, dims, row int }{{96, 77, 70}, {256, 210, 200}} {
		t.Run(fmt.Sprintf("M=%d", g.m), func(t *testing.T) {
			spec := Spec{M: g.m, CellBits: 2, DACBits: 2, ReadLatencyNs: 1, WriteLatencyNs: 1}
			const nvecs, opBits = 5, 8
			cpo := spec.CellsPerOperand(opBits)
			stuck := func(row, col int, level uint16) uint16 {
				if row == g.row && col == 2*cpo { // vector 2's most significant cell
					return level | 2
				}
				return level
			}
			input := make([]uint32, g.dims)
			for i := range input {
				input[i] = 0xff
			}
			mustMatchRef := func(c *Crossbar, what string) []int64 {
				t.Helper()
				want, _, err := c.DotAllRef(input, 8)
				if err != nil {
					t.Fatalf("%s: DotAllRef: %v", what, err)
				}
				got, _, err := c.DotAll(input, 8)
				if err != nil {
					t.Fatalf("%s: DotAll: %v", what, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s: vec %d: dot %d, ref %d", what, v, got[v], want[v])
					}
				}
				return got
			}

			rng := rand.New(rand.NewSource(13))
			c := buildRandomValues(t, spec, rng, nvecs, g.dims, opBits, 4)
			clean := mustMatchRef(c, "clean")
			c.SetReadFault(stuck)
			faulted := mustMatchRef(c, "hook over programmed cells")
			// Level bit 1 of the top cell weighs 2^7; the input row reads 0xff.
			if faulted[2] != clean[2]+0xff<<7 {
				t.Fatalf("stuck bit moved vec 2 from %d to %d, want +%d", clean[2], faulted[2], 0xff<<7)
			}
			c.SetReadFault(nil)
			if again := mustMatchRef(c, "hook removed"); again[2] != clean[2] {
				t.Fatalf("hook removed: vec 2 reads %d, clean %d", again[2], clean[2])
			}

			c.SetReadFault(stuck)
			c.Reset()
			vals := make([]uint32, g.dims)
			for v := 0; v < nvecs; v++ {
				for i := range vals {
					vals[i] = rng.Uint32() & 0xf
				}
				if _, err := c.ProgramVector(vals, opBits); err != nil {
					t.Fatal(err)
				}
			}
			faulted = mustMatchRef(c, "cells programmed under the hook")
			c.SetReadFault(nil)
			if clean = mustMatchRef(c, "hook removed again"); faulted[2] != clean[2]+0xff<<7 {
				t.Fatalf("stuck bit under reprogramming moved vec 2 from %d to %d, want +%d", clean[2], faulted[2], 0xff<<7)
			}
		})
	}
}

// TestDotAllMatchesRefWideObservedOperand drives the high slab: with
// h ∈ {3, 5, 7} a 32-bit operand spans 33 or 35 bits of cells, and a
// stuck-at-max hook on every operand's most significant cell observes
// more than 2^32. DotAll must still equal the reference, once with the
// hook installed over programmed cells and once with vectors programmed
// under it (after a Reset) where only vector 2 is stuck, so the slab is
// allocated part-way through programming and grows after. Removing the
// hook must drop the slab.
func TestDotAllMatchesRefWideObservedOperand(t *testing.T) {
	t.Parallel()
	for _, h := range []int{3, 5, 7} {
		t.Run(fmt.Sprintf("h=%d", h), func(t *testing.T) {
			const nvecs, dims, opBits = 5, 50, 32
			spec := Spec{M: 64, CellBits: h, DACBits: 2, ReadLatencyNs: 1, WriteLatencyNs: 1}
			cpo := spec.CellsPerOperand(opBits)
			maxLevel := uint16(1)<<uint(h) - 1
			rng := rand.New(rand.NewSource(int64(h)))
			input := make([]uint32, dims)
			for i := range input {
				input[i] = rng.Uint32()
			}
			mustMatchRef := func(c *Crossbar, what string, wide bool) {
				t.Helper()
				want, _, err := c.DotAllRef(input, 32)
				if err != nil {
					t.Fatalf("%s: DotAllRef: %v", what, err)
				}
				got, _, err := c.DotAll(input, 32)
				if err != nil {
					t.Fatalf("%s: DotAll: %v", what, err)
				}
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("%s: vec %d: dot %d, ref %d", what, v, got[v], want[v])
					}
				}
				if (c.high != nil) != wide {
					t.Fatalf("%s: high slab present = %v, want %v", what, c.high != nil, wide)
				}
			}

			c := buildRandom(t, spec, rng, nvecs, dims, opBits)
			mustMatchRef(c, "clean", false)
			c.SetReadFault(func(row, col int, level uint16) uint16 {
				if col%cpo == 0 {
					return maxLevel
				}
				return level
			})
			mustMatchRef(c, "every top cell stuck at max", true)
			c.SetReadFault(nil)
			mustMatchRef(c, "hook removed", false)

			c.SetReadFault(func(row, col int, level uint16) uint16 {
				if col == 2*cpo && row%3 == 0 {
					return maxLevel
				}
				return level
			})
			c.Reset()
			vals := make([]uint32, dims)
			for v := 0; v < nvecs; v++ {
				for i := range vals {
					vals[i] = rng.Uint32()
				}
				if _, err := c.ProgramVector(vals, opBits); err != nil {
					t.Fatal(err)
				}
			}
			mustMatchRef(c, "vector 2 programmed under the hook", true)
			c.SetReadFault(nil)
			mustMatchRef(c, "hook removed again", false)
		})
	}
}

// TestDotAllAfterReset verifies the operands are rebuilt correctly after
// Reset + re-program (Reset must drop them or the sweep would read the
// old vector).
func TestDotAllAfterReset(t *testing.T) {
	t.Parallel()
	spec := Spec{M: 8, CellBits: 2, DACBits: 2, ReadLatencyNs: 1, WriteLatencyNs: 1}
	c := New(spec)
	if _, err := c.ProgramVector([]uint32{3, 3, 3}, 2); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	if _, err := c.ProgramVector([]uint32{1, 0, 2}, 2); err != nil {
		t.Fatal(err)
	}
	input := []uint32{1, 1, 1}
	want, _, err := c.DotAllRef(input, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.DotAll(input, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] || got[0] != 3 {
		t.Fatalf("after reset: dot %d, ref %d, want 3", got[0], want[0])
	}
}

// FuzzCrossbarEquivalence drives random geometries (M up to 320), cell/DAC
// widths, operand widths, value widths, payload bytes and read faults
// through both DotAll implementations and requires bit-identical dots and
// cycle counts.
func FuzzCrossbarEquivalence(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), []byte("fedcba98"), byte(2), byte(2), byte(8), byte(8), uint16(16), byte(0), byte(0))
	f.Add([]byte("00"), []byte("7"), byte(1), byte(1), byte(1), byte(1), uint16(4), byte(0), byte(0))
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff"), []byte("\xff\xff"), byte(16), byte(16), byte(32), byte(32), uint16(8), byte(0), byte(0))
	f.Add([]byte("abcdefghij"), []byte("klm"), byte(3), byte(5), byte(7), byte(11), uint16(65), byte(0), byte(0))
	// Payload byte p programs p·0x9e3779b1 cut to the operand: 0x00, 0xe9,
	// 0x59, 0x22 and 0xb2 are the bytes that stay below 2^26, so the first
	// seed is 32-bit operands whose high cells are empty. Query byte 0x00 is
	// a zero input and 0x80 the top bit alone of an 8-bit one. The last two
	// are the HD shape (1-bit operands) and 70 dims.
	f.Add([]byte("\xe9\x59\x00\x22\xb2\xe9\x00\x00\x59\xb2\x22\xe9"), []byte("\xe9\x59\x22\xb2"), byte(1), byte(1), byte(31), byte(31), uint16(95), byte(0), byte(0))
	f.Add([]byte("0123456789ab"), []byte("\x00\x00\x00\x00"), byte(1), byte(1), byte(31), byte(31), uint16(95), byte(0), byte(0))
	f.Add([]byte("0123456789ab"), []byte("\x80\x00\x80\x80"), byte(1), byte(1), byte(7), byte(7), uint16(95), byte(0), byte(0))
	f.Add([]byte("0110100110010110"), []byte("\x01\x00\x01\x01"), byte(0), byte(0), byte(0), byte(0), uint16(63), byte(0), byte(0))
	f.Add(bytes.Repeat([]byte("0123456789"), 14), bytes.Repeat([]byte("abcdefg"), 10), byte(1), byte(1), byte(7), byte(7), uint16(95), byte(0), byte(0))
	// The Table 5 FNN shape: M=256, h=2, d=210, 32-bit operands and inputs
	// holding 20-bit values, sixteen vectors. M=257: row 256 alone past
	// 256. h=3: three bits to a cell.
	f.Add(bytes.Repeat([]byte("0123456789abcdefg"), 198)[:16*210], bytes.Repeat([]byte("fedcba9876543"), 17)[:210], byte(1), byte(1), byte(31), byte(31), uint16(255), byte(12), byte(0))
	f.Add(bytes.Repeat([]byte("0123456789abcdefg"), 46)[:3*257], bytes.Repeat([]byte("zyxwvutsrqponmlkj"), 16)[:257], byte(1), byte(1), byte(7), byte(7), uint16(256), byte(0), byte(0))
	f.Add(bytes.Repeat([]byte("abcdefghij"), 100), bytes.Repeat([]byte("0123456789"), 20), byte(2), byte(2), byte(8), byte(7), uint16(255), byte(0), byte(0))
	// Read faults: the FNN shape under a hook installed after programming,
	// and h=3 32-bit operands programmed under one, whose stuck-at-max top
	// cells observe operands past 2^32 (the high slab).
	f.Add(bytes.Repeat([]byte("0123456789abcdefg"), 198)[:16*210], bytes.Repeat([]byte("fedcba9876543"), 17)[:210], byte(1), byte(1), byte(31), byte(31), uint16(255), byte(12), byte(2))
	f.Add(bytes.Repeat([]byte("abcdefghij"), 60), bytes.Repeat([]byte("0123456789"), 6), byte(2), byte(1), byte(31), byte(31), uint16(99), byte(0), byte(7))
	f.Fuzz(func(t *testing.T, payload, query []byte, hRaw, dacRaw, opRaw, inRaw byte, mRaw uint16, valRaw, faultRaw byte) {
		h := int(hRaw)%16 + 1
		dac := int(dacRaw)%16 + 1
		opBits := int(opRaw)%32 + 1
		inBits := int(inRaw)%32 + 1
		m := int(mRaw)%320 + 1
		spec := Spec{M: m, CellBits: h, DACBits: dac, ReadLatencyNs: 1, WriteLatencyNs: 1}
		cpo := spec.CellsPerOperand(opBits)
		maxVecs := m / cpo
		if maxVecs == 0 || len(query) == 0 {
			return
		}
		dims := len(query)
		if dims > m {
			dims = m
		}
		// Values narrower than their operands and inputs: valRaw drops that
		// many high bits from both (0 keeps all 32).
		maxVal := uint64(1)<<uint(32-int(valRaw)%32) - 1
		maxOp := (uint64(1)<<uint(opBits) - 1) & maxVal
		maxIn := (uint64(1)<<uint(inBits) - 1) & maxVal
		nvecs := len(payload) / dims
		if nvecs > maxVecs {
			nvecs = maxVecs
		}
		if nvecs == 0 {
			return
		}
		// faultRaw selects a read fault: 0 none, otherwise a pure hook that
		// sticks some cells at the maximum level or at 0 and flips low bits
		// of others, installed before programming when odd, after when even.
		var hook ReadFault
		if faultRaw != 0 {
			maxLevel := uint16(1)<<uint(h) - 1
			sel := int(faultRaw)
			hook = func(row, col int, level uint16) uint16 {
				switch (row*31 + col*17 + sel) % 7 {
				case 0:
					return maxLevel
				case 1:
					return 0
				case 2:
					return level ^ uint16(sel)&maxLevel
				}
				return level
			}
		}
		c := New(spec)
		if faultRaw%2 == 1 {
			c.SetReadFault(hook)
		}
		vals := make([]uint32, dims)
		for v := 0; v < nvecs; v++ {
			for i := range vals {
				vals[i] = uint32(uint64(payload[v*dims+i]) * 0x9e3779b1 & maxOp)
			}
			if _, err := c.ProgramVector(vals, opBits); err != nil {
				t.Fatalf("ProgramVector: %v", err)
			}
		}
		if faultRaw%2 == 0 {
			c.SetReadFault(hook)
		}
		input := make([]uint32, dims)
		for i := range input {
			input[i] = uint32(uint64(query[i]) * 0x85ebca77 & maxIn)
		}
		want, wantCyc, err := c.DotAllRef(input, inBits)
		if err != nil {
			t.Fatalf("DotAllRef: %v", err)
		}
		got, gotCyc, err := c.DotAll(input, inBits)
		if err != nil {
			t.Fatalf("DotAll: %v", err)
		}
		if gotCyc != wantCyc {
			t.Fatalf("cycles %d, ref %d", gotCyc, wantCyc)
		}
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("m=%d h=%d dac=%d op=%d in=%d dims=%d fault=%d vec %d: dot %d, ref %d",
					m, h, dac, opBits, inBits, dims, faultRaw, v, got[v], want[v])
			}
		}
	})
}
