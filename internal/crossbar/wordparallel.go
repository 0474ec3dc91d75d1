package crossbar

import (
	"fmt"
	"math/bits"
	"sync"
)

// This file holds the word-parallel DotAll kernel: instead of walking the
// grid cell by cell, the column sums of §II-A are computed over *bit
// planes*. For cell bit t and input bit b,
//
//	Σ_row input(row)·level(row) = Σ_t Σ_b 2^(t+b) · |{row : level_t ∧ input_b}|
//
// and the set intersection over up to 64 rows is one AND + POPCNT on a
// uint64 — the same transformation real bit-serial PIM substrates apply,
// here reused to make the *simulation* of the analog array word-parallel.
// A plane with no bit set contributes nothing, so the kernel walks only
// occupied cell planes × live input planes: a 32-bit operand holding a
// 20-bit value costs what a 20-bit operand costs. That is host work only;
// the modeled array still spends ⌈b/dac⌉ cycles on every column. Results
// are bit-identical to DotAllRef: both evaluate the same integer column
// sums mod 2^64, only the summation order changes (integer addition is
// associative, unlike the float kernels in internal/vec which preserve
// evaluation order instead).

// bitPlanes is a word-parallel mirror of the cell grid: for column c and
// cell bit t, words[(c·h+t)·W : (c·h+t+1)·W] hold one bit per row (row r
// lives in word r/64, bit r%64) saying whether that cell's level has bit
// t set. occ[c] has bit t set iff that plane has any row set. Cells are
// written at most once per program (column groups are always fresh and
// Reset clears the planes), so bits only ever need setting.
type bitPlanes struct {
	words []uint64
	occ   []uint16
	h, w  int
}

func newBitPlanes(spec Spec) bitPlanes {
	h, w := spec.CellBits, spec.planeWords()
	return bitPlanes{words: make([]uint64, spec.M*h*w), occ: make([]uint16, spec.M), h: h, w: w}
}

// planeWords returns W = ⌈M/64⌉, the words one bit plane of M rows takes.
func (s Spec) planeWords() int { return (s.M + 63) / 64 }

func (p *bitPlanes) clear() {
	clear(p.words)
	clear(p.occ)
}

// set records the level of cell (row, col).
func (p *bitPlanes) set(row, col int, level uint16) {
	level &= 1<<uint(p.h) - 1
	p.occ[col] |= level
	base := col*p.h*p.w + row>>6
	bit := uint64(1) << (uint(row) & 63)
	for ; level != 0; level &= level - 1 {
		p.words[base+bits.TrailingZeros16(level)*p.w] |= bit
	}
}

// setPlanes mirrors one programmed cell into the bit planes, and what the
// read-fault hook makes of it into the faulted ones.
func (c *Crossbar) setPlanes(row, col int, level uint16) {
	c.planes.set(row, col, level)
	if c.readFault != nil {
		c.faulted.set(row, col, c.readFault(row, col, level))
	}
}

// Input is one input vector sliced into bit planes, the form the
// word-parallel kernel injects: plane b holds bit b of every row, laid
// out like a cell plane. It depends on the crossbar height only, so a
// query spanning several tiles of one dimension chunk slices its input
// once (Slice) and hands the same Input to each (DotInputInto).
type Input struct {
	planes []uint64 // 32·W words; only the planes named by live are defined
	live   uint32   // bit b set iff some value has bit b set
	dims   int
	bits   int // declared width: sets the modeled cycle count
	words  int // W = ⌈M/64⌉
}

// inputPool holds DotAllInto's per-call Input, so steady-state queries
// are allocation-free and concurrent queries never share a buffer (each
// Get is exclusive until Put).
var inputPool = sync.Pool{New: func() any { return new(Input) }}

// Slice validates input as inputBits-wide values for a crossbar of the
// given spec and rebuilds in from it, reusing in's storage.
func (in *Input) Slice(spec Spec, input []uint32, inputBits int) error {
	if len(input) > spec.M {
		return fmt.Errorf("crossbar: input of %d dims does not fit %d rows", len(input), spec.M)
	}
	live, err := checkInput(input, inputBits)
	if err != nil {
		return err
	}
	w := spec.planeWords()
	if cap(in.planes) < 32*w {
		in.planes = make([]uint64, 32*w)
	}
	in.planes = in.planes[:32*w]
	in.live, in.dims, in.bits, in.words = live, len(input), inputBits, w
	for l := live; l != 0; l &= l - 1 {
		clear(in.planes[bits.TrailingZeros32(l)*w:][:w])
	}
	for row, v := range input {
		bit := uint64(1) << (uint(row) & 63)
		for ; v != 0; v &= v - 1 {
			in.planes[bits.TrailingZeros32(v)*w+row>>6] |= bit
		}
	}
	return nil
}

// dotWordParallel writes the dot product of in with every programmed
// vector into out (len == nvecs). Input bit b is the bit the DACs inject
// as bit b%dac of cycle b/dac, so 2^b is the reference's slice weight
// times its per-cycle S&A shift. Kept last in this file: CI's check_bce
// step allows no IsInBounds from this line down.
func (c *Crossbar) dotWordParallel(in *Input, out []int64) {
	h := c.spec.CellBits
	w := c.planeWords
	cpo := c.spec.CellsPerOperand(c.opBits)
	// The planes the analog read observes: a stuck-at-1 cell can occupy a
	// plane that is empty as programmed.
	obs := &c.planes
	if c.readFault != nil {
		obs = &c.faulted
	}
	for v := range out {
		var dot int64
		for k, occ := range obs.occ[v*cpo:][:cpo] {
			col := v*cpo + k
			// S&A: weight-slice position, identically to the reference.
			wShift := uint((cpo - 1 - k) * h)
			for ; occ != 0; occ &= occ - 1 {
				t := bits.TrailingZeros16(occ)
				tp := obs.words[(col*h+t)*w:][:w]
				var colSum int64
				for live := in.live; live != 0; live &= live - 1 {
					b := bits.TrailingZeros32(live)
					up := in.planes[b*w:][:len(tp)]
					pc := 0
					for i := range tp {
						pc += bits.OnesCount64(tp[i] & up[i])
					}
					colSum += int64(pc) << uint(b)
				}
				dot += colSum << uint(t) << wShift
			}
		}
		out[v] = dot
	}
}
