package crossbar

import (
	"fmt"
	"math/bits"
	"sync"

	"pimmine/internal/vec"
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
// out like a cell plane. Only the L live planes (those with some row set)
// are kept, packed back to back in the order the walk streams them: the
// first 4·⌊W/4⌋ words of every live plane as 4-word blocks, block-major,
// then the W mod 4 remainder words, word-major. It depends on the
// crossbar height only, so a query spanning several tiles of one
// dimension chunk slices its input once (Slice) and hands the same Input
// to each (DotInputInto).
type Input struct {
	quads   [][4]uint64 // quads[j·L+l]: words 4j..4j+3 of live plane l, j < blocks
	tail    []uint64    // tail[i·L+l]: word 4·blocks+i of live plane l
	weights []int64     // weights[l] = 2^b for live plane l's input bit b, b ascending
	planes  []uint64    // Slice's scratch: 32·W words, plane b at b·W
	blocks  int         // ⌊W/4⌋
	dims    int
	bits    int // declared width: sets the modeled cycle count
	words   int // W = ⌈M/64⌉
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
	in.dims, in.bits, in.words, in.blocks = len(input), inputBits, w, w/4
	// One plane per input bit, then the live ones packed.
	in.planes = vec.Resized(in.planes, 32*w)
	for l := live; l != 0; l &= l - 1 {
		clear(in.planes[bits.TrailingZeros32(l)*w:][:w])
	}
	for row, v := range input {
		bit := uint64(1) << (uint(row) & 63)
		for ; v != 0; v &= v - 1 {
			in.planes[bits.TrailingZeros32(v)*w+row>>6] |= bit
		}
	}
	nl := bits.OnesCount32(live)
	in.weights = vec.Resized(in.weights, nl)
	in.quads = vec.Resized(in.quads, in.blocks*nl)
	in.tail = vec.Resized(in.tail, (w-4*in.blocks)*nl)
	for l := range in.weights {
		b := bits.TrailingZeros32(live)
		live &= live - 1
		in.weights[l] = 1 << b
		plane := in.planes[b*w:][:w]
		for j := 0; j < in.blocks; j++ {
			in.quads[j*nl+l] = [4]uint64(plane[4*j:])
		}
		for i, x := range plane[4*in.blocks:] {
			in.tail[i*nl+l] = x
		}
	}
	return nil
}

// dotWordParallel writes the dot product of in with every programmed
// vector into out (len == nvecs). Input bit b is the bit the DACs inject
// as bit b%dac of cycle b/dac, so 2^b is the reference's slice weight
// times its per-cycle S&A shift. Cell bit t of weight-slice k adds that
// slice's S&A shift, so every occupied cell plane carries one shift,
// t + wShift, and one result slot. The tile's occupied planes are walked
// two at a time in column order (pairSum; on Table 5's h = 2 with every
// column full or empty, a pair is a whole column), so a pair may span
// columns and vectors; an odd one out at the end is walked as a pair with
// itself, half of which is kept. One walk for every geometry. Kept above
// pairSum at the end of this file: CI's check_bce step allows no
// IsInBounds from this line down.
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
	clear(out)
	var held []uint64 // an occupied plane waiting for its pair
	var heldShift uint
	var heldDot *int64
	for v := range out {
		dot := &out[v]
		for k, occ := range obs.occ[v*cpo:][:cpo] {
			// S&A: weight-slice position, identically to the reference.
			wShift := uint((cpo - 1 - k) * h)
			for ; occ != 0; occ &= occ - 1 {
				t := bits.TrailingZeros16(occ)
				tp, shift := obs.words[((v*cpo+k)*h+t)*w:][:w], uint(t)+wShift
				if held == nil {
					held, heldShift, heldDot = tp, shift, dot
					continue
				}
				s0, s1 := in.pairSum(held, tp)
				*heldDot += s0 << heldShift
				*dot += s1 << shift
				held = nil
			}
		}
	}
	if held != nil {
		s, _ := in.pairSum(held, held)
		*heldDot += s << heldShift
	}
}

// pairSum returns Σ_b 2^b·|p0 ∧ input_b| and the same for p1, over the
// live input planes b. Each 4-word block of both cell planes is held in
// registers while the live input planes stream past it: per live plane,
// 4 loads, 8 AND+POPCNT and two weighted adds. The W mod 4 remainder
// words follow one at a time.
func (in *Input) pairSum(p0, p1 []uint64) (s0, s1 int64) {
	weights := in.weights
	nl := len(weights)
	for j := 0; j < in.blocks; j++ {
		a, b := p0[4*j:][:4], p1[4*j:][:4]
		a0, a1, a2, a3 := a[0], a[1], a[2], a[3]
		b0, b1, b2, b3 := b[0], b[1], b[2], b[3]
		blk := in.quads[j*nl:][:nl]
		for l, wt := range weights {
			x := &blk[l]
			s0 += int64(bits.OnesCount64(a0&x[0])+bits.OnesCount64(a1&x[1])+
				bits.OnesCount64(a2&x[2])+bits.OnesCount64(a3&x[3])) * wt
			s1 += int64(bits.OnesCount64(b0&x[0])+bits.OnesCount64(b1&x[1])+
				bits.OnesCount64(b2&x[2])+bits.OnesCount64(b3&x[3])) * wt
		}
	}
	tail := in.tail
	p0 = p0[4*in.blocks:]
	p1 = p1[4*in.blocks:][:len(p0)]
	for i, a := range p0 {
		b := p1[i]
		tw := tail[:nl]
		tail = tail[nl:]
		for l, wt := range weights {
			s0 += int64(bits.OnesCount64(a&tw[l])) * wt
			s1 += int64(bits.OnesCount64(b&tw[l])) * wt
		}
	}
	return s0, s1
}
