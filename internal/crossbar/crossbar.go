// Package crossbar simulates a ReRAM crossbar as described in §II-A of the
// paper (Figs 1–3): an m×m grid of h-bit resistive cells that computes
// analog dot products between an input vector injected on the wordlines
// (rows) and the operand vectors pre-programmed along the bitlines
// (columns).
//
// The simulator is functional and deterministic — it reproduces the
// *digital* value the crossbar pipeline produces, including:
//
//   - weight slicing: a b-bit operand is segmented into ⌈b/h⌉ h-bit parts
//     stored in adjacent cells of the same row (Fig 2), recombined by the
//     shift-and-add (S&A) circuit;
//   - input slicing: a b-bit multiplicand is injected ⌈b/dac⌉ DAC-width
//     slices at a time, one slice per cycle, with S&A recombination;
//   - multi-vector packing: with s-dimensional operands (s ≤ m), each
//     crossbar concurrently stores and processes m·h/b vectors (§V-C).
//
// Cycle counts and cell-write counts (endurance, §V-C) are tracked so
// internal/arch can convert activity into modeled time. Analog
// non-idealities are not modeled; the paper likewise assumes exact analog
// dot products and relies on integer operands for exactness.
package crossbar

import (
	"errors"
	"fmt"
)

// Spec describes the crossbar geometry and peripheral circuit widths.
// The paper's configuration (Table 5) is 256×256 cells of 2-bit precision
// with read/write latencies 29.31/50.88 ns.
type Spec struct {
	M              int     // crossbar is M×M cells
	CellBits       int     // h: bits per cell
	DACBits        int     // input slice width per cycle
	ReadLatencyNs  float64 // latency of one compute cycle
	WriteLatencyNs float64 // latency of programming one row of cells
}

// Validate checks the spec for usability.
func (s Spec) Validate() error {
	switch {
	case s.M <= 0:
		return fmt.Errorf("crossbar: non-positive dimension M=%d", s.M)
	case s.CellBits <= 0 || s.CellBits > 16:
		return fmt.Errorf("crossbar: cell precision h=%d outside [1,16]", s.CellBits)
	case s.DACBits <= 0 || s.DACBits > 16:
		return fmt.Errorf("crossbar: DAC width %d outside [1,16]", s.DACBits)
	case s.ReadLatencyNs <= 0 || s.WriteLatencyNs <= 0:
		return errors.New("crossbar: latencies must be positive")
	}
	return nil
}

// CellsPerOperand returns ⌈b/h⌉, the number of adjacent cells one b-bit
// operand occupies (Fig 2's weight slicing).
func (s Spec) CellsPerOperand(operandBits int) int {
	return (operandBits + s.CellBits - 1) / s.CellBits
}

// VectorsPerCrossbar returns how many s-dimensional b-bit vectors one
// crossbar stores when dims ≤ M: M/⌈b/h⌉ column groups (§V-C: "m·h/b
// objects ... processed concurrently"). Returns 0 if dims > M.
func (s Spec) VectorsPerCrossbar(dims, operandBits int) int {
	if dims > s.M || dims <= 0 {
		return 0
	}
	return s.M / s.CellsPerOperand(operandBits)
}

// InputCycles returns ⌈b/dac⌉, the number of compute cycles needed to
// stream a b-bit input through the DACs.
func (s Spec) InputCycles(inputBits int) int {
	return (inputBits + s.DACBits - 1) / s.DACBits
}

// Crossbar is one programmable m×m tile. Operand vectors are laid out
// along column groups: vector v occupies columns
// [v·cpo, (v+1)·cpo) where cpo = CellsPerOperand, with dimension i of the
// vector in row i (MSB-first cell order within the group).
type Crossbar struct {
	spec  Spec
	cells []uint16 // M×M row-major, each value < 2^CellBits
	// writes counts programming operations per cell for endurance
	// tracking (§V-C motivates avoiding re-programming).
	writes []uint32

	// planes is the word-parallel mirror of cells that DotAll reads (see
	// bitPlanes). Maintained by ProgramVector and Reset; never read by the
	// endurance or programming paths.
	planes     bitPlanes
	planeWords int // W = ⌈M/64⌉ words per plane

	opBits int // bits per stored operand (0 until first program)
	dims   int // dimensionality of stored vectors
	nvecs  int // number of vectors currently programmed

	// readFault, when set, models cell-level non-idealities: every read
	// of a cell during DotAll observes readFault(row, col, programmed)
	// instead of the programmed level (internal/fault injects stuck-at
	// and drifted cells through this hook). Programming and endurance
	// accounting always see the true cells.
	readFault ReadFault
	// faulted mirrors the levels readFault reports for the occupied cells,
	// and is what DotAll reads while a hook is installed. Maintained by
	// SetReadFault, ProgramVector and Reset alongside planes, so queries
	// only ever read it; empty without a hook.
	faulted bitPlanes
}

// ReadFault maps a programmed cell level to the level the analog read
// actually observes. row/col are cell coordinates within the tile; the
// returned level must stay within the cell's range [0, 2^CellBits).
// The hook must be a pure function of its arguments: the word-parallel
// read path materializes each faulted cell once, when the hook is
// installed or the cell programmed, instead of once per compute cycle
// (internal/fault's frozen fault maps satisfy this by construction).
type ReadFault func(row, col int, programmed uint16) uint16

// SetReadFault installs (or, with nil, removes) the cell-read fault hook
// and materializes what it makes of the cells programmed so far. Like
// programming, it must not run concurrently with queries.
func (c *Crossbar) SetReadFault(f ReadFault) {
	c.readFault = f
	if f == nil {
		c.faulted = bitPlanes{}
		return
	}
	c.faulted = newBitPlanes(c.spec)
	usedCols := c.nvecs * c.spec.CellsPerOperand(c.opBits)
	for row := 0; row < c.dims; row++ {
		for col := 0; col < usedCols; col++ {
			c.faulted.set(row, col, f(row, col, c.cells[row*c.spec.M+col]))
		}
	}
}

// New creates an empty crossbar. It panics on an invalid spec, since specs
// come from static configuration.
func New(spec Spec) *Crossbar {
	if err := spec.Validate(); err != nil {
		panic(err)
	}
	n := spec.M * spec.M
	return &Crossbar{
		spec:       spec,
		cells:      make([]uint16, n),
		writes:     make([]uint32, n),
		planes:     newBitPlanes(spec),
		planeWords: spec.planeWords(),
	}
}

// Spec returns the crossbar's geometry.
func (c *Crossbar) Spec() Spec { return c.spec }

// Vectors returns how many vectors are currently programmed.
func (c *Crossbar) Vectors() int { return c.nvecs }

// Dims returns the dimensionality of the programmed vectors (0 if none).
func (c *Crossbar) Dims() int { return c.dims }

// ProgramVector stores one vector of non-negative operandBits-bit values
// into the next free column group. All vectors programmed into one
// crossbar must share dims and operandBits. Returns the write time in ns
// (rows are written in parallel across the column group: one write op per
// occupied row).
func (c *Crossbar) ProgramVector(values []uint32, operandBits int) (float64, error) {
	if len(values) == 0 || len(values) > c.spec.M {
		return 0, fmt.Errorf("crossbar: vector of %d dims does not fit %d rows", len(values), c.spec.M)
	}
	if operandBits <= 0 || operandBits > 32 {
		return 0, fmt.Errorf("crossbar: operand width %d outside [1,32]", operandBits)
	}
	if c.nvecs > 0 && (len(values) != c.dims || operandBits != c.opBits) {
		return 0, fmt.Errorf("crossbar: mixed layouts (have %d-dim %d-bit, got %d-dim %d-bit)",
			c.dims, c.opBits, len(values), operandBits)
	}
	cpo := c.spec.CellsPerOperand(operandBits)
	if (c.nvecs+1)*cpo > c.spec.M {
		return 0, fmt.Errorf("crossbar: full (%d vectors of %d columns each)", c.nvecs, cpo)
	}
	maxVal := uint64(1)<<uint(operandBits) - 1
	col0 := c.nvecs * cpo
	for row, v := range values {
		if uint64(v) > maxVal {
			return 0, fmt.Errorf("crossbar: value %d exceeds %d-bit operand", v, operandBits)
		}
		// MSB-first cell order, as in Fig 2's '25' → 01|10|01 example.
		for k := 0; k < cpo; k++ {
			shift := uint((cpo - 1 - k) * c.spec.CellBits)
			cell := uint16(v >> shift & (1<<uint(c.spec.CellBits) - 1))
			idx := row*c.spec.M + col0 + k
			c.cells[idx] = cell
			c.writes[idx]++
			c.setPlanes(row, col0+k, cell)
		}
	}
	c.opBits = operandBits
	c.dims = len(values)
	c.nvecs++
	// One row-parallel write op per occupied row.
	return float64(len(values)) * c.spec.WriteLatencyNs, nil
}

// DotAll injects the input vector on the wordlines and returns the dot
// product of the input with every programmed vector, together with the
// number of compute cycles consumed (⌈inputBits/dac⌉ — all columns and all
// weight slices operate concurrently; only input slicing is serial).
//
// The computation is bit-exact: per cycle each column accumulates the
// analog sum of inputSlice×cell products, the ADC digitizes it, and the
// S&A circuit shifts partial results by the DAC width per input cycle and
// by the cell width per weight-slice position. Internally the column sums
// are evaluated word-parallel over bit planes (64 cells per uint64 op);
// DotAllRef retains the cell-at-a-time form and the equivalence harness
// pins the two bit-identical.
func (c *Crossbar) DotAll(input []uint32, inputBits int) ([]int64, int, error) {
	out := make([]int64, c.nvecs)
	cycles, err := c.DotAllInto(input, inputBits, out)
	if err != nil {
		return nil, 0, err
	}
	return out, cycles, nil
}

// DotAllInto is DotAll writing into dst (len must be Vectors()); the
// steady-state query path reuses dst and the pooled plane scratch, so a
// warmed-up simulate-mode query performs no allocations. It is
// Input.Slice followed by DotInputInto; a caller injecting one input into
// several tiles does those two steps itself.
func (c *Crossbar) DotAllInto(input []uint32, inputBits int, dst []int64) (int, error) {
	in := inputPool.Get().(*Input)
	defer inputPool.Put(in)
	if err := in.Slice(c.spec, input, inputBits); err != nil {
		return 0, err
	}
	return c.DotInputInto(in, dst)
}

// DotInputInto is DotAllInto for an input already validated and sliced
// into bit planes. It only reads in, so one Input may be injected into
// any number of tiles of the same height, concurrently.
func (c *Crossbar) DotInputInto(in *Input, dst []int64) (int, error) {
	if err := c.checkLayout(in.dims); err != nil {
		return 0, err
	}
	if in.words != c.planeWords {
		return 0, fmt.Errorf("crossbar: input sliced for %d-word planes, crossbar has %d", in.words, c.planeWords)
	}
	if len(dst) != c.nvecs {
		return 0, fmt.Errorf("crossbar: result buffer has %d slots, %d vectors programmed", len(dst), c.nvecs)
	}
	c.dotWordParallel(in, dst)
	return c.spec.InputCycles(in.bits), nil
}

// checkLayout validates a query's dimensionality against the programmed
// layout.
func (c *Crossbar) checkLayout(dims int) error {
	if c.nvecs == 0 {
		return errors.New("crossbar: no vectors programmed")
	}
	if dims != c.dims {
		return fmt.Errorf("crossbar: input has %d dims, stored vectors have %d", dims, c.dims)
	}
	return nil
}

// checkInput validates an input vector against its declared width and
// returns the OR of its values: bit b is set iff some value has bit b.
func checkInput(input []uint32, inputBits int) (uint32, error) {
	if inputBits <= 0 || inputBits > 32 {
		return 0, fmt.Errorf("crossbar: input width %d outside [1,32]", inputBits)
	}
	var live uint32
	for _, v := range input {
		live |= v
	}
	if maxVal := uint64(1)<<uint(inputBits) - 1; uint64(live) > maxVal {
		for _, v := range input {
			if uint64(v) > maxVal {
				return 0, fmt.Errorf("crossbar: input value %d exceeds %d-bit width", v, inputBits)
			}
		}
	}
	return live, nil
}

// DotAllRef is the retained cell-at-a-time reference implementation of
// DotAll — a direct transcription of the Fig 2/3 pipeline, kept as the
// executable specification the kernel-equivalence tests and fuzzers pin
// the word-parallel path against. It must never be optimized.
func (c *Crossbar) DotAllRef(input []uint32, inputBits int) ([]int64, int, error) {
	if err := c.checkLayout(len(input)); err != nil {
		return nil, 0, err
	}
	if _, err := checkInput(input, inputBits); err != nil {
		return nil, 0, err
	}
	cycles := c.spec.InputCycles(inputBits)
	cpo := c.spec.CellsPerOperand(c.opBits)
	dacMask := uint32(1)<<uint(c.spec.DACBits) - 1
	out := make([]int64, c.nvecs)
	for cyc := 0; cyc < cycles; cyc++ {
		// Input slice for this cycle, LSB-first streaming.
		inShift := uint(cyc * c.spec.DACBits)
		for v := 0; v < c.nvecs; v++ {
			col0 := v * cpo
			for k := 0; k < cpo; k++ {
				// Analog column sum for weight-slice k of vector v.
				var colSum int64
				for row := 0; row < c.dims; row++ {
					slice := input[row] >> inShift & dacMask
					if slice == 0 {
						continue
					}
					level := c.cells[row*c.spec.M+col0+k]
					if c.readFault != nil {
						level = c.readFault(row, col0+k, level)
					}
					colSum += int64(slice) * int64(level)
				}
				// S&A: shift by input-cycle position and weight-slice position.
				wShift := uint((cpo - 1 - k) * c.spec.CellBits)
				out[v] += colSum << inShift << wShift
			}
		}
	}
	return out, cycles, nil
}

// Reset clears all programmed vectors (but keeps endurance counters, since
// re-programming is precisely the wear the paper's §V-C avoids).
func (c *Crossbar) Reset() {
	for i := range c.cells {
		c.cells[i] = 0
	}
	c.planes.clear()
	c.faulted.clear()
	c.opBits, c.dims, c.nvecs = 0, 0, 0
}

// EnduranceStats summarizes cell wear.
type EnduranceStats struct {
	MaxWrites   uint32
	TotalWrites uint64
	CellsUsed   int
}

// Endurance returns the crossbar's wear statistics.
func (c *Crossbar) Endurance() EnduranceStats {
	var st EnduranceStats
	for _, w := range c.writes {
		if w > 0 {
			st.CellsUsed++
			st.TotalWrites += uint64(w)
			if w > st.MaxWrites {
				st.MaxWrites = w
			}
		}
	}
	return st
}
