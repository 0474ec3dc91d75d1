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
//
// DotAll does not replay the pipeline cell by cell. The S&A recombination
// is linear, so over integers mod 2^64 (what both the pipeline's int64
// accumulators and the host compute)
//
//	Σ_cyc Σ_k (Σ_row slice_cyc(row)·level_k(row)) << cyc·dac << (cpo−1−k)·h
//	    = Σ_row input(row) · Σ_k level_k(row) << (cpo−1−k)·h
//
// and the inner sum is the operand the read observes: the programmed value
// on a healthy tile, the recombination of the faulted levels under a
// read-fault hook. Each tile keeps those operands vector-major and answers
// a query with one integer sweep (vec.IntDotRows). That is host work only;
// the modeled array still spends ⌈b/dac⌉ cycles on every column.
// DotAllRef keeps the cell-at-a-time form and the equivalence harness pins
// the two bit-identical.
package crossbar

import (
	"errors"
	"fmt"
	"slices"

	"pimmine/internal/vec"
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

	// operands holds the low 32 bits of every stored operand as the analog
	// read observes it, vector-major (nvecs × dims): what DotAll sweeps.
	// high holds the bits above 32, in the same layout, and is nil unless
	// some observed operand has one — only a read-fault hook on a tile
	// with cpo·h > 32 can raise an operand past its 32-bit programmed
	// value. Both are maintained by ProgramVector, SetReadFault and Reset
	// (observe), never read by the endurance or programming paths.
	operands []uint32
	high     []uint32

	opBits int // bits per stored operand (0 until first program)
	dims   int // dimensionality of stored vectors
	nvecs  int // number of vectors currently programmed

	// readFault, when set, models cell-level non-idealities: every read
	// of a cell during DotAll observes readFault(row, col, programmed)
	// instead of the programmed level (internal/fault injects stuck-at
	// and drifted cells through this hook). Programming and endurance
	// accounting always see the true cells.
	readFault ReadFault
}

// ReadFault maps a programmed cell level to the level the analog read
// actually observes. row/col are cell coordinates within the tile; the
// returned level must stay within the cell's range [0, 2^CellBits).
// The hook must be a pure function of its arguments: DotAll reads each
// faulted cell as recombined when the hook was installed or the cell
// programmed, not once per compute cycle (internal/fault's frozen fault
// maps satisfy this by construction).
type ReadFault func(row, col int, programmed uint16) uint16

// SetReadFault installs (or, with nil, removes) the cell-read fault hook
// and recombines what it makes of the cells programmed so far. Like
// programming, it must not run concurrently with queries.
func (c *Crossbar) SetReadFault(f ReadFault) {
	c.readFault = f
	c.high = nil
	c.observe(0)
}

// observe recombines the operands of vectors from..nvecs−1 from their
// cells, through the read-fault hook when one is installed, into operands
// and high. The S&A shift is the reference's: weight slice k of cpo weighs
// 2^((cpo−1−k)·h).
func (c *Crossbar) observe(from int) {
	cpo := c.spec.CellsPerOperand(c.opBits)
	h := uint(c.spec.CellBits)
	if c.high != nil {
		c.high = append(c.high, make([]uint32, len(c.operands)-len(c.high))...)
	}
	for v := from; v < c.nvecs; v++ {
		col0 := v * cpo
		for row := 0; row < c.dims; row++ {
			var op uint64
			for k, level := range c.cells[row*c.spec.M+col0:][:cpo] {
				if c.readFault != nil {
					level = c.readFault(row, col0+k, level)
				}
				op = op<<h + uint64(level)
			}
			i := v*c.dims + row
			c.operands[i] = uint32(op)
			if c.high == nil && op>>32 != 0 {
				c.high = make([]uint32, len(c.operands))
			}
			if c.high != nil {
				c.high[i] = uint32(op >> 32)
			}
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
		spec:   spec,
		cells:  make([]uint16, n),
		writes: make([]uint32, n),
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
// occupied row). A rejected vector writes no cell.
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
	for _, v := range values {
		if uint64(v) > maxVal {
			return 0, fmt.Errorf("crossbar: value %d exceeds %d-bit operand", v, operandBits)
		}
	}
	col0 := c.nvecs * cpo
	for row, v := range values {
		// MSB-first cell order, as in Fig 2's '25' → 01|10|01 example.
		for k := 0; k < cpo; k++ {
			shift := uint((cpo - 1 - k) * c.spec.CellBits)
			idx := row*c.spec.M + col0 + k
			c.cells[idx] = uint16(v >> shift & (1<<uint(c.spec.CellBits) - 1))
			c.writes[idx]++
		}
	}
	if c.nvecs == 0 {
		c.operands = slices.Grow(c.operands[:0], c.spec.M/cpo*len(values))
	}
	c.opBits = operandBits
	c.dims = len(values)
	c.nvecs++
	c.operands = append(c.operands, make([]uint32, len(values))...)
	c.observe(c.nvecs - 1)
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
// by the cell width per weight-slice position. Internally the sum is taken
// over the observed operands (see the package comment); DotAllRef retains
// the cell-at-a-time form and the equivalence harness pins the two
// bit-identical.
func (c *Crossbar) DotAll(input []uint32, inputBits int) ([]int64, int, error) {
	out := make([]int64, c.nvecs)
	cycles, err := c.DotAllInto(input, inputBits, out)
	if err != nil {
		return nil, 0, err
	}
	return out, cycles, nil
}

// DotAllInto is DotAll writing into dst (len must be Vectors()); it
// allocates nothing and only reads the crossbar, so any number of queries
// may share a tile concurrently.
func (c *Crossbar) DotAllInto(input []uint32, inputBits int, dst []int64) (int, error) {
	if err := c.checkLayout(len(input)); err != nil {
		return 0, err
	}
	if err := checkInput(input, inputBits); err != nil {
		return 0, err
	}
	if len(dst) != c.nvecs {
		return 0, fmt.Errorf("crossbar: result buffer has %d slots, %d vectors programmed", len(dst), c.nvecs)
	}
	vec.IntDotRows(c.operands, c.dims, input, dst)
	if c.high != nil {
		for v := range dst {
			dst[v] += vec.IntDot(c.high[v*c.dims:][:c.dims], input) << 32
		}
	}
	return c.spec.InputCycles(inputBits), nil
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

// checkInput validates an input vector against its declared width.
func checkInput(input []uint32, inputBits int) error {
	if inputBits <= 0 || inputBits > 32 {
		return fmt.Errorf("crossbar: input width %d outside [1,32]", inputBits)
	}
	maxVal := uint64(1)<<uint(inputBits) - 1
	for _, v := range input {
		if uint64(v) > maxVal {
			return fmt.Errorf("crossbar: input value %d exceeds %d-bit width", v, inputBits)
		}
	}
	return nil
}

// DotAllRef is the retained cell-at-a-time reference implementation of
// DotAll — a direct transcription of the Fig 2/3 pipeline, kept as the
// executable specification the kernel-equivalence tests and fuzzers pin
// the operand sweep against. It must never be optimized.
func (c *Crossbar) DotAllRef(input []uint32, inputBits int) ([]int64, int, error) {
	if err := c.checkLayout(len(input)); err != nil {
		return nil, 0, err
	}
	if err := checkInput(input, inputBits); err != nil {
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
	c.operands, c.high = c.operands[:0], nil
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
