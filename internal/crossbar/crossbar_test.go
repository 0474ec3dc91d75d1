package crossbar

import (
	"math/rand"
	"testing"
)

// paperSpec is the Table 5 crossbar: 256×256 2-bit cells.
func paperSpec() Spec {
	return Spec{M: 256, CellBits: 2, DACBits: 2, ReadLatencyNs: 29.31, WriteLatencyNs: 50.88}
}

// tinySpec matches the 3×3 2-bit examples of Figs 1–3.
func tinySpec() Spec {
	return Spec{M: 3, CellBits: 2, DACBits: 2, ReadLatencyNs: 1, WriteLatencyNs: 1}
}

func TestSpecValidate(t *testing.T) {
	good := paperSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.M = 0 },
		func(s *Spec) { s.CellBits = 0 },
		func(s *Spec) { s.CellBits = 17 },
		func(s *Spec) { s.DACBits = 0 },
		func(s *Spec) { s.ReadLatencyNs = 0 },
		func(s *Spec) { s.WriteLatencyNs = -1 },
	} {
		s := paperSpec()
		mutate(&s)
		if s.Validate() == nil {
			t.Errorf("Validate accepted bad spec %+v", s)
		}
	}
}

func TestGeometryHelpers(t *testing.T) {
	s := paperSpec()
	if got := s.CellsPerOperand(32); got != 16 {
		t.Fatalf("CellsPerOperand(32) = %d, want 16", got)
	}
	if got := s.CellsPerOperand(6); got != 3 {
		t.Fatalf("CellsPerOperand(6) = %d, want 3 (Fig 2)", got)
	}
	// §V-C: m·h/b objects per crossbar = 256·2/32 = 16.
	if got := s.VectorsPerCrossbar(100, 32); got != 16 {
		t.Fatalf("VectorsPerCrossbar = %d, want 16", got)
	}
	if got := s.VectorsPerCrossbar(300, 32); got != 0 {
		t.Fatalf("VectorsPerCrossbar(dims>M) = %d, want 0", got)
	}
	if got := s.InputCycles(32); got != 16 {
		t.Fatalf("InputCycles(32) = %d, want 16", got)
	}
	if got := s.InputCycles(3); got != 2 {
		t.Fatalf("InputCycles(3) = %d, want 2", got)
	}
}

// Fig 1's example: vectors [3,1,0],[1,2,3],[2,0,1] programmed on a 3×3
// crossbar, input [3,1,2] → outputs 10, 11, 8.
func TestFig1Example(t *testing.T) {
	c := New(tinySpec())
	for _, v := range [][]uint32{{3, 1, 0}, {1, 2, 3}, {2, 0, 1}} {
		if _, err := c.ProgramVector(v, 2); err != nil {
			t.Fatal(err)
		}
	}
	out, cycles, err := c.DotAll([]uint32{3, 1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{10, 11, 8}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Fig 1 outputs = %v, want %v", out, want)
		}
	}
	if cycles != 1 {
		t.Fatalf("2-bit input on 2-bit DAC should take 1 cycle, got %d", cycles)
	}
}

// Fig 2's example: 6-bit operands [9,20] and [25,14] on 2-bit cells;
// [25,14]·[9,20] = 225+280 = 505 (the figure's final S&A result).
func TestFig2HighPrecision(t *testing.T) {
	spec := tinySpec()
	c := New(spec)
	// Store [25, 14] as a 2-dim 6-bit vector: each operand spans 3 cells.
	if _, err := c.ProgramVector([]uint32{25, 14}, 6); err != nil {
		t.Fatal(err)
	}
	out, cycles, err := c.DotAll([]uint32{9, 20}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 505 {
		t.Fatalf("Fig 2 dot = %d, want 505", out[0])
	}
	if cycles != 3 {
		t.Fatalf("6-bit input on 2-bit DAC should take 3 cycles, got %d", cycles)
	}
}

// Property: the bit-sliced pipeline equals a plain integer dot product for
// random widths, dimensions and cell precisions.
func TestDotAllMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(32)
		h := []int{1, 2, 4}[rng.Intn(3)]
		dac := []int{1, 2, 4}[rng.Intn(3)]
		spec := Spec{M: m, CellBits: h, DACBits: dac, ReadLatencyNs: 1, WriteLatencyNs: 1}
		c := New(spec)
		opBits := 1 + rng.Intn(20)
		dims := 1 + rng.Intn(m)
		capVecs := spec.VectorsPerCrossbar(dims, opBits)
		if capVecs == 0 {
			continue // operand too wide for this tiny crossbar
		}
		nvec := 1 + rng.Intn(capVecs)
		vecs := make([][]uint32, nvec)
		maxVal := uint32(1)<<uint(opBits) - 1
		for v := range vecs {
			vecs[v] = make([]uint32, dims)
			for i := range vecs[v] {
				vecs[v][i] = rng.Uint32() % (maxVal + 1)
			}
			if _, err := c.ProgramVector(vecs[v], opBits); err != nil {
				t.Fatalf("trial %d: program: %v", trial, err)
			}
		}
		input := make([]uint32, dims)
		for i := range input {
			input[i] = rng.Uint32() % (maxVal + 1)
		}
		out, _, err := c.DotAll(input, opBits)
		if err != nil {
			t.Fatalf("trial %d: dot: %v", trial, err)
		}
		for v := range vecs {
			var want int64
			for i := range input {
				want += int64(vecs[v][i]) * int64(input[i])
			}
			if out[v] != want {
				t.Fatalf("trial %d (m=%d h=%d dac=%d b=%d): vec %d got %d want %d",
					trial, m, h, dac, opBits, v, out[v], want)
			}
		}
	}
}

func TestProgramValidation(t *testing.T) {
	c := New(tinySpec())
	if _, err := c.ProgramVector([]uint32{1, 2, 3, 4}, 2); err == nil {
		t.Fatal("vector longer than M must be rejected")
	}
	if _, err := c.ProgramVector([]uint32{5}, 2); err == nil {
		t.Fatal("value exceeding operand width must be rejected")
	}
	if _, err := c.ProgramVector([]uint32{1}, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProgramVector([]uint32{1, 2}, 2); err == nil {
		t.Fatal("mixed dimensionalities must be rejected")
	}
	if _, err := c.ProgramVector([]uint32{1}, 4); err == nil {
		t.Fatal("mixed operand widths must be rejected")
	}
}

// TestRejectedProgramLeavesNoTrace programs a vector whose last value is
// too wide for its operand: the rejection must come before any cell is
// written, so the next vector lands in a clean column group — its dot
// reads what the reference reads — and the rejected rows cost no wear.
func TestRejectedProgramLeavesNoTrace(t *testing.T) {
	c := New(tinySpec())
	if _, err := c.ProgramVector([]uint32{3, 3, 9}, 2); err == nil {
		t.Fatal("value exceeding operand width must be rejected")
	}
	if c.Vectors() != 0 {
		t.Fatalf("rejected vector counted: %d vectors", c.Vectors())
	}
	if _, err := c.ProgramVector([]uint32{0, 0, 1}, 2); err != nil {
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
	if got[0] != want[0] || got[0] != 1 {
		t.Errorf("after a rejected program: dot %d, ref %d, want 1", got[0], want[0])
	}
	if st := c.Endurance(); st.MaxWrites != 1 || st.TotalWrites != 3 {
		t.Errorf("rejected vector wore cells: %+v, want 3 cells written once", st)
	}
}

func TestCrossbarFull(t *testing.T) {
	c := New(tinySpec()) // 3 columns, 2-bit cells
	// 4-bit operands need 2 cells → only 1 vector fits in 3 columns.
	if _, err := c.ProgramVector([]uint32{7}, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProgramVector([]uint32{7}, 4); err == nil {
		t.Fatal("overfilling the crossbar must be rejected")
	}
}

func TestDotAllValidation(t *testing.T) {
	c := New(tinySpec())
	if _, _, err := c.DotAll([]uint32{1}, 2); err == nil {
		t.Fatal("DotAll on empty crossbar must fail")
	}
	if _, err := c.ProgramVector([]uint32{1, 2}, 2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.DotAll([]uint32{1}, 2); err == nil {
		t.Fatal("input dimensionality mismatch must fail")
	}
	if _, _, err := c.DotAll([]uint32{9, 9}, 2); err == nil {
		t.Fatal("input value exceeding width must fail")
	}
}

func TestEnduranceTracking(t *testing.T) {
	c := New(tinySpec())
	if _, err := c.ProgramVector([]uint32{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	st := c.Endurance()
	if st.CellsUsed != 3 || st.MaxWrites != 1 || st.TotalWrites != 3 {
		t.Fatalf("endurance after one program = %+v", st)
	}
	c.Reset()
	if c.Vectors() != 0 {
		t.Fatal("Reset must clear vectors")
	}
	if _, err := c.ProgramVector([]uint32{1, 2, 3}, 2); err != nil {
		t.Fatal(err)
	}
	if st := c.Endurance(); st.MaxWrites != 2 {
		t.Fatalf("re-programming must accumulate wear, got %+v", st)
	}
}

func TestProgramWriteTime(t *testing.T) {
	spec := tinySpec()
	c := New(spec)
	ns, err := c.ProgramVector([]uint32{1, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ns != 2*spec.WriteLatencyNs {
		t.Fatalf("write time = %v, want one write op per occupied row", ns)
	}
}
