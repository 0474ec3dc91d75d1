package pim

import (
	"fmt"
	"math/rand"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// slabRows fills an n×dims row-major slab with operands that fit the small
// test architecture's 8-bit operand width.
func slabRows(rng *rand.Rand, n, dims int) []uint32 {
	slab := make([]uint32, n*dims)
	for i := range slab {
		slab[i] = uint32(rng.Intn(200))
	}
	return slab
}

// A row of the wrong length is rejected when the payload is programmed,
// with the same error in both modes, so it can never reach the query path
// (where exact mode would panic inside the kernel).
func TestProgramRejectsMisshapenRows(t *testing.T) {
	const n, dims, bad = 6, 8, 3
	rowsWith := func(badLen int) func(i int) []uint32 {
		return func(i int) []uint32 {
			if i == bad {
				return make([]uint32, badLen)
			}
			return make([]uint32, dims)
		}
	}
	cases := []struct {
		name    string
		badLen  int
		program func(e *Engine, rows func(i int) []uint32) error
	}{
		{"Program/short", dims - 3, func(e *Engine, rows func(i int) []uint32) error {
			_, err := e.Program("p", n, dims, 1, rows)
			return err
		}},
		{"Program/long", dims + 1, func(e *Engine, rows func(i int) []uint32) error {
			_, err := e.Program("p", n, dims, 1, rows)
			return err
		}},
		{"Program/empty", 0, func(e *Engine, rows func(i int) []uint32) error {
			_, err := e.Program("p", n, dims, 1, rows)
			return err
		}},
		{"ProgramPartitioned/short", dims - 3, func(e *Engine, rows func(i int) []uint32) error {
			_, err := e.ProgramPartitioned("p", n, dims, 1, e.cfg.OperandBits, rows)
			return err
		}},
	}
	for _, mode := range []Mode{ModeExact, ModeSimulate} {
		for _, tc := range cases {
			eng, err := NewEngine(smallCfg(), mode)
			if err != nil {
				t.Fatal(err)
			}
			err = tc.program(eng, rowsWith(tc.badLen))
			if err == nil {
				t.Fatalf("mode %d %s: misshapen row accepted", mode, tc.name)
			}
			if want := fmt.Sprintf(`pim: payload "p" row %d has %d dims, want %d`, bad, tc.badLen, dims); err.Error() != want {
				t.Fatalf("mode %d %s: error %q, want %q", mode, tc.name, err, want)
			}
		}
	}
}

// Rows that already lie back to back are aliased, never copied, and a
// warmed exact-mode QueryAll allocates nothing.
func TestPayloadAliasesCallerSlab(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := vec.NewMatrix(50, 24)
	for i := range data.Data {
		data.Data[i] = rng.Float64()
	}
	q, err := quant.New(100)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := pimbound.BuildFNN(data, q, 8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(arch.Default(), ModeExact)
	if err != nil {
		t.Fatal(err)
	}
	mu, err := eng.Program("mu", data.N, ix.Segs, 2, ix.MuFloor)
	if err != nil {
		t.Fatal(err)
	}
	sg, err := eng.Program("sigma", data.N, ix.Segs, 2, ix.SigmaFloor)
	if err != nil {
		t.Fatal(err)
	}
	if &mu.Row(0)[0] != &ix.MuFloors[0] || &sg.Row(data.N - 1)[0] != &ix.SigmaFloor(data.N - 1)[0] {
		t.Fatal("contiguous rows must be aliased, not copied")
	}
	qf, err := ix.Query(data.Row(7))
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int64, data.N)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := eng.QueryAll(nil, "f", mu, qf.MuFloor, dst); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed QueryAll allocated %.1f times per run, want 0", allocs)
	}
	for i := range dst {
		if want := vec.IntDotRef(ix.MuFloor(i), qf.MuFloor); dst[i] != want {
			t.Fatalf("row %d: dot %d, want %d", i, dst[i], want)
		}
	}
}

// Rows scattered over separate allocations are packed into a payload-owned
// slab and give the same dots as the same rows programmed from one array.
func TestNonContiguousRowsGiveIdenticalDots(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n, dims = 37, 19
	slab := slabRows(rng, n, dims)
	scattered := make([][]uint32, n)
	for i := range scattered {
		scattered[i] = append([]uint32(nil), slab[i*dims:(i+1)*dims]...)
	}
	// Contiguous for the first rows, then not: the packed copy must keep
	// the aliased prefix.
	mixed := func(i int) []uint32 {
		if i < 5 {
			return slab[i*dims : (i+1)*dims]
		}
		return scattered[i]
	}
	input := slabRows(rng, 1, dims)
	for _, mode := range []Mode{ModeExact, ModeSimulate} {
		eng, err := NewEngine(smallCfg(), mode)
		if err != nil {
			t.Fatal(err)
		}
		var outs [3][]int64
		for k, rows := range []func(i int) []uint32{
			func(i int) []uint32 { return slab[i*dims : (i+1)*dims] },
			func(i int) []uint32 { return scattered[i] },
			mixed,
		} {
			p, err := eng.Program(string(rune('a'+k)), n, dims, 3, rows)
			if err != nil {
				t.Fatal(err)
			}
			if aliased := &p.Row(0)[0] == &slab[0]; aliased != (k == 0) {
				t.Fatalf("mode %d payload %d: aliased=%v", mode, k, aliased)
			}
			if outs[k], err = eng.QueryAll(nil, "f", p, input, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < n; i++ {
			want := vec.IntDotRef(slab[i*dims:(i+1)*dims], input)
			if outs[0][i] != want || outs[1][i] != want || outs[2][i] != want {
				t.Fatalf("mode %d row %d: dots %d/%d/%d, want %d", mode, i, outs[0][i], outs[1][i], outs[2][i], want)
			}
		}
	}
}
