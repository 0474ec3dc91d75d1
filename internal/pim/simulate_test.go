package pim

import (
	"math/rand"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// visitShape programs one cluster-xbar shard visit's simulate-mode
// payloads on the Table 5 array: the LB_PIM-FNN mu and sigma pair of 16
// rows at d = 420 (two dimension chunks of the 256-row crossbars), 20-bit
// values in 32-bit operands. It returns the engine, both payloads and a
// query of 20-bit values.
func visitShape(tb testing.TB) (*Engine, [2]*Payload, []uint32) {
	tb.Helper()
	const n, dims, valueBits = 16, 420, 20
	eng, err := NewEngine(arch.Default(), ModeSimulate)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	values := func(n int) []uint32 {
		s := make([]uint32, n)
		for i := range s {
			s[i] = rng.Uint32() & (1<<valueBits - 1)
		}
		return s
	}
	var pays [2]*Payload
	for i, name := range []string{"mu", "sigma"} {
		slab := values(n * dims)
		if pays[i], err = eng.Program(name, n, dims, 2, func(r int) []uint32 { return slab[r*dims : (r+1)*dims] }); err != nil {
			tb.Fatal(err)
		}
		if _, chunks := pays[i].Layout(); chunks != 2 {
			tb.Fatalf("payload %s spans %d chunks, want 2", name, chunks)
		}
	}
	return eng, pays, values(dims)
}

// TestSimulateQueryZeroAllocs pins the simulate-mode query path's
// steady state: once the pooled scratch (the sliced input's packed planes
// and the tile partials) has grown, a QueryAll over a two-chunk payload
// allocates nothing, and its dots are still the host's.
func TestSimulateQueryZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch")
	}
	eng, pays, query := visitShape(t)
	dst := make([]int64, pays[0].N)
	allocs := testing.AllocsPerRun(50, func() {
		for _, p := range pays {
			if _, err := eng.QueryAll(nil, "f", p, query, dst); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("warmed simulate-mode QueryAll allocated %.1f times per run, want 0", allocs)
	}
	for i := range dst {
		if want := vec.IntDotRef(pays[1].Row(i), query); dst[i] != want {
			t.Fatalf("row %d: dot %d, want %d", i, dst[i], want)
		}
	}
}

// BenchmarkSimulateQuery times one cluster-xbar shard visit's PIM passes
// in simulate mode: QueryAll over the mu and the sigma payload, each two
// chunks of one 256-row crossbar, so four bit-plane walks per op.
//
//	go test ./internal/pim -run '^$' -bench SimulateQuery -benchmem
func BenchmarkSimulateQuery(b *testing.B) {
	eng, pays, query := visitShape(b)
	dst := make([]int64, pays[0].N)
	if _, err := eng.QueryAll(nil, "f", pays[0], query, dst); err != nil {
		b.Fatal(err) // warm the scratch pool before counting
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pays {
			if _, err := eng.QueryAll(nil, "f", p, query, dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}
