package netserve_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"pimmine/internal/dataset"
	"pimmine/internal/netserve"
)

// uniformRows draws rows d-dimensional queries uniformly from [0,1):
// 16- and 17-digit shortest forms, a third of which need the
// Eisel–Lemire tier.
func uniformRows(rows, d int) [][]float64 {
	rng := rand.New(rand.NewSource(int64(rows*d) + 17))
	qs := make([][]float64, rows)
	for i := range qs {
		qs[i] = make([]float64, d)
		for j := range qs[i] {
			qs[i][j] = rng.Float64()
		}
	}
	return qs
}

// workloadRows draws rows queries the way the benchmark workloads do —
// from a 64-row dataset of the named profile, seed 11: 83 % (Trevi) to
// 99 % (MSD) of their values take Clinger's exact tier.
func workloadRows(tb testing.TB, profile string, rows int) [][]float64 {
	tb.Helper()
	p, err := dataset.ByName(profile)
	if err != nil {
		tb.Fatal(err)
	}
	q := dataset.Generate(p, 64, 11).Queries(rows, 11)
	qs := make([][]float64, rows)
	for i := range qs {
		qs[i] = q.Row(i)
	}
	return qs
}

// wireBody renders queries the way a client marshals them: shortest-form
// float64s. One row is a QueryRequest, more a BatchRequest.
func wireBody(tb testing.TB, qs [][]float64) []byte {
	tb.Helper()
	var req any = netserve.QueryRequest{Query: qs[0], K: 10}
	if len(qs) > 1 {
		req = netserve.BatchRequest{Queries: qs, K: 10}
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecode measures the request decoders at the benchmark
// workloads' shapes (wire-knn d=420, wire-light d=4096, cluster-xbar
// 8×420), each beside the encoding/json reference it replaced: on
// uniform values, and (-trevi, -msd) on the values the workloads send.
func BenchmarkDecode(b *testing.B) {
	query := func(decode func([]byte, int, int) (*netserve.QueryRequest, error), d int) func([]byte) error {
		return func(body []byte) error {
			_, err := decode(body, d, netserve.DefaultMaxK)
			return err
		}
	}
	batch := func(decode func([]byte, int, int, int) (*netserve.BatchRequest, error), d int) func([]byte) error {
		return func(body []byte) error {
			_, err := decode(body, d, netserve.DefaultMaxK, netserve.DefaultMaxBatch)
			return err
		}
	}
	q420, q4096, b8x420 := wireBody(b, uniformRows(1, 420)), wireBody(b, uniformRows(1, 4096)), wireBody(b, uniformRows(8, 420))
	trevi, msd := wireBody(b, workloadRows(b, "Trevi", 1)), wireBody(b, workloadRows(b, "MSD", 8))
	for _, bc := range []struct {
		name   string
		body   []byte
		decode func([]byte) error
	}{
		{"query-420", q420, query(netserve.DecodeQueryRequest, 420)},
		{"query-420-ref", q420, query(netserve.RefDecodeQueryRequest, 420)},
		{"query-4096", q4096, query(netserve.DecodeQueryRequest, 4096)},
		{"query-4096-ref", q4096, query(netserve.RefDecodeQueryRequest, 4096)},
		{"batch-8x420", b8x420, batch(netserve.DecodeBatchRequest, 420)},
		{"batch-8x420-ref", b8x420, batch(netserve.RefDecodeBatchRequest, 420)},
		{"query-4096-trevi", trevi, query(netserve.DecodeQueryRequest, 4096)},
		{"query-4096-trevi-ref", trevi, query(netserve.RefDecodeQueryRequest, 4096)},
		{"batch-8x420-msd", msd, batch(netserve.DecodeBatchRequest, 420)},
		{"batch-8x420-msd-ref", msd, batch(netserve.RefDecodeBatchRequest, 420)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.decode(bc.body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeAllocs guards the two things the scanner is for: a request
// costs a fixed handful of allocations whatever its dimensionality (the
// request, its vector — the reflection decoder regrew that ~20 times;
// no number allocates, so a batch adds its rows and the slice of them
// growing), and a body the engine could never use is refused at element
// dims+1, not after it has been parsed whole (an 8 MiB array of zeros
// used to allocate a 4 M-element slice before the dims check saw it).
func TestDecodeAllocs(t *testing.T) {
	body := wireBody(t, uniformRows(1, 4096))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := netserve.DecodeQueryRequest(body, 4096, netserve.DefaultMaxK); err != nil {
			t.Fatal(err)
		}
	}); n > 3 {
		t.Errorf("DecodeQueryRequest at d=4096: %v allocs, want <= 3", n)
	}
	batch := wireBody(t, uniformRows(8, 420))
	if n := testing.AllocsPerRun(20, func() {
		if _, err := netserve.DecodeBatchRequest(batch, 420, netserve.DefaultMaxK, netserve.DefaultMaxBatch); err != nil {
			t.Fatal(err)
		}
	}); n > 13 {
		t.Errorf("DecodeBatchRequest at 8×420: %v allocs, want <= 13", n)
	}

	const dims, runs = 3, 20
	zeros := append(append([]byte(`{"query":[0`), bytes.Repeat([]byte(",0"), 1<<19)...), `],"k":1}`...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := netserve.DecodeQueryRequest(zeros, dims, netserve.DefaultMaxK); !errors.Is(err, netserve.ErrBadRequest) {
			t.Fatalf("1 MiB of zeros against dims=%d: err = %v", dims, err)
		}
	}
	runtime.ReadMemStats(&after)
	// The vector's dims float64s plus the error; parsing the body whole
	// would be megabytes.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 1024 {
		t.Errorf("refusing a 1 MiB body allocated %d bytes, want <= 1024: the refusal is not at element dims+1", perRun)
	}
}
