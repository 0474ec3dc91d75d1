package crossbar

import (
	"math/rand"
	"sync"
	"testing"
)

// TestScratchPoolConcurrent hammers the shared input-plane pool from many
// goroutines, two to a crossbar (the serve layer's shard workers share an
// engine's tiles exactly so), every other crossbar under a read-fault
// hook. Run under -race it proves pooled scratch is never shared between
// in-flight queries and that queries only read a crossbar — its planes
// and the faulted ones materialized when the hook went in; the result
// check proves buffers are re-zeroed correctly on reuse.
func TestScratchPoolConcurrent(t *testing.T) {
	t.Parallel()
	spec := Spec{M: 96, CellBits: 2, DACBits: 2, ReadLatencyNs: 1, WriteLatencyNs: 1}
	const workers = 8
	const iters = 50

	xbs := make([]*Crossbar, workers)
	inputs := make([][]uint32, workers)
	wants := make([][]int64, workers)
	for w := 0; w < workers; w++ {
		rng := rand.New(rand.NewSource(int64(100 + w)))
		if w%2 == 0 {
			xbs[w] = buildRandom(t, spec, rng, 4, 77, 8)
			if w%4 == 0 {
				xbs[w].SetReadFault(func(row, col int, level uint16) uint16 {
					if (row+col)%5 == 0 {
						return level | 1
					}
					return level
				})
			}
		} else {
			xbs[w] = xbs[w-1]
		}
		in := make([]uint32, 77)
		for i := range in {
			in[i] = rng.Uint32() & 0xff
		}
		inputs[w] = in
		want, _, err := xbs[w].DotAllRef(in, 8)
		if err != nil {
			t.Fatal(err)
		}
		wants[w] = want
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dst := make([]int64, xbs[w].Vectors())
			for it := 0; it < iters; it++ {
				if _, err := xbs[w].DotAllInto(inputs[w], 8, dst); err != nil {
					errs <- err.Error()
					return
				}
				for v := range dst {
					if dst[v] != wants[w][v] {
						errs <- "concurrent DotAllInto diverged from reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
