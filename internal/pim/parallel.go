package pim

import (
	"fmt"

	"pimmine/internal/arch"
)

// §V-C closes with: "it is flexible to separate the crossbars into
// multiple groups according to practical applications, for parallelly
// computing multiple functions." QueryAllParallel implements that: the
// given payloads occupy disjoint crossbar groups (their joint capacity
// was reserved at Program time via vectorsPerObject), so their passes
// fire concurrently and the critical path is the *maximum* of the
// per-payload cycle counts rather than the sum. LB_PIM-FNN benefits
// directly — its ⌊µ⌋ and ⌊σ⌋ payloads (Fig 10's crossbar a / crossbar b)
// produce both dot products in one array-wide pass.
func (e *Engine) QueryAllParallel(meter *arch.Meter, fn string, ps []*Payload, inputs [][]uint32, dsts [][]int64) ([][]int64, error) {
	if len(ps) == 0 {
		return nil, fmt.Errorf("pim: parallel query needs at least one payload")
	}
	if len(inputs) != len(ps) {
		return nil, fmt.Errorf("pim: %d payloads with %d inputs", len(ps), len(inputs))
	}
	if dsts == nil {
		dsts = make([][]int64, len(ps))
	}
	if len(dsts) != len(ps) {
		return nil, fmt.Errorf("pim: %d payloads with %d result buffers", len(ps), len(dsts))
	}
	var faulty, recovered int64
	for i, p := range ps {
		out, f, r, err := e.sweep(p, inputs[i], dsts[i])
		if err != nil {
			return nil, err
		}
		dsts[i] = out
		faulty, recovered = faulty+f, recovered+r
	}
	e.charge(meter, fn, faulty, recovered, ps...) // concurrent groups: critical path only
	return dsts, nil
}
