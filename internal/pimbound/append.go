package pimbound

import (
	"fmt"

	"pimmine/internal/vec"
)

// AppendRows extends an LB_PIM-ED index with additional normalized rows,
// quantizing them with the index's α. Existing features are untouched, so
// a PIM payload reading floors through ix.Floor stays valid (the accessor
// resolves against the current storage on every call).
func (ix *EDIndex) AppendRows(m *vec.Matrix) error {
	if m.D != ix.D {
		return fmt.Errorf("pimbound: appending %d-dim rows to %d-dim index", m.D, ix.D)
	}
	// Grow both arrays in place (append's amortised doubling: a stream of
	// small appends costs O(rows appended), not a copy of the index each).
	ix.Floors = append(ix.Floors, make([]uint32, m.N*ix.D)...)
	ix.Phi = append(ix.Phi, make([]float64, m.N)...)
	for i := 0; i < m.N; i++ {
		ix.Phi[ix.n+i] = edFeatures(m.Row(i), ix.Q, ix.Floor(ix.n+i))
	}
	ix.n += m.N
	return nil
}
