package pim

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/crossbar"
)

// §VII lists as future work a "more space-friendly PIM scheme ... to
// minimize the impact on latency and endurance" for growing datasets.
// AppendablePayload explores the natural first step: an append-only
// payload that reserves headroom at programming time and grows by
// programming only *fresh* cells — never rewriting programmed ones — so
// inserts are endurance-free and queries stay single-pass.
//
// The trade-off it makes explicit: headroom counts against the Theorem 4
// capacity check up front, so reserving room for growth lowers the
// compressed dimensionality the array can afford today.

// AppendablePayload is a payload with reserved growth headroom.
type AppendablePayload struct {
	*Payload
	eng *Engine
	// CapacityRows is the total reserved row budget (N ≤ CapacityRows).
	CapacityRows int
	appendNs     float64 // accumulated (offline) programming time of appends
}

// ProgramAppendable programs the first n rows and reserves capacity for
// capacityRows total. The Theorem 4 admission check runs against the full
// reservation — headroom is real crossbar space.
func (e *Engine) ProgramAppendable(name string, n, capacityRows, dims, vectorsPerObject, opBits int, rows func(i int) []uint32) (*AppendablePayload, error) {
	if capacityRows < n {
		return nil, fmt.Errorf("pim: reservation %d below initial size %d", capacityRows, n)
	}
	if !e.model.FitsB(capacityRows, dims, vectorsPerObject, opBits) {
		return nil, fmt.Errorf("pim: reservation of %d×%d ×%d exceeds PIM array capacity", capacityRows, dims, vectorsPerObject)
	}
	p, err := e.ProgramWidth(name, n, dims, vectorsPerObject, opBits, rows)
	if err != nil {
		return nil, err
	}
	return &AppendablePayload{Payload: p, eng: e, CapacityRows: capacityRows}, nil
}

// Append programs count additional rows into reserved headroom. rows(i)
// must cover indices [0, oldN+count) and return the already-programmed
// rows unchanged: the payload re-resolves its slab over the grown range
// (the caller's array may have moved when it grew), so a row read costs
// the same however many appends came before. Only fresh cells are
// written — existing data is untouched, so the operation costs zero
// endurance on programmed cells. Returns the modeled programming time of
// the delta.
func (a *AppendablePayload) Append(count int, rows func(i int) []uint32) (float64, error) {
	if count <= 0 {
		return 0, fmt.Errorf("pim: append count %d must be positive", count)
	}
	newN := a.N + count
	if newN > a.CapacityRows {
		return 0, fmt.Errorf("pim: append of %d rows exceeds reservation (%d/%d used)", count, a.N, a.CapacityRows)
	}
	slab, err := resolveSlab(a.Name, newN, a.Dims, rows)
	if err != nil {
		return 0, err
	}
	if a.eng.mode == ModeSimulate {
		// Program the new rows into fresh tiles.
		for i := a.N; i < newN; i++ {
			if err := a.appendTileRow(i, slab[i*a.Dims:(i+1)*a.Dims]); err != nil {
				return 0, err
			}
		}
	}
	a.N, a.slab = newN, slab
	a.extendDigest()
	// Extend the fault injector over any tiles the append grew into (it
	// is extend-only: existing tiles keep their fault maps) and hook the
	// freshly allocated simulate-mode tiles.
	if err := a.eng.installFaults(a.Payload); err != nil {
		return 0, err
	}
	delta := a.eng.programCost(count, a.Dims, a.OpBits)
	a.appendNs += delta.TotalNs()
	a.cost.WriteNs += delta.WriteNs
	a.cost.BusNs += delta.BusNs
	a.cost.Bytes += delta.Bytes
	return delta.TotalNs(), nil
}

// appendTileRow places one appended vector into the simulate-mode tiling,
// growing the tile grid as needed.
func (a *AppendablePayload) appendTileRow(i int, row []uint32) error {
	g := i / a.perGroup
	for g >= len(a.xbars) {
		row := make([]*crossbar.Crossbar, a.chunks)
		for c := range row {
			row[c] = crossbar.New(a.eng.cfg.Crossbar)
		}
		a.xbars = append(a.xbars, row)
	}
	m := a.eng.cfg.Crossbar.M
	for c := 0; c < a.chunks; c++ {
		lo := c * m
		hi := minInt(lo+m, a.Dims)
		if _, err := a.xbars[g][c].ProgramVector(row[lo:hi], a.OpBits); err != nil {
			return fmt.Errorf("pim: appending row %d chunk %d: %w", i, c, err)
		}
	}
	return nil
}

// RecordAppendCost charges the accumulated append programming time to a
// meter function (then resets the accumulator).
func (a *AppendablePayload) RecordAppendCost(m *arch.Meter, fn string) {
	c := m.C(fn)
	c.PIMWriteNs += a.appendNs
	c.Calls++
	a.appendNs = 0
}

// QueryAll delegates to the engine against the payload's current size.
func (a *AppendablePayload) QueryAll(meter *arch.Meter, fn string, input []uint32, dst []int64) ([]int64, error) {
	return a.eng.QueryAll(meter, fn, a.Payload, input, dst)
}

// Verify (exact mode helper): the slab covers exactly the payload's
// logical rows.
func (a *AppendablePayload) Verify() error {
	if len(a.slab) != a.N*a.Dims {
		return fmt.Errorf("pim: payload %q slab holds %d values, want %d×%d", a.Name, len(a.slab), a.N, a.Dims)
	}
	return nil
}
