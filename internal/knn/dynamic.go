package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// DynamicPIM is an insert-capable PIM kNN index — the §VII future-work
// exploration made concrete. It reserves crossbar headroom up front
// (pim.AppendablePayload) so inserts program only fresh cells: zero
// endurance cost on existing data, no re-programming, and searches stay
// single-pass. It is the cascade of one LB_PIM-ED stage at full
// dimensionality over the payload's current contents, so the reservation
// must satisfy Theorem 4 for the *reserved* row count; results match an
// exact scan of the same contents.
type DynamicPIM struct {
	*Cascade
	data *vec.Matrix // owned copy that grows with Add
	ix   *pimbound.EDIndex
	pay  *pim.AppendablePayload
}

// NewDynamicPIM indexes the initial data and reserves headroom for
// reserveRows total rows.
func NewDynamicPIM(eng *pim.Engine, initial *vec.Matrix, q quant.Quantizer, reserveRows int) (*DynamicPIM, error) {
	if initial.N == 0 {
		return nil, fmt.Errorf("knn: dynamic index needs at least one initial row")
	}
	ix := pimbound.BuildED(initial, q)
	pay, err := eng.ProgramAppendable("dynamic-pim/floors", initial.N, reserveRows,
		initial.D, 1, eng.Config().OperandBits, ix.Floor)
	if err != nil {
		return nil, err
	}
	data := initial.Clone()
	st := newEDRow(eng, pay.Payload, ix, "LBPIM-ED")
	return &DynamicPIM{Cascade: newCascade(data, "Dynamic-PIM", st), data: data, ix: ix, pay: pay}, nil
}

// Len returns the current number of indexed rows.
func (d *DynamicPIM) Len() int { return d.data.N }

// Headroom returns how many more rows fit the reservation.
func (d *DynamicPIM) Headroom() int { return d.pay.CapacityRows - d.data.N }

// Add inserts new rows (values in [0,1]). Only fresh crossbar cells are
// programmed; the modeled programming time accumulates on the payload and
// can be charged to a meter with RecordInsertCost. The index, the owned
// copy and the payload's slab all grow in place, so a stream of inserts
// costs O(rows inserted), not a copy of the index per call.
func (d *DynamicPIM) Add(rows *vec.Matrix) error {
	if rows.D != d.data.D {
		return fmt.Errorf("knn: adding %d-dim rows to %d-dim index", rows.D, d.data.D)
	}
	if rows.N == 0 {
		return nil
	}
	if rows.N > d.Headroom() {
		return fmt.Errorf("knn: adding %d rows exceeds headroom %d", rows.N, d.Headroom())
	}
	if err := d.ix.AppendRows(rows); err != nil {
		return err
	}
	if _, err := d.pay.Append(rows.N, d.ix.Floor); err != nil {
		return err
	}
	d.data.Data = append(d.data.Data, rows.Data...)
	d.data.N += rows.N
	d.n = d.data.N
	return nil
}

// RecordInsertCost charges accumulated insert programming time to a meter.
func (d *DynamicPIM) RecordInsertCost(m *arch.Meter) {
	d.pay.RecordAppendCost(m, d.stages[0].name())
}
