package knn

import (
	"fmt"
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// EDFilter is the LB_PIM-ED filter (Theorem 1) over one fixed set of rows:
// their quantized floors are programmed onto the array once, Prepare runs
// one batched dot-product pass for a query row, and LB(i) then combines
// Φ(p̄ᵢ), Φ(q̄) and the dot in O(1) — a lower bound on ED(rowᵢ, query), so
// a candidate whose bound already exceeds the caller's threshold is
// discarded without touching its vector and results stay exact. It is the
// filter of the SM-PIM and OST-PIM cascades and of every mining task that
// consults LB_PIM-ED before an exact distance (outlier, join, dbscan,
// motif).
//
// A nil *EDFilter is the host-only path: Prepare does nothing, LB never
// prunes and RecordCosts charges the exact distances alone, so a task is
// written once against the filter instead of wrapping every bound test in
// a check for the PIM variant. The retained scratch (query floors, dot
// buffer) makes a warmed-up Prepare + LB sweep allocation-free and the
// filter non-reentrant: one filter serves one goroutine.
type EDFilter struct {
	fn       string // meter bucket of the array pass and the host combine
	ix       *pimbound.EDIndex
	eng      *pim.Engine
	pay      *pim.Payload
	qf       pimbound.EDQuery // the prepared row's features; Floor aliases floor
	floor    []uint32
	dots     []int64
	consults int64 // LB calls since the last RecordCosts
}

// NewEDFilter checks Theorem 4's capacity constraint for capacityN objects
// of rows.D dimensions, quantizes the rows and programs their floors as
// the named payload. Its activity is metered as "LBPIM-ED".
func NewEDFilter(eng *pim.Engine, rows *vec.Matrix, q quant.Quantizer, capacityN int, payload string) (*EDFilter, error) {
	return newEDFilter(eng, rows, q, capacityN, payload, "LBPIM-ED")
}

func newEDFilter(eng *pim.Engine, rows *vec.Matrix, q quant.Quantizer, capacityN int, payload, fn string) (*EDFilter, error) {
	if !eng.Model().Fits(capacityN, rows.D, 1) {
		return nil, fmt.Errorf("knn: payload %q: %d-dim floors for N=%d exceed PIM capacity", payload, rows.D, capacityN)
	}
	ix := pimbound.BuildED(rows, q)
	pay, err := eng.Program(payload, rows.N, rows.D, 1, ix.Floor)
	if err != nil {
		return nil, err
	}
	return &EDFilter{fn: fn, ix: ix, eng: eng, pay: pay, floor: make([]uint32, rows.D)}, nil
}

// Prepare quantizes the query row into the retained scratch and runs its
// PIM pass; LB then answers for every programmed row.
func (f *EDFilter) Prepare(row []float64, meter *arch.Meter) error {
	if f == nil {
		return nil
	}
	if len(row) != f.ix.D {
		return fmt.Errorf("knn: %s query has %d dims, filter has %d", f.fn, len(row), f.ix.D)
	}
	f.qf = f.ix.QueryInto(row, f.floor)
	var err error
	f.dots, err = f.eng.QueryAll(meter, f.fn, f.pay, f.floor, f.dots)
	return err
}

// LB returns LB_PIM-ED between programmed row i and the prepared query
// row, counting the consultation; −Inf (prunes nothing) without a filter.
func (f *EDFilter) LB(i int) float64 {
	if f == nil {
		return math.Inf(-1)
	}
	f.consults++
	return f.lb(i)
}

func (f *EDFilter) lb(i int) float64 { return f.ix.LB(i, f.qf, f.dots[i]) }

// RecordCosts charges one filter-and-refine sweep to the meter: exact
// d-dimensional distances stream their vectors, and each LB consultation
// since the last call moved Fig 8's operand pair (Φ(p̄) and the dot; Φ(q̄)
// is computed once per query and cached).
func (f *EDFilter) RecordCosts(meter *arch.Meter, exact int64, d int) {
	costExactRefine(meter.C(arch.FuncED), exact, d)
	if f != nil && f.consults > 0 {
		costPIMBound(meter.C(f.fn), f.consults, 2)
		f.consults = 0
	}
}

func (f *EDFilter) recordProgram(meter *arch.Meter) { pim.RecordProgramCost(meter, f.fn, f.pay) }
