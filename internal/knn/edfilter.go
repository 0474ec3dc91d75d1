package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// EDFilter is the LB_PIM-ED filter (Theorem 1) over one fixed set of rows:
// their quantized floors are programmed onto the array once, a query row
// is prepared with one batched dot-product pass (EDQuery.Prepare), and
// LB(i) then combines Φ(p̄ᵢ), Φ(q̄) and the dot in O(1) — a lower bound on
// ED(rowᵢ, query), so a candidate whose bound already exceeds the caller's
// threshold is discarded without touching its vector and results stay
// exact. Refine is the filter-and-refine pass of every mining task that
// consults LB_PIM-ED before an exact distance (outlier, join, dbscan,
// motif); k-means holds one EDQuery per centre instead. It is the same
// Table 4 row the SM-PIM and OST-PIM cascades walk (edStage).
//
// A nil *EDFilter is the host-only path: Refine never prunes and charges
// the exact distances alone, so a task is written once against the filter
// instead of wrapping every bound test in a check for the PIM variant.
// Refine prepares each row on an EDQuery from the filter's free list, so a
// filter serves any number of goroutines and a warm Refine allocates nothing.
type EDFilter struct {
	*edRow  // the programmed rows; never prepared
	queries freeList[*EDQuery]
}

// EDQuery is one query row prepared against an EDFilter's rows: its
// features, its dots and the consultations not yet charged. One EDQuery
// serves one goroutine.
type EDQuery struct {
	*edRow
	memo     memo  // the prepared row's features
	consults int64 // LB calls since the last RecordConsults
}

// edRow is the LB_PIM-ED row of Table 4 (Theorem 1) as a prepared query
// over programmed floors: Fig 8's operand pair is Φ(p̄) and the dot. ⌊q̄⌋
// and Φ(q̄) are computed once per query, in its memo, and shared by every
// row over the same view, granularity and α — every shard of a request;
// the dots are the row's own.
type edRow struct {
	dotQuery
	ix   *pimbound.EDIndex
	view edView // the vector of the query the floors were programmed against
	qf   pimbound.EDQuery

	// lazyStage state (see fnnFilter). Only a cascade's walk sets lazy: EDFilter
	// consults LB(i) row by row, in no order a threshold could lead, and
	// the rows embedding edRow under another G (approxRow) stay eager too.
	lazy  bool
	loose bool
	qd    []uint32
}

func newEDRow(eng *pim.Engine, pay *pim.Payload, ix *pimbound.EDIndex, fn string, view edView) *edRow {
	return &edRow{dotQuery: dotQuery{dotPayload: &dotPayload{fn: fn, eng: eng, pay: pay, ops: 2}}, ix: ix, view: view}
}

// freshRow is the row over the same payload with no query prepared.
func (s *edRow) freshRow() *edRow {
	return &edRow{dotQuery: dotQuery{dotPayload: s.dotPayload}, ix: s.ix, view: s.view}
}

func (s *edRow) prepare(m *memo, meter *arch.Meter) error {
	if s.view == viewWhole {
		if err := s.checkDims(m.q); err != nil {
			return err
		}
	}
	f, err := m.pimED(s.ix, s.view)
	if err != nil {
		return err
	}
	s.qf, s.floor = f.ed, f.ed.Floor
	if s.lazy {
		if s.dots, s.loose = s.eng.UpperAll(s.pay, s.floor, s.qd, s.dots); s.loose {
			s.eng.ChargeQuery(meter, s.fn, s.pay)
			return nil
		}
	}
	return s.sweep(meter)
}

// sweep is the array pass for the prepared query (see fnnFilter.sweep).
func (s *edRow) sweep(meter *arch.Meter) error {
	s.loose = false
	return s.pass(meter)
}

func (s *edRow) digested() bool { return s.pay.DigestDims() > 0 }

func (s *edRow) startLazy() {
	s.qd = make([]uint32, s.pay.DigestDims())
	s.lazy = true
}

func (s *edRow) isLoose() bool { return s.loose }

func (s *edRow) lb(i int) float64 { return s.ix.LB(i, s.qf, s.dots[i]) }

// lbInto is pimbound.EDIndex.LB over two streams (see fnnFilter.lbInto).
func (s *edRow) lbInto(dst []float64) {
	a2 := s.ix.Q.Alpha * s.ix.Q.Alpha
	qPhi, d2 := s.qf.Phi, float64(2*float64(s.ix.D))
	phi, dots := s.ix.Phi[:len(dst)], s.dots[:len(dst)]
	for i := range dst {
		dst[i] = (phi[i] + qPhi - float64(2*float64(dots[i])) - d2) / a2
	}
}

// tighten is lbInto for the listed rows, over their exact dots: with one
// payload, every listed row is made exact whatever thr.
func (s *edRow) tighten(rows []int, col []float64, thr float64) []int {
	gatherDots(s.eng, s.pay, s.floor, rows, s.dots)
	a2 := s.ix.Q.Alpha * s.ix.Q.Alpha
	qPhi, d2 := s.qf.Phi, float64(2*float64(s.ix.D))
	phi, dots := s.ix.Phi[:len(col)], s.dots[:len(col)]
	for _, i := range rows {
		col[i] = (phi[i] + qPhi - float64(2*float64(dots[i])) - d2) / a2
	}
	return rows
}

// NewEDFilter checks Theorem 4's capacity constraint for capacityN objects
// of rows.D dimensions, quantizes the rows and programs their floors as
// the named payload. Its activity is metered as "LBPIM-ED".
func NewEDFilter(eng *pim.Engine, rows *vec.Matrix, q quant.Quantizer, capacityN int, payload string) (*EDFilter, error) {
	ix, pay, err := programED(eng, rows, q, capacityN, payload)
	if err != nil {
		return nil, err
	}
	f := &EDFilter{edRow: newEDRow(eng, pay, ix, "LBPIM-ED", viewWhole)}
	f.queries.make = f.NewQuery
	return f, nil
}

// programED is the offline half of every row over LB_PIM-ED's floors.
func programED(eng *pim.Engine, rows *vec.Matrix, q quant.Quantizer, capacityN int, payload string) (*pimbound.EDIndex, *pim.Payload, error) {
	if !eng.Model().Fits(capacityN, rows.D, 1) {
		return nil, nil, fmt.Errorf("knn: payload %q: %d-dim floors for N=%d exceed PIM capacity", payload, rows.D, capacityN)
	}
	ix := pimbound.BuildED(rows, q)
	pay, err := eng.Program(payload, rows.N, rows.D, 1, ix.Floor)
	return ix, pay, err
}

// NewQuery returns a query over the filter's programmed rows, with scratch,
// memo and consultation count of its own.
func (f *EDFilter) NewQuery() *EDQuery { return &EDQuery{edRow: f.freshRow()} }

// Prepare quantizes the query row into the query's memo and runs its PIM
// pass; LB then answers for every programmed row.
func (w *EDQuery) Prepare(row []float64, meter *arch.Meter) error {
	w.memo.reset(row)
	err := w.prepare(&w.memo, meter)
	w.memo.reset(nil) // do not keep the caller's row alive
	return err
}

// LB returns LB_PIM-ED between programmed row i and the prepared query
// row, counting the consultation.
func (w *EDQuery) LB(i int) float64 {
	w.consults++
	return w.lb(i)
}

// Refine runs one query row's filter-and-refine pass: it prepares q, walks
// data's rows lo ≤ j < hi in index order past the excluded span
// skipLo ≤ j < skipHi (the self row, a trivial-match zone), prunes each
// row whose bound exceeds tau and hands each survivor's exact ED² to
// visit, which returns the threshold for the rows after it, or false to
// end the pass. The test is strict: a row whose bound equals tau is
// refined, which a ≤ rule (a radius) needs and a < rule (a best-so-far)
// only pays for, since that row cannot improve it. The PIM pass, the
// consultations and the exact distances are charged to meter.
func (f *EDFilter) Refine(data *vec.Matrix, q []float64, lo, hi, skipLo, skipHi int, tau float64, visit func(j int, d float64) (float64, bool), meter *arch.Meter) error {
	var w *EDQuery
	if f != nil {
		w = f.queries.get()
		defer f.queries.put(w)
		if err := w.Prepare(q, meter); err != nil {
			return err
		}
	}
	var exact int64
	for j := lo; j < hi; j++ {
		if j >= skipLo && j < skipHi {
			j = skipHi - 1
			continue
		}
		if w != nil && w.LB(j) > tau {
			continue
		}
		exact++
		var more bool
		if tau, more = visit(j, measure.SqEuclidean(q, data.Row(j))); !more {
			break
		}
	}
	costExactRefine(meter.C(arch.FuncED), exact, data.D)
	if w != nil {
		w.RecordConsults(meter)
	}
	return nil
}

// RecordConsults charges the host combine of every LB consultation since
// the last call and returns how many there were.
func (w *EDQuery) RecordConsults(meter *arch.Meter) int64 {
	if w.consults == 0 {
		return 0
	}
	n := w.consults
	w.consults = 0
	w.cost(meter.C(w.fn), n)
	return n
}
