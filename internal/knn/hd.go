package knn

import (
	"errors"
	"fmt"
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/vec"
)

// HDSearcher is a kNN algorithm over binary codes (Fig 14's workload).
type HDSearcher interface {
	Name() string
	Search(q measure.BitVector, k int, meter *arch.Meter) []vec.Neighbor
}

// ---------------------------------------------------------------------------
// HDStandard: exact Hamming linear scan. §II-C notes no bound technique
// significantly beats a linear scan for kNN on HD, so the scan is the
// baseline and PIM accelerates the scan itself.
// ---------------------------------------------------------------------------

// HDStandard scans packed codes with XOR+popcount.
type HDStandard struct {
	Codes []measure.BitVector
}

// NewHDStandard builds the baseline Hamming scan.
func NewHDStandard(codes []measure.BitVector) *HDStandard { return &HDStandard{Codes: codes} }

// Name implements HDSearcher.
func (h *HDStandard) Name() string { return "Standard" }

// Search scans all codes exactly.
func (h *HDStandard) Search(q measure.BitVector, k int, meter *arch.Meter) []vec.Neighbor {
	top := vec.NewTopK(k)
	for i, c := range h.Codes {
		top.Push(i, float64(measure.Hamming(c, q)))
	}
	// Conventional cost: the whole code (d bits) streams from memory per
	// object; XOR+popcount+add per 64-bit word.
	n := int64(len(h.Codes))
	if n > 0 {
		d := h.Codes[0].Bits
		words := int64((d + 63) / 64)
		c := meter.C(arch.FuncHD)
		c.SeqBytes += n * int64(d) / 8
		c.Ops += n * words * 3
		c.Branches += n
		c.Calls += n
	}
	meter.C(arch.FuncOther).Ops += n
	return top.Results()
}

// ---------------------------------------------------------------------------
// HD-PIM: Table 4's exact PIM decomposition of the Hamming distance in
// its single-payload form (see pimbound). Binary operands are exact
// integers, so on a healthy array there is no refinement step at all.
// ---------------------------------------------------------------------------

// hdRow is the HD1 row of Table 4, HD1(p,q) = Ones(p) + Ones(q) − 2·p·q,
// over one 1-bit payload; Φ(q) is Ones(q).
type hdRow struct {
	dotQuery
	ix    *pimbound.HDIndex
	qOnes int
}

func (s *hdRow) fresh() stage { return &hdRow{dotQuery: s.newQuery(), ix: s.ix} }

// prepare is a stage's float-vector entry point, which a packed code does
// not come through: HDPIM.SearchAppend prepares the row itself.
func (s *hdRow) prepare(*memo, *arch.Meter) error {
	return errors.New("knn: the HD stage takes a packed code")
}

func (s *hdRow) lb(i int) float64 { return float64(s.ix.HD1(i, s.qOnes, s.dots[i])) }

func (s *hdRow) lbInto(dst []float64) {
	qOnes := s.qOnes
	ones, dots := s.ix.Ones[:len(dst)], s.dots[:len(dst)]
	for i := range dst {
		dst[i] = float64(ones[i] + qOnes - 2*int(dots[i]))
	}
}

// cost is the host combine: two 32-bit operands per object — the dot
// product and Φ(p)=Ones(p) (the paper's "data transfer of 64-bit" for HD)
// — plus two adds and a shift.
func (s *hdRow) cost(c *arch.Counters, n int64) {
	c.SeqBytes += n * 2 * operandBytes
	c.Ops += n * 3
	c.Branches += n
	c.Calls += n
}

// HDPIM is the PIM-accelerated exact Hamming scan: a cascade of the HD1
// row alone — one 1-bit crossbar payload, one dot-product pass per query,
// two operands moved per object — whose query is a packed code rather
// than a float vector.
type HDPIM struct {
	c *Cascade
}

// NewHDPIM programs the single code payload as 1-bit operands: binary
// codes pack 32× denser than quantized integer vectors and need no weight
// slicing (one cell per bit), which is how Fig 14's 10M 1024-bit codes
// fit the 2GB PIM array. The capacity check uses the full array for
// binary payloads, since the weight-slicing periphery the default
// utilization reserves is not needed at 1-bit operands.
//
// On a healthy array HD1 is the answer and the cascade has no exact step.
// Under a fault injector (pim.Engine.Faulty) the corrected dots
// overestimate the true dot products, so HD1 degrades from an exact value
// to a lower bound; the cascade then filters with it and recomputes the
// survivors' Hamming distances on the host, which keeps results
// bit-identical to the exact scan.
func NewHDPIM(eng *pim.Engine, codes []measure.BitVector, capacityN int) (*HDPIM, error) {
	ix, err := pimbound.BuildHD(codes)
	if err != nil {
		return nil, err
	}
	if ix.D == 0 {
		return nil, fmt.Errorf("knn: HD-PIM needs at least one code")
	}
	model := eng.Model()
	model.Utilization = 1.0
	if !model.FitsB(capacityN, ix.D, 1, 1) {
		return nil, fmt.Errorf("knn: %d-bit codes for N=%d exceed PIM capacity", ix.D, capacityN)
	}
	pay, err := eng.ProgramWidth("hd-pim/bits", len(codes), ix.D, 1, 1, func(i int) []uint32 {
		return ix.Bits[i*ix.D : (i+1)*ix.D]
	})
	if err != nil {
		return nil, err
	}
	h := &HDPIM{c: newPlan("Standard-PIM", len(codes), &hdRow{dotQuery: dotQuery{dotPayload: &dotPayload{fn: arch.FuncHD, eng: eng, pay: pay, ops: 2}}, ix: ix})}
	if eng.Faulty() {
		words := int64((ix.D + 63) / 64)
		h.c.exact = exactStep{
			fn: arch.FuncHD, dims: (ix.D + 31) / 32,
			dist: func(w *walk, i int) float64 { return float64(measure.Hamming(ix.Codes[i], w.code)) },
			// Survivors' codes are fetched with random access and
			// re-scanned on the host.
			cost: func(c *arch.Counters, n int64) {
				c.RandBytes += n * int64(ix.D) / 8
				c.Ops += n * words * 3
			},
		}
	}
	return h, nil
}

// Name implements HDSearcher.
func (h *HDPIM) Name() string { return h.c.name }

// RecordPreprocessing charges the offline programming of the code payload.
func (h *HDPIM) RecordPreprocessing(meter *arch.Meter) { h.c.RecordPreprocessing(meter) }

// Search implements HDSearcher.
func (h *HDPIM) Search(q measure.BitVector, k int, meter *arch.Meter) []vec.Neighbor {
	return h.SearchAppend(q, k, meter, nil)
}

// SearchAppend is Search appending to dst, allocation-free once warmed up
// (see AppendSearcher).
func (h *HDPIM) SearchAppend(q measure.BitVector, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	return h.searchAppend(q, k, math.Inf(1), meter, dst)
}

// searchAppend is SearchAppend returning no row above ceiling (see
// Cascade.walk).
func (h *HDPIM) searchAppend(q measure.BitVector, k int, ceiling float64, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	w := h.c.walks.get()
	row := w.stages[0].(*hdRow)
	w.code, row.qOnes = q, q.Ones()
	row.ix.QueryBitsInto(q, row.floor)
	if err := row.pass(meter); err != nil {
		panic(fmt.Sprintf("knn: HD-PIM query-all: %v", err))
	}
	dst = w.walk(nil, k, ceiling, meter, dst)
	w.code = measure.BitVector{} // do not keep the caller's code alive
	h.c.put(w)
	return dst
}
