package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Maximum-similarity search under CS or PCC (Fig 13d): the k most similar
// objects are the k with the largest similarity, so internally we search
// on negated similarity with the same TopK machinery.

// SimStandard is the exact linear scan under CS or PCC.
type SimStandard struct {
	Data *vec.Matrix
	Kind measure.Kind // measure.CS or measure.PCC
}

// NewSimStandard builds the exact similarity scan. kind must be CS or PCC.
func NewSimStandard(data *vec.Matrix, kind measure.Kind) (*SimStandard, error) {
	if kind != measure.CS && kind != measure.PCC {
		return nil, fmt.Errorf("knn: SimStandard needs CS or PCC, got %v", kind)
	}
	return &SimStandard{Data: data, Kind: kind}, nil
}

// Name implements Searcher.
func (s *SimStandard) Name() string { return "Standard" }

// Search scans all objects exactly; Neighbor.Dist holds the negated
// similarity so smaller = more similar.
func (s *SimStandard) Search(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	top := vec.NewTopK(k)
	fn := arch.FuncCS
	for i := 0; i < s.Data.N; i++ {
		var sim float64
		if s.Kind == measure.CS {
			sim = measure.Cosine(s.Data.Row(i), q)
		} else {
			sim = measure.Pearson(s.Data.Row(i), q)
			fn = arch.FuncPCC
		}
		top.Push(i, -sim)
	}
	n := int64(s.Data.N)
	costExactSim(meter.C(fn), n, s.Data.D)
	meter.C(arch.FuncOther).Ops += n
	return top.Results()
}

// costExactSim records the host cost of exact d-dimensional CS or PCC on n
// objects: one pass over the vector, then a sqrt and a division.
func costExactSim(c *arch.Counters, n int64, d int) {
	c.Ops += n * int64(4*d)
	c.ALUOps += n * 2
	c.SeqBytes += n * int64(d) * operandBytes
	c.Branches += n
	c.Calls += n
}

// newSimCascade builds a cascade whose exact step is the negated CS or PCC
// over data. kind must be CS or PCC.
func newSimCascade(data *vec.Matrix, name string, kind measure.Kind, st stage) *Cascade {
	fn, sim := arch.FuncCS, measure.Cosine
	if kind == measure.PCC {
		fn, sim = arch.FuncPCC, measure.Pearson
	}
	c := newPlan(name, data.N, st)
	c.exact = exactStep{
		fn: fn, dims: data.D,
		dist: func(w *walk, i int) float64 { return -sim(data.Row(i), w.q) },
		cost: func(ctr *arch.Counters, n int64) { costExactSim(ctr, n, data.D) },
	}
	return c
}

// NewSimPIM builds the PIM-optimized maximum-similarity scan: UB_PIM-CS or
// UB_PIM-PCC (§V-B) over the quantized dataset, then exact refinement. The
// full d dims are needed for the inner-product bound, so Theorem 4 must
// admit them at full dimensionality (CS/PCC experiments run on datasets
// where this holds; otherwise an error is returned).
func NewSimPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, kind measure.Kind, capacityN int) (*Cascade, error) {
	if kind != measure.CS && kind != measure.PCC {
		return nil, fmt.Errorf("knn: SimPIM needs CS or PCC, got %v", kind)
	}
	if !eng.Model().Fits(capacityN, data.D, 1) {
		return nil, fmt.Errorf("knn: %d-dim floors for N=%d exceed PIM capacity", data.D, capacityN)
	}
	ix := pimbound.BuildCS(data, q)
	pay, err := eng.Program(fmt.Sprintf("sim-pim/%v", kind), data.N, data.D, 1, ix.Floor)
	if err != nil {
		return nil, err
	}
	// Per consultation: the dot, Σ⌊p̄⌋ and the norm or Φa (Fig 8; the query
	// side is cached).
	row := simRow{dotQuery: dotQuery{dotPayload: &dotPayload{fn: "UBPIM-" + kind.String(), eng: eng, pay: pay, ops: 3}}, ix: ix}
	var st stage = &csRow{row}
	if kind == measure.PCC {
		st = &pccRow{row}
	}
	return newSimCascade(data, "Standard-PIM", kind, st), nil
}

// simRow is what the UB_PIM-CS and UB_PIM-PCC rows of Table 4 share: one
// floor payload and one prepared query. Each returns the negated upper
// bound, which is a lower bound on the negated similarity the cascade
// ranks, so an object is pruned exactly when even its upper-bounded
// similarity cannot reach the current k-th best.
type simRow struct {
	dotQuery
	ix *pimbound.CSIndex
	qf pimbound.CSQuery
}

func (s *simRow) freshRow() simRow { return simRow{dotQuery: s.newQuery(), ix: s.ix} }

func (s *simRow) prepare(m *memo, meter *arch.Meter) error {
	if err := s.checkDims(m.q); err != nil {
		return err
	}
	s.qf = s.ix.QueryInto(m.q, s.floor)
	return s.pass(meter)
}

type csRow struct{ simRow }

func (s *csRow) fresh() stage { return &csRow{s.freshRow()} }

func (s *csRow) lb(i int) float64 { return -s.ix.UBCS(i, &s.qf, s.dots[i]) }

// lbInto is −pimbound.CSIndex.UBCS over three streams (see
// fnnFilter.lbInto); a zero norm on either side leaves the bound at −0.
func (s *csRow) lbInto(dst []float64) {
	a2 := s.ix.Q.Alpha * s.ix.Q.Alpha
	qSum, qNorm, d := s.qf.SumFlr, s.qf.Norm, float64(s.ix.D)
	dots, sum, norm := s.dots[:len(dst)], s.ix.SumFlr[:len(dst)], s.ix.Norm[:len(dst)]
	for i := range dst {
		var ub float64
		if np := norm[i]; np != 0 && qNorm != 0 {
			ub = (float64(dots[i]) + sum[i] + qSum + d) / a2 / (np * qNorm)
		}
		dst[i] = -ub
	}
}

type pccRow struct{ simRow }

func (s *pccRow) fresh() stage { return &pccRow{s.freshRow()} }

func (s *pccRow) lb(i int) float64 { return -s.ix.UBPCC(i, &s.qf, s.dots[i]) }

// lbInto is −pimbound.CSIndex.UBPCC over four streams; a constant vector
// on either side leaves the bound at −0.
func (s *pccRow) lbInto(dst []float64) {
	a2 := s.ix.Q.Alpha * s.ix.Q.Alpha
	qSum, qPhiA, qPhiB, d := s.qf.SumFlr, s.qf.PhiA, s.qf.PhiB, float64(s.ix.D)
	dots, sum := s.dots[:len(dst)], s.ix.SumFlr[:len(dst)]
	phiA, phiB := s.ix.PhiA[:len(dst)], s.ix.PhiB[:len(dst)]
	for i := range dst {
		var ub float64
		if den := phiA[i] * qPhiA; den != 0 {
			ubDot := (float64(dots[i]) + sum[i] + qSum + d) / a2
			ub = (float64(d*ubDot) - float64(phiB[i]*qPhiB)) / den
		}
		dst[i] = -ub
	}
}

// partStage is Table 3's UB_part (Teflioudi et al., LEMP) as a host stage:
// CS(p,q) ≤ UB_part(p,q) / (‖p‖‖q‖), negated like the PIM similarity
// bounds. A zero norm on either side bounds the similarity by 0, matching
// measure.Cosine's convention.
type partStage struct {
	hostBound
	ix           *bound.PartIndex
	q            []float64 // the query in flight: UB_part reads its head directly
	qTail, qNorm float64
}

func (s *partStage) fresh() stage { return &partStage{hostBound: s.hostBound, ix: s.ix} }
func (s *partStage) name() string { return "UBpart" }
func (s *partStage) segs() int    { return s.ix.D0 }
func (s *partStage) prepare(m *memo, _ *arch.Meter) error {
	s.q, s.qTail, s.qNorm = m.q, s.ix.QueryTail(m.q), vec.Norm(m.q)
	return nil
}
func (s *partStage) lb(i int) float64 {
	var ub float64
	if pn := s.ix.Norm[i]; pn > 0 && s.qNorm > 0 {
		ub = s.ix.UBDot(i, s.q, s.qTail) / (pn * s.qNorm)
	}
	return -ub
}

func (s *partStage) lbInto(dst []float64) {
	for i := range dst {
		dst[i] = s.lb(i)
	}
}

// NewSimLEMP builds the host-side bound-based baseline for maximum cosine
// similarity search with head length d0: objects whose UB_part-bounded
// similarity cannot reach the current k-th best are pruned before the
// exact computation. This is the CS analogue of the OST/SM/FNN ED
// baselines — §II-C: "Prior works focus on devising upper bound UB ...
// such as UB_part".
func NewSimLEMP(data *vec.Matrix, d0 int) (*Cascade, error) {
	ix, err := bound.BuildPart(data, d0)
	if err != nil {
		return nil, err
	}
	return newSimCascade(data, "LEMP", measure.CS, &partStage{hostBound: hostBound{ix.TransferDims()}, ix: ix}), nil
}
