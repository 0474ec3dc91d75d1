package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/measure"
	"pimmine/internal/vec"
)

// ---------------------------------------------------------------------------
// Standard: exact linear scan.
// ---------------------------------------------------------------------------

// Standard is the exact ED linear scan over a dataset.
type Standard struct {
	Data *vec.Matrix
	tops freeList[*vec.TopK] // the heaps of searches past
}

// NewStandard builds the baseline scan.
func NewStandard(data *vec.Matrix) *Standard { return &Standard{Data: data} }

// Name implements Searcher.
func (s *Standard) Name() string { return "Standard" }

// Search scans all objects with exact ED.
func (s *Standard) Search(q []float64, k int, meter *arch.Meter) []vec.Neighbor {
	return s.SearchAppend(q, k, meter, nil)
}

// SearchAppend implements AppendSearcher.
func (s *Standard) SearchAppend(q []float64, k int, meter *arch.Meter, dst []vec.Neighbor) []vec.Neighbor {
	top := reuseTopK(s.tops.get(), k)
	data, i := s.Data, 0
	for ; i+4 <= data.N; i += 4 {
		d0, d1, d2, d3 := measure.SqEuclidean4(data.Row(i), data.Row(i+1), data.Row(i+2), data.Row(i+3), q)
		top.Push(i, d0)
		top.Push(i+1, d1)
		top.Push(i+2, d2)
		top.Push(i+3, d3)
	}
	for ; i < data.N; i++ {
		top.Push(i, measure.SqEuclidean(data.Row(i), q))
	}
	costExactRefine(meter.C(arch.FuncED), int64(s.Data.N), s.Data.D)
	meter.C(arch.FuncOther).Ops += int64(s.Data.N) // heap maintenance
	dst = top.AppendResults(dst)
	s.tops.put(top)
	return dst
}

// ---------------------------------------------------------------------------
// Host cascades: OST, SM and FNN are stage lists over the bound package's
// indexes. A host stage moves its index's TransferDims operands per
// consulted object and runs no dot product on the array.
// ---------------------------------------------------------------------------

// hostBound is what every host stage shares: it moves its index's
// TransferDims operands per consulted object in a sequential scan and runs
// no dot product on the array.
type hostBound struct{ tdims int }

func (h hostBound) operands() int                  { return h.tdims }
func (h hostBound) pimDots() int                   { return 0 }
func (h hostBound) cost(c *arch.Counters, n int64) { costBoundScan(c, n, h.tdims) }

// ostStage is LB_OST: the exact head partial distance plus the tail-norm
// gap (Liaw et al. 2010).
type ostStage struct {
	hostBound
	ix    *bound.OSTIndex
	q     []float64 // the query in flight: LB_OST reads its head directly
	qTail float64
}

func (s *ostStage) fresh() stage { return &ostStage{hostBound: s.hostBound, ix: s.ix} }
func (s *ostStage) name() string { return "LBOST" }
func (s *ostStage) segs() int    { return s.ix.D0 }
func (s *ostStage) prepare(m *memo, _ *arch.Meter) error {
	s.q, s.qTail = m.q, s.ix.QueryTail(m.q)
	return nil
}
func (s *ostStage) lb(i int) float64 { return s.ix.LB(i, s.q, s.qTail) }
func (s *ostStage) lbInto(dst []float64) {
	for i := range dst {
		dst[i] = s.ix.LB(i, s.q, s.qTail)
	}
}

// NewOST builds the OST searcher with head length d0 (the paper's baseline
// setting uses half the dimensions; callers may tune).
func NewOST(data *vec.Matrix, d0 int) (*Cascade, error) {
	ix, err := bound.BuildOST(data, d0)
	if err != nil {
		return nil, err
	}
	return newCascade(data, "OST", &ostStage{hostBound: hostBound{ix.TransferDims()}, ix: ix}), nil
}

// smStage is LB_SM, the segmented-mean bound (Yi & Faloutsos 2000).
type smStage struct {
	hostBound
	ix  *bound.SMIndex
	qMu []float64 // query segment-mean scratch
}

func (s *smStage) fresh() stage {
	return &smStage{hostBound: s.hostBound, ix: s.ix, qMu: make([]float64, s.ix.Segs)}
}
func (s *smStage) name() string { return "LBSM" }
func (s *smStage) segs() int    { return s.ix.Segs }
func (s *smStage) prepare(m *memo, _ *arch.Meter) error {
	return s.ix.QueryMuInto(m.q, s.qMu)
}
func (s *smStage) lb(i int) float64 { return s.ix.LB(i, s.qMu) }
func (s *smStage) lbInto(dst []float64) {
	for i := range dst {
		dst[i] = s.ix.LB(i, s.qMu)
	}
}

// NewSM builds the SM searcher with segs segments.
func NewSM(data *vec.Matrix, segs int) (*Cascade, error) {
	ix, err := bound.BuildSM(data, segs)
	if err != nil {
		return nil, err
	}
	return newCascade(data, "SM", &smStage{hostBound: hostBound{ix.TransferDims()}, ix: ix}), nil
}

// fnnStage is LB_FNN at one granularity (Hwang et al. 2012).
type fnnStage struct {
	hostBound
	ix        *bound.FNNIndex
	fname     string    // cached, so the hot path never fmt.Sprintfs
	mu, sigma []float64 // the query's segment statistics, read from its memo
}

func (s *fnnStage) fresh() stage { return &fnnStage{hostBound: s.hostBound, ix: s.ix, fname: s.fname} }
func (s *fnnStage) name() string { return s.fname }
func (s *fnnStage) segs() int    { return s.ix.Segs }
func (s *fnnStage) prepare(m *memo, _ *arch.Meter) error {
	f, err := m.fnnStats(s.ix.Segs)
	if err != nil {
		return err
	}
	s.mu, s.sigma = f.mu, f.sigma
	return nil
}
func (s *fnnStage) lb(i int) float64 { return s.ix.LB(i, s.mu, s.sigma) }

func (s *fnnStage) lb4(rows *[groupSize]int, dst *[groupSize]float64) {
	dst[0], dst[1], dst[2], dst[3] = s.ix.LB4(rows[0], rows[1], rows[2], rows[3], s.mu, s.sigma)
}

// lbInto bounds four objects at a time (bound.FNNIndex.LB4), the
// len(dst)%4 left over one at a time.
func (s *fnnStage) lbInto(dst []float64) {
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s.ix.LB4(i, i+1, i+2, i+3, s.mu, s.sigma)
	}
	for ; i < len(dst); i++ {
		dst[i] = s.ix.LB(i, s.mu, s.sigma)
	}
}

// fnnStages builds one LB_FNN stage per granularity in segCounts, in
// order, collapsing duplicates (for small d several of the paper's levels
// round to one divisor) and skipping the granularity a PIM stage already
// covers (0 for none): the host bound at equal granularity is subsumed by
// the PIM one.
func fnnStages(data *vec.Matrix, segCounts []int, covered int) ([]stage, error) {
	var stages []stage
	seen := map[int]bool{}
	if covered > 0 {
		seen[covered] = true
	}
	for _, segs := range segCounts {
		if seen[segs] {
			continue
		}
		seen[segs] = true
		ix, err := bound.BuildFNN(data, segs)
		if err != nil {
			return nil, err
		}
		stages = append(stages, &fnnStage{hostBound: hostBound{ix.TransferDims()}, ix: ix, fname: fmt.Sprintf("LBFNN-%d", segs)})
	}
	return stages, nil
}

// NewFNN builds the FNN searcher with the paper's three-level cascade for
// the data's dimensionality (granularities near d/64, d/16, d/4 — Fig 12a).
func NewFNN(data *vec.Matrix) (*Cascade, error) {
	levels := bound.FNNLevels(data.D)
	return NewFNNWithLevels(data, levels[:])
}

// NewFNNWithLevels builds the cascade with explicit segment counts
// (ascending). Duplicate granularities are collapsed.
func NewFNNWithLevels(data *vec.Matrix, segCounts []int) (*Cascade, error) {
	stages, err := fnnStages(data, segCounts, 0)
	if err != nil {
		return nil, err
	}
	if len(stages) == 0 {
		return nil, fmt.Errorf("knn: FNN needs at least one granularity")
	}
	return newCascade(data, "FNN", stages...), nil
}
