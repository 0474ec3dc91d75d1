// Package bound implements the classical (host-side) distance bounds of
// Table 3 of the paper, used by the baseline kNN algorithms in the
// filter-and-refinement paradigm:
//
//	LB_OST  (Liaw et al., Pattern Recognition 2010)  — lower bound of ED²
//	LB_SM   (Yi & Faloutsos, VLDB 2000)              — lower bound of ED²
//	LB_FNN  (Hwang et al., CVPR 2012)                — lower bound of ED²
//	UB_part (Teflioudi et al., SIGMOD 2015 / LEMP)   — upper bound of p·q
//
// Each bound has an offline precomputation over the dataset (an *Index)
// and a cheap online evaluation against precomputed query features. All
// bounds are on the squared Euclidean distance, matching Table 2's
// definition of ED.
//
// The derivations hold over the reals. Where one is an equality — LB_FNN
// of a query with no variance in its segments, LB_OST of rows with the
// same tail norm — the computed bound can round past the computed
// distance, and a filter-and-refine walk would prune a row that ties the
// k-th distance, or a ceiling it was given, and may have won on its index.
// So every lower bound is discounted by lbSlack, and UB_part inflated by
// it, as the routing tier's summaries are (internal/route).
package bound

import (
	"fmt"
	"math"

	"pimmine/internal/vec"
)

// lbSlack is the relative discount that keeps the computed bounds
// admissible against computed distances: one part in 10^9, far above the
// rounding of a d-term sum and far below any gap a bound prunes on.
const lbSlack = 1 - 1e-9

// ---------------------------------------------------------------------------
// LB_OST: partial distance on a head prefix plus the squared difference of
// tail norms. For any split d0,
//
//	LB_OST(p,q) = Σ_{i≤d0}(pᵢ−qᵢ)² + (‖p_tail‖ − ‖q_tail‖)² ≤ ED(p,q)
//
// by the reverse triangle inequality applied to the tail subvectors.
// ---------------------------------------------------------------------------

// OSTIndex holds per-object tail norms for a fixed head length.
type OSTIndex struct {
	D0   int       // head length
	Tail []float64 // ‖p_tail‖ per object
	data *vec.Matrix
}

// BuildOST precomputes tail norms with head length d0 (0 < d0 < d).
func BuildOST(m *vec.Matrix, d0 int) (*OSTIndex, error) {
	if d0 <= 0 || d0 >= m.D {
		return nil, fmt.Errorf("bound: OST head length %d outside (0,%d)", d0, m.D)
	}
	ix := &OSTIndex{D0: d0, Tail: make([]float64, m.N), data: m}
	for i := 0; i < m.N; i++ {
		ix.Tail[i] = vec.Norm(m.Row(i)[d0:])
	}
	return ix, nil
}

// QueryTail returns ‖q_tail‖ for a query, computed once per query.
func (ix *OSTIndex) QueryTail(q []float64) float64 { return vec.Norm(q[ix.D0:]) }

// LB evaluates LB_OST between dataset object i and query q.
func (ix *OSTIndex) LB(i int, q []float64, qTail float64) float64 {
	p := ix.data.Row(i)
	var head float64
	for j := 0; j < ix.D0; j++ {
		d := p[j] - q[j]
		head += d * d
	}
	dt := ix.Tail[i] - qTail
	return (head + dt*dt) * lbSlack
}

// TransferDims reports how many operands must move from memory to evaluate
// the bound for one object: the d0 head values plus the tail norm.
func (ix *OSTIndex) TransferDims() int { return ix.D0 + 1 }

// ---------------------------------------------------------------------------
// LB_SM: segmented-mean bound. Splitting p into d′ segments of length l,
//
//	LB_SM(p,q) = l · Σ_{i≤d′} (µ(p̂ᵢ) − µ(q̂ᵢ))² ≤ ED(p,q)
//
// (each segment's squared deviation is at least l times the squared
// difference of means, by Jensen/Cauchy–Schwarz).
// ---------------------------------------------------------------------------

// SMIndex holds per-object segment means.
type SMIndex struct {
	Segs, L int
	Mu      *vec.Matrix // N × Segs
}

// BuildSM precomputes segment means with segs segments (d divisible).
func BuildSM(m *vec.Matrix, segs int) (*SMIndex, error) {
	if segs <= 0 || m.D%segs != 0 {
		return nil, fmt.Errorf("bound: cannot split %d dims into %d segments", m.D, segs)
	}
	ix := &SMIndex{Segs: segs, L: m.D / segs, Mu: vec.NewMatrix(m.N, segs)}
	sigma := make([]float64, segs) // computed, discarded
	for i := 0; i < m.N; i++ {
		if err := vec.SegmentStatsInto(m.Row(i), segs, ix.Mu.Row(i), sigma); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// QueryMu computes the query's segment means once per query.
func (ix *SMIndex) QueryMu(q []float64) ([]float64, error) {
	mu, _, err := vec.SegmentStats(q, ix.Segs)
	return mu, err
}

// QueryMuInto is QueryMu writing into a caller-owned buffer of len Segs —
// the allocation-free form the steady-state search paths use. The means
// are bit-identical to QueryMu's.
func (ix *SMIndex) QueryMuInto(q []float64, mu []float64) error {
	if len(q)%ix.Segs != 0 {
		return fmt.Errorf("bound: cannot split %d dims into %d segments", len(q), ix.Segs)
	}
	if len(mu) != ix.Segs {
		return fmt.Errorf("bound: mean buffer of %d, want %d", len(mu), ix.Segs)
	}
	l := len(q) / ix.Segs
	for i := 0; i < ix.Segs; i++ {
		mu[i] = vec.Mean(q[i*l : (i+1)*l])
	}
	return nil
}

// LB evaluates LB_SM between dataset object i and query segment means.
func (ix *SMIndex) LB(i int, qMu []float64) float64 {
	p := ix.Mu.Row(i)
	var s float64
	for j := range p {
		d := p[j] - qMu[j]
		s += d * d
	}
	return float64(ix.L) * s * lbSlack
}

// TransferDims reports operands moved per object to evaluate the bound.
func (ix *SMIndex) TransferDims() int { return ix.Segs }

// ---------------------------------------------------------------------------
// LB_FNN: segmented mean + standard deviation bound (nonlinear embedding),
//
//	LB_FNN(p,q) = l · Σ_{i≤d′} ((µ(p̂ᵢ)−µ(q̂ᵢ))² + (σ(p̂ᵢ)−σ(q̂ᵢ))²) ≤ ED(p,q)
//
// The FNN algorithm applies this bound at increasing granularities
// (paper: d/64, d/16, d/4 dims) to progressively prune candidates.
// ---------------------------------------------------------------------------

// FNNIndex holds per-object segment means and standard deviations at one
// granularity.
type FNNIndex struct {
	Segs, L   int
	Mu, Sigma *vec.Matrix // each N × Segs
}

// BuildFNN precomputes segment statistics with segs segments.
func BuildFNN(m *vec.Matrix, segs int) (*FNNIndex, error) {
	if segs <= 0 || m.D%segs != 0 {
		return nil, fmt.Errorf("bound: cannot split %d dims into %d segments", m.D, segs)
	}
	ix := &FNNIndex{Segs: segs, L: m.D / segs, Mu: vec.NewMatrix(m.N, segs), Sigma: vec.NewMatrix(m.N, segs)}
	for i := 0; i < m.N; i++ {
		if err := vec.SegmentStatsInto(m.Row(i), segs, ix.Mu.Row(i), ix.Sigma.Row(i)); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// QueryStats computes the query's segment statistics once per query.
func (ix *FNNIndex) QueryStats(q []float64) (mu, sigma []float64, err error) {
	return vec.SegmentStats(q, ix.Segs)
}

// LB evaluates LB_FNN between dataset object i and query statistics.
func (ix *FNNIndex) LB(i int, qMu, qSigma []float64) float64 {
	pm, ps := ix.Mu.Row(i), ix.Sigma.Row(i)
	var s float64
	for j := range pm {
		dm := pm[j] - qMu[j]
		dsg := ps[j] - qSigma[j]
		s += dm*dm + dsg*dsg
	}
	return float64(ix.L) * s * lbSlack
}

// LB4 is LB for objects i0, i1, i2 and i3, each to the bit: every object
// keeps its own sum in ascending segment order, and the four sums run in
// lockstep. Objects may repeat.
func (ix *FNNIndex) LB4(i0, i1, i2, i3 int, qMu, qSigma []float64) (b0, b1, b2, b3 float64) {
	n := ix.Segs
	m0, m1, m2, m3 := ix.Mu.Row(i0)[:n], ix.Mu.Row(i1)[:n], ix.Mu.Row(i2)[:n], ix.Mu.Row(i3)[:n]
	g0, g1, g2, g3 := ix.Sigma.Row(i0)[:n], ix.Sigma.Row(i1)[:n], ix.Sigma.Row(i2)[:n], ix.Sigma.Row(i3)[:n]
	qMu, qSigma = qMu[:n], qSigma[:n]
	var s0, s1, s2, s3 float64
	for j, qm := range qMu {
		qs := qSigma[j]
		dm, dsg := m0[j]-qm, g0[j]-qs
		s0 += dm*dm + dsg*dsg
		dm, dsg = m1[j]-qm, g1[j]-qs
		s1 += dm*dm + dsg*dsg
		dm, dsg = m2[j]-qm, g2[j]-qs
		s2 += dm*dm + dsg*dsg
		dm, dsg = m3[j]-qm, g3[j]-qs
		s3 += dm*dm + dsg*dsg
	}
	l := float64(ix.L)
	return l * s0 * lbSlack, l * s1 * lbSlack, l * s2 * lbSlack, l * s3 * lbSlack
}

// TransferDims reports operands moved per object to evaluate the bound
// (mean and σ per segment).
func (ix *FNNIndex) TransferDims() int { return 2 * ix.Segs }

// FNNLevels picks the paper's three cascade granularities d/64, d/16 and
// d/4, rounded to the nearest divisor of d (ties resolved upward) so the
// segmentation is exact. For MSD's d=420 this yields 7, 28, 105 — the
// granularities named in §VI-C.
func FNNLevels(d int) [3]int {
	return [3]int{
		nearestDivisor(d, float64(d)/64),
		nearestDivisor(d, float64(d)/16),
		nearestDivisor(d, float64(d)/4),
	}
}

// nearestDivisor returns the divisor of d closest to target (ties upward).
// d must be positive; 1 always divides d so a result always exists.
func nearestDivisor(d int, target float64) int {
	best, bestGap := 1, math.Abs(target-1)
	for c := 1; c <= d; c++ {
		if d%c != 0 {
			continue
		}
		gap := math.Abs(target - float64(c))
		if gap < bestGap || (gap == bestGap && c > best) {
			best, bestGap = c, gap
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// UB_part: LEMP-style upper bound on the inner product,
//
//	UB_part(p,q) = Σ_{i≤d0} pᵢqᵢ + ‖p_tail‖·‖q_tail‖ ≥ p·q
//
// by Cauchy–Schwarz on the tail. Dividing by ‖p‖‖q‖ yields an upper bound
// on cosine similarity, used by the CS/PCC maximum-similarity searches.
// ---------------------------------------------------------------------------

// PartIndex holds per-object tail norms and full norms for UB_part.
type PartIndex struct {
	D0   int
	Tail []float64 // ‖p_tail‖ per object
	Norm []float64 // ‖p‖ per object
	data *vec.Matrix
}

// BuildPart precomputes UB_part features with head length d0.
func BuildPart(m *vec.Matrix, d0 int) (*PartIndex, error) {
	if d0 <= 0 || d0 >= m.D {
		return nil, fmt.Errorf("bound: UB_part head length %d outside (0,%d)", d0, m.D)
	}
	ix := &PartIndex{D0: d0, Tail: make([]float64, m.N), Norm: make([]float64, m.N), data: m}
	for i := 0; i < m.N; i++ {
		row := m.Row(i)
		ix.Tail[i] = vec.Norm(row[d0:])
		ix.Norm[i] = vec.Norm(row)
	}
	return ix, nil
}

// UBDot evaluates the upper bound on p·q for dataset object i.
func (ix *PartIndex) UBDot(i int, q []float64, qTail float64) float64 {
	p := ix.data.Row(i)
	var head float64
	for j := 0; j < ix.D0; j++ {
		head += p[j] * q[j]
	}
	ub := head + ix.Tail[i]*qTail
	return ub + math.Abs(ub)*(1-lbSlack)
}

// QueryTail returns ‖q_tail‖ for the query.
func (ix *PartIndex) QueryTail(q []float64) float64 { return vec.Norm(q[ix.D0:]) }

// TransferDims reports operands moved per object to evaluate the bound.
func (ix *PartIndex) TransferDims() int { return ix.D0 + 2 }
