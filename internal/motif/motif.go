// Package motif implements time-series motif discovery — another of the
// similarity-based mining tasks the paper's introduction cites (§I,
// "motif discovery and anomaly detection" [3]). The task: given a series
// and a window length w, find the pair of non-overlapping subsequences
// with the smallest Euclidean distance (the top motif, Mueen [3]).
//
// Each window is one knn.EDFilter.Refine pass over the windows after it,
// at the best distance so far. The host algorithm is the classic scan;
// the PIM-optimized variant quantizes the sliding windows onto the PIM
// array once and consults LB_PIM-ED (Theorem 1) before every exact
// distance — the same filter-and-refine recipe the paper applies to kNN,
// so the discovered motif is exact (tested against brute force).
package motif

import (
	"fmt"
	"math"
	"sort"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Motif is the best non-overlapping pair found.
type Motif struct {
	I, J int // window start offsets, I < J, J−I ≥ w
	// Dist is the true Euclidean distance between the two windows.
	Dist float64
}

// Windows expands a series into its n−w+1 sliding windows, min-max
// normalized into [0,1] with one global affine map (distance-order
// preserving, and the range Theorem 1 requires). The scale factor of the
// normalization is returned so distances can be mapped back if needed.
func Windows(series []float64, w int) (*vec.Matrix, float64, error) {
	if w < 2 || w > len(series) {
		return nil, 0, fmt.Errorf("motif: window %d outside [2,%d]", w, len(series))
	}
	lo, hi := series[0], series[0]
	for _, v := range series {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	n := len(series) - w + 1
	m := vec.NewMatrix(n, w)
	for i := 0; i < n; i++ {
		row := m.Row(i)
		for j := 0; j < w; j++ {
			row[j] = (series[i+j] - lo) / span
		}
	}
	return m, span, nil
}

// Finder locates the top motif of one window matrix. With a non-nil
// filter it runs the PIM-optimized path.
type Finder struct {
	Win *vec.Matrix
	W   int

	filter *knn.EDFilter // LB_PIM-ED over Win; nil on the host-only path
}

// NewFinder builds the host-only finder over pre-computed windows.
func NewFinder(windows *vec.Matrix) *Finder {
	return &Finder{Win: windows, W: windows.D}
}

// NewFinderPIM quantizes the windows and programs them onto the array.
func NewFinderPIM(eng *pim.Engine, windows *vec.Matrix, q quant.Quantizer, capacityN int) (*Finder, error) {
	ed, err := knn.NewEDFilter(eng, windows, q, capacityN, "motif/windows")
	if err != nil {
		return nil, err
	}
	return &Finder{Win: windows, W: windows.D, filter: ed}, nil
}

// Name reports which path the finder runs.
func (f *Finder) Name() string {
	if f.filter != nil {
		return "Finder-PIM"
	}
	return "Finder"
}

// Top returns the closest pair of windows whose offsets differ by at
// least the window length (the standard trivial-match exclusion).
func (f *Finder) Top(meter *arch.Meter) (Motif, error) {
	n := f.Win.N
	if n < f.W+1 {
		return Motif{}, fmt.Errorf("motif: series too short for non-overlapping pairs (windows=%d, w=%d)", n, f.W)
	}
	best := Motif{I: -1, J: -1, Dist: math.Inf(1)}
	bestSq := math.Inf(1)
	var i int
	improve := func(j int, d float64) (float64, bool) {
		if d < bestSq {
			bestSq = d
			best = Motif{I: i, J: j, Dist: math.Sqrt(d)}
		}
		return bestSq, true
	}
	for i = 0; i < n; i++ {
		if err := f.filter.Refine(f.Win, f.Win.Row(i), i+f.W, n, 0, 0, bestSq, improve, meter); err != nil {
			return Motif{}, err
		}
	}
	return best, nil
}

// TopK returns the k best non-overlapping pairs by ascending distance,
// where pairs are additionally required not to trivially match an
// already-reported motif (both endpoints at least w away from the
// corresponding endpoints of every better pair).
func (f *Finder) TopK(k int, meter *arch.Meter) ([]Motif, error) {
	if k < 1 {
		return nil, fmt.Errorf("motif: k must be >= 1, got %d", k)
	}
	n := f.Win.N
	if n < f.W+1 {
		return nil, fmt.Errorf("motif: series too short for non-overlapping pairs")
	}
	// Collect candidate pairs through the same filter machinery, then
	// greedily pick non-overlapping winners. The candidate set is bounded
	// by keeping the best pair per i (sufficient for greedy selection on
	// typical series, exact for k=1).
	type cand struct {
		m  Motif
		sq float64
	}
	cands := make([]cand, 0, n)
	var bi cand
	var i int
	improve := func(j int, d float64) (float64, bool) {
		if d < bi.sq {
			bi = cand{m: Motif{I: i, J: j, Dist: math.Sqrt(d)}, sq: d}
		}
		return bi.sq, true
	}
	for i = 0; i < n; i++ {
		bi = cand{m: Motif{I: -1}, sq: math.Inf(1)}
		if err := f.filter.Refine(f.Win, f.Win.Row(i), i+f.W, n, 0, 0, bi.sq, improve, meter); err != nil {
			return nil, err
		}
		if bi.m.I >= 0 {
			cands = append(cands, bi)
		}
	}
	// Greedy selection by ascending distance with exclusion zones.
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].sq != cands[b].sq {
			return cands[a].sq < cands[b].sq
		}
		return cands[a].m.I < cands[b].m.I
	})
	var out []Motif
	for _, c := range cands {
		if len(out) == k {
			break
		}
		clash := false
		for _, m := range out {
			if absInt(c.m.I-m.I) < f.W || absInt(c.m.J-m.J) < f.W ||
				absInt(c.m.I-m.J) < f.W || absInt(c.m.J-m.I) < f.W {
				clash = true
				break
			}
		}
		if !clash {
			out = append(out, c.m)
		}
	}
	return out, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
