// Package outlier implements distance-based outlier detection, one of the
// similarity-based mining tasks the paper's introduction names alongside
// kNN classification and k-means clustering (§I, §II-C: "distance-based
// outlier detection"). Two classical formulations are provided:
//
//   - DB(r, π) outliers (Knorr & Ng, VLDB 1998): an object is an outlier
//     if fewer than π·N objects lie within distance r of it.
//   - Top-n kNN-distance outliers (Ramaswamy et al., SIGMOD 2000): the n
//     objects with the largest distance to their k-th nearest neighbor.
//
// Both are built on the same ED primitive as the paper's tasks: each
// object's test is one knn.EDFilter.Refine pass over the others, at r² or
// at the running k-NN threshold. On the PIM-optimized variant LB_PIM-ED
// (Theorem 1) is consulted before every exact distance, and — because the
// bound is a *lower* bound — a neighbor candidate whose bound already
// exceeds r (or the current k-NN threshold) is discarded without touching
// its vector. Results are exact (integration-tested against the naive
// scans).
package outlier

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

// Detector finds distance-based outliers over a dataset. With a non-nil
// filter it runs the PIM-optimized path.
type Detector struct {
	Data *vec.Matrix

	filter *knn.EDFilter // LB_PIM-ED over Data; nil on the host-only path
}

// NewDetector builds the host-only detector.
func NewDetector(data *vec.Matrix) *Detector { return &Detector{Data: data} }

// NewDetectorPIM builds the PIM-optimized detector: the dataset's floor
// vectors are programmed once; each object's outlier test reuses one
// batched dot-product pass.
func NewDetectorPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*Detector, error) {
	f, err := knn.NewEDFilter(eng, data, q, capacityN, "outlier/points")
	if err != nil {
		return nil, err
	}
	return &Detector{Data: data, filter: f}, nil
}

// Name reports which path the detector runs.
func (d *Detector) Name() string {
	if d.filter != nil {
		return "Detector-PIM"
	}
	return "Detector"
}

// DB reports the DB(r, pi) outliers: objects with fewer than ⌈pi·N⌉
// neighbors (excluding themselves) within distance r (true Euclidean).
// Indices are returned ascending.
func (d *Detector) DB(r float64, pi float64, meter *arch.Meter) ([]int, error) {
	if r <= 0 || pi <= 0 || pi > 1 {
		return nil, fmt.Errorf("outlier: DB needs r > 0 and pi in (0,1], got r=%v pi=%v", r, pi)
	}
	n := d.Data.N
	need := int(math.Ceil(pi * float64(n)))
	r2 := r * r
	var out []int
	var neighbors int
	// An object with ≥ need in-range neighbors is not an outlier; the pass
	// can stop counting early either way.
	inRange := func(_ int, d float64) (float64, bool) {
		if d <= r2 {
			neighbors++
		}
		return r2, neighbors < need
	}
	for i := 0; i < n; i++ {
		neighbors = 0
		if err := d.filter.Refine(d.Data, d.Data.Row(i), 0, n, i, i+1, r2, inRange, meter); err != nil {
			return nil, err
		}
		if neighbors < need {
			out = append(out, i)
		}
	}
	return out, nil
}

// Outlier is one top-n kNN-distance result.
type Outlier struct {
	Index int
	// Score is the true distance to the object's k-th nearest neighbor.
	Score float64
}

// TopN returns the n objects with the largest k-NN distance, sorted by
// descending score (ties by ascending index).
func (d *Detector) TopN(n, k int, meter *arch.Meter) ([]Outlier, error) {
	if n < 1 || k < 1 {
		return nil, fmt.Errorf("outlier: TopN needs n,k >= 1, got n=%d k=%d", n, k)
	}
	if k >= d.Data.N {
		return nil, fmt.Errorf("outlier: k=%d must be below N=%d", k, d.Data.N)
	}
	scores := make([]Outlier, d.Data.N)
	top := vec.NewTopK(k)
	push := func(j int, dist float64) (float64, bool) {
		top.Push(j, dist)
		return top.Threshold(), true
	}
	for i := 0; i < d.Data.N; i++ {
		top.Reset(k)
		if err := d.filter.Refine(d.Data, d.Data.Row(i), 0, d.Data.N, i, i+1, top.Threshold(), push, meter); err != nil {
			return nil, err
		}
		// k < N, so the collector is full and its threshold is the k-th distance.
		scores[i] = Outlier{Index: i, Score: math.Sqrt(top.Threshold())}
	}
	sort.Slice(scores, func(a, b int) bool {
		if scores[a].Score != scores[b].Score {
			return scores[a].Score > scores[b].Score
		}
		return scores[a].Index < scores[b].Index
	})
	if n > len(scores) {
		n = len(scores)
	}
	return scores[:n], nil
}
