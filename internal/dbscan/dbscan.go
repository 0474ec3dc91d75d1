// Package dbscan implements density-based clustering (Ester et al., KDD
// 1996) — §II-C of the paper lists "partitioning/density-based
// clustering" among the similarity-based mining tasks its framework
// targets. DBSCAN's inner loop is the ε-range query, a pure similarity
// computation: one knn.EDFilter.Refine pass at the fixed threshold ε²,
// which on the PIM variant prunes every candidate with LB_PIM-ED
// (Theorem 1) before the exact distance — the same filter-and-refine
// recipe as kNN, and like it, exact: host and PIM variants produce
// identical clusterings (integration-tested).
package dbscan

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Label values in Result.Labels.
const (
	// Noise marks points in no cluster.
	Noise = -1
)

// Result is one clustering run's outcome.
type Result struct {
	// Labels holds a cluster id ≥ 0 per point, or Noise.
	Labels []int
	// Clusters is the number of clusters found.
	Clusters int
	// CorePoints counts points with ≥ minPts ε-neighbors.
	CorePoints int
}

// Clusterer runs DBSCAN over a dataset. With a non-nil filter it runs the
// PIM-optimized range queries.
type Clusterer struct {
	Data *vec.Matrix

	filter *knn.EDFilter // LB_PIM-ED over Data; nil on the host-only path
}

// New builds the host-only clusterer.
func New(data *vec.Matrix) *Clusterer { return &Clusterer{Data: data} }

// NewPIM quantizes the dataset and programs it onto the array.
func NewPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*Clusterer, error) {
	f, err := knn.NewEDFilter(eng, data, q, capacityN, "dbscan/points")
	if err != nil {
		return nil, err
	}
	return &Clusterer{Data: data, filter: f}, nil
}

// Name reports which path the clusterer runs.
func (c *Clusterer) Name() string {
	if c.filter != nil {
		return "DBSCAN-PIM"
	}
	return "DBSCAN"
}

// Run clusters with radius eps (true Euclidean) and density threshold
// minPts (the point itself counts, per the original formulation).
func (c *Clusterer) Run(eps float64, minPts int, meter *arch.Meter) (*Result, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("dbscan: eps must be positive, got %v", eps)
	}
	if minPts < 1 {
		return nil, fmt.Errorf("dbscan: minPts must be >= 1, got %d", minPts)
	}
	n := c.Data.N
	eps2 := eps * eps
	labels := make([]int, n)
	for i := range labels {
		labels[i] = Noise
	}
	visited := make([]bool, n)
	res := &Result{Labels: labels}

	// rangeQuery returns the indices within eps of point i (including i).
	neighbors := make([]int, 0, 64)
	inRange := func(j int, d float64) (float64, bool) {
		if d <= eps2 {
			neighbors = append(neighbors, j)
		}
		return eps2, true
	}
	rangeQuery := func(i int) []int {
		neighbors = neighbors[:0]
		if err := c.filter.Refine(c.Data, c.Data.Row(i), 0, n, 0, 0, eps2, inRange, meter); err != nil {
			panic(fmt.Sprintf("dbscan: PIM pass: %v", err)) // the query is a row of the programmed data
		}
		return neighbors
	}

	cluster := 0
	for i := 0; i < n; i++ {
		if visited[i] {
			continue
		}
		visited[i] = true
		seed := rangeQuery(i)
		if len(seed) < minPts {
			continue // noise (may be claimed as a border point later)
		}
		res.CorePoints++
		labels[i] = cluster
		// Expand the cluster over the density-connected region.
		queue := append([]int(nil), seed...)
		for qi := 0; qi < len(queue); qi++ {
			j := queue[qi]
			if labels[j] == Noise {
				labels[j] = cluster // border point
			}
			if visited[j] {
				continue
			}
			visited[j] = true
			labels[j] = cluster
			nb := rangeQuery(j)
			if len(nb) >= minPts {
				res.CorePoints++
				queue = append(queue, nb...)
			}
		}
		cluster++
	}
	res.Clusters = cluster

	meter.C(arch.FuncOther).Ops += int64(n)
	return res, nil
}
