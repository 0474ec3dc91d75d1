// Package join implements similarity joins between two datasets — the
// database-flavored face of the paper's similarity primitive:
//
//   - kNN join: for every object of R, its k nearest neighbors in S;
//   - ε-join (distance range join): every pair (r, s) with ED(r,s) ≤ ε².
//
// Each outer row is one knn.EDFilter.Refine pass over S (the inner,
// indexed relation), at the running k-th distance or the fixed ε². The
// PIM variants program S's quantized floors once and run one batched
// dot-product pass per outer row, pruning with LB_PIM-ED exactly as the
// paper's kNN filter does. Results are exact and integration-tested
// against nested-loop joins.
package join

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Joiner joins an outer relation against a fixed inner relation S. With
// a non-nil filter it runs the PIM-optimized path.
//
// A Joiner owns its top-k collector, reused across outer rows (the filter
// keeps its query scratch itself), so the refine loops of KNN/Eps and the
// public KNNRow primitive perform zero heap allocations per row once
// warmed up. The collector makes a Joiner non-reentrant: one Joiner serves
// one goroutine.
type Joiner struct {
	S *vec.Matrix

	filter *knn.EDFilter // LB_PIM-ED over S; nil on the host-only path
	top    *vec.TopK
}

// NewJoiner builds the host-only joiner over the inner relation.
func NewJoiner(s *vec.Matrix) *Joiner { return &Joiner{S: s} }

// NewJoinerPIM quantizes the inner relation and programs it onto the
// array.
func NewJoinerPIM(eng *pim.Engine, s *vec.Matrix, q quant.Quantizer, capacityN int) (*Joiner, error) {
	f, err := knn.NewEDFilter(eng, s, q, capacityN, "join/inner")
	if err != nil {
		return nil, err
	}
	return &Joiner{S: s, filter: f}, nil
}

// Name reports which path the joiner runs.
func (j *Joiner) Name() string {
	if j.filter != nil {
		return "Joiner-PIM"
	}
	return "Joiner"
}

// KNNRow computes the k nearest inner rows of one outer row, appending
// them to dst (ascending squared distance) and returning the extended
// slice. exclude names an inner row to skip (the self-join identity
// pair), or is negative for none; like KNN, it rejects a k the inner
// relation cannot fill once that row is left out. It is the per-row
// refine primitive KNN batches over; a warmed-up Joiner performs zero
// heap allocations per call when dst has capacity for k neighbors.
func (j *Joiner) KNNRow(row []float64, k, exclude int, meter *arch.Meter, dst []vec.Neighbor) ([]vec.Neighbor, error) {
	if err := j.checkK(k, exclude >= 0 && exclude < j.S.N); err != nil {
		return nil, err
	}
	if len(row) != j.S.D {
		return nil, fmt.Errorf("join: outer d=%d, inner d=%d", len(row), j.S.D)
	}
	if j.top == nil {
		j.top = vec.NewTopK(k)
	} else {
		j.top.Reset(k)
	}
	top := j.top
	push := func(s int, d float64) (float64, bool) {
		top.Push(s, d)
		return top.Threshold(), true
	}
	if err := j.filter.Refine(j.S, row, 0, j.S.N, exclude, exclude+1, top.Threshold(), push, meter); err != nil {
		return nil, err
	}
	return top.AppendResults(dst), nil
}

// checkK rejects a k below 1 or one the inner relation cannot fill, one
// row short when self excludes the identity pair.
func (j *Joiner) checkK(k int, self bool) error {
	if k < 1 {
		return fmt.Errorf("join: k must be >= 1, got %d", k)
	}
	need := k
	if self {
		need++
	}
	if j.S.N < need {
		return fmt.Errorf("join: inner relation has %d rows, need %d", j.S.N, need)
	}
	return nil
}

// KNN computes the kNN join R ⋉ₖ S: result[i] holds the k nearest inner
// rows of outer row i (squared distances, ascending). When selfJoin is
// true, R must be S itself and the identity pair (i,i) is excluded.
func (j *Joiner) KNN(r *vec.Matrix, k int, selfJoin bool, meter *arch.Meter) ([][]vec.Neighbor, error) {
	if err := j.checkK(k, selfJoin); err != nil {
		return nil, err
	}
	if r.D != j.S.D {
		return nil, fmt.Errorf("join: outer d=%d, inner d=%d", r.D, j.S.D)
	}
	if selfJoin && r != j.S {
		return nil, fmt.Errorf("join: self-join requires the outer relation to be the inner one")
	}
	out := make([][]vec.Neighbor, r.N)
	// One flat neighbor arena for the whole join: row i appends into the
	// disjoint stride-k region flat[i*k : (i+1)*k], so the per-row refine
	// (KNNRow) allocates nothing.
	flat := make([]vec.Neighbor, r.N*k)
	for i := 0; i < r.N; i++ {
		exclude := -1
		if selfJoin {
			exclude = i
		}
		nbs, err := j.KNNRow(r.Row(i), k, exclude, meter, flat[i*k:i*k:(i+1)*k])
		if err != nil {
			return nil, err
		}
		out[i] = nbs
	}
	return out, nil
}

// Pair is one ε-join result.
type Pair struct {
	R, S int
	// DistSq is the squared Euclidean distance.
	DistSq float64
}

// Eps computes the range join R ⋈_ε S: all pairs with ED(r,s) ≤ ε (true
// Euclidean). Pairs come out in (R, S) lexicographic order. When selfJoin
// is true, only pairs with r < s are emitted.
func (j *Joiner) Eps(r *vec.Matrix, eps float64, selfJoin bool, meter *arch.Meter) ([]Pair, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("join: eps must be positive, got %v", eps)
	}
	if r.D != j.S.D {
		return nil, fmt.Errorf("join: outer d=%d, inner d=%d", r.D, j.S.D)
	}
	if selfJoin && r != j.S {
		return nil, fmt.Errorf("join: self-join requires the outer relation to be the inner one")
	}
	eps2 := eps * eps
	var out []Pair
	var i int
	inRange := func(s int, d float64) (float64, bool) {
		if d <= eps2 {
			out = append(out, Pair{R: i, S: s, DistSq: d})
		}
		return eps2, true
	}
	for i = 0; i < r.N; i++ {
		start := 0
		if selfJoin {
			start = i + 1
		}
		if err := j.filter.Refine(j.S, r.Row(i), start, j.S.N, 0, 0, eps2, inRange, meter); err != nil {
			return nil, err
		}
	}
	return out, nil
}
