package kmeans

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Lloyd is the standard two-step iterative refinement [48]: assign every
// point to its nearest center, then recompute centers.
type Lloyd struct {
	Data *vec.Matrix
}

// NewLloyd builds the baseline algorithm.
func NewLloyd(data *vec.Matrix) *Lloyd { return &Lloyd{Data: data} }

// Name implements Algorithm.
func (l *Lloyd) Name() string { return "Standard" }

// Run executes Lloyd's algorithm.
func (l *Lloyd) Run(initial *vec.Matrix, maxIters int, meter *arch.Meter) *Result {
	centers := initial.Clone()
	n, k := l.Data.N, centers.N
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign, Centers: centers}
	for iter := 0; iter < maxIters; iter++ {
		res.Iterations = iter + 1
		changed := 0
		for i := 0; i < n; i++ {
			best, _ := argminDist(l.Data.Row(i), centers)
			if best != assign[i] {
				assign[i] = best
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), int64(n)*int64(k), l.Data.D, true)
		meter.C(arch.FuncOther).Ops += int64(n) * int64(k)
		if changed == 0 {
			res.Converged = true
			break
		}
		updateCenters(l.Data, assign, centers)
		costUpdateStep(meter.C(arch.FuncOther), int64(n), l.Data.D, k)
	}
	res.SSE = sse(l.Data, assign, centers)
	return res
}

// LloydPIM is Lloyd with LB_PIM-ED consulted before every exact distance
// in the assign step (Standard-PIM in Table 7).
type LloydPIM struct {
	Data   *vec.Matrix
	assist *Assist
}

// NewLloydPIM wires the PIM assist over the dataset.
func NewLloydPIM(data *vec.Matrix, assist *Assist) *LloydPIM {
	return &LloydPIM{Data: data, assist: assist}
}

// Name implements Algorithm.
func (l *LloydPIM) Name() string { return "Standard-PIM" }

// Run executes PIM-assisted Lloyd. Assignments are identical to Lloyd's:
// a center is only skipped when its lower-bounded distance already meets
// or exceeds the current best (ties keep the earlier index, matching
// argminDist).
func (l *LloydPIM) Run(initial *vec.Matrix, maxIters int, meter *arch.Meter) *Result {
	centers := initial.Clone()
	n, k := l.Data.N, centers.N
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	res := &Result{Assign: assign, Centers: centers}
	for iter := 0; iter < maxIters; iter++ {
		res.Iterations = iter + 1
		if err := l.assist.BeginIteration(centers, meter); err != nil {
			panic(fmt.Sprintf("kmeans: Standard-PIM iteration: %v", err))
		}
		changed := 0
		exact := int64(0)
		for i := 0; i < n; i++ {
			p := l.Data.Row(i)
			// §V-B: the pruning threshold is "the distance to [the]
			// currently assigned center" — seed the scan with the exact
			// distance to last iteration's assignment so the PIM bound
			// prunes nearly every other center.
			best := assign[i]
			if best < 0 {
				best = 0
			}
			bestD := dist(p, centers.Row(best))
			exact++
			for c := 0; c < k; c++ {
				if c == best {
					continue
				}
				if l.assist.LBDist(i, c) >= bestD {
					continue
				}
				d := dist(p, centers.Row(c))
				exact++
				if d < bestD || (d == bestD && c < best) {
					best, bestD = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), exact, l.Data.D /*seq*/, true)
		meter.C(arch.FuncOther).Ops += int64(n) * int64(k)
		if changed == 0 {
			res.Converged = true
			break
		}
		updateCenters(l.Data, assign, centers)
		costUpdateStep(meter.C(arch.FuncOther), int64(n), l.Data.D, k)
	}
	l.assist.RecordCosts(meter)
	res.SSE = sse(l.Data, assign, centers)
	return res
}
