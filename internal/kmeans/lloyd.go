package kmeans

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Lloyd is the standard two-step iterative refinement [48]: assign every
// point to its nearest center, then recompute centers. With a non-nil
// assist, LB_PIM-ED is consulted before every exact distance in the assign
// step (Standard-PIM in Table 7).
type Lloyd struct {
	Data   *vec.Matrix
	assist *Assist
}

// NewLloyd builds the baseline algorithm.
func NewLloyd(data *vec.Matrix) *Lloyd { return &Lloyd{Data: data} }

// NewLloydPIM builds the PIM-assisted variant.
func NewLloydPIM(data *vec.Matrix, assist *Assist) *Lloyd {
	return &Lloyd{Data: data, assist: assist}
}

// Name implements Algorithm.
func (l *Lloyd) Name() string {
	if l.assist != nil {
		return "Standard-PIM"
	}
	return "Standard"
}

// Run executes Lloyd's algorithm. The PIM-assisted assignments are
// identical to the host's: a center is only skipped when its lower-bounded
// distance already meets or exceeds the current best (ties keep the
// earlier index, matching argminDist).
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
		if err := l.assist.BeginIteration(centers, meter); err != nil {
			panic(fmt.Sprintf("kmeans: %s iteration: %v", l.Name(), err))
		}
		changed := 0
		exact := int64(0)
		for i := 0; i < n; i++ {
			p := l.Data.Row(i)
			// §V-B: the pruning threshold is "the distance to [the]
			// currently assigned center" — seed the scan with the exact
			// distance to last iteration's assignment so the PIM bound
			// prunes nearly every other center. The host scan has no bound
			// and starts at center 0, so the best only moves forward and
			// each of the k distances is computed once.
			best := 0
			if l.assist != nil && assign[i] > 0 {
				best = assign[i]
			}
			bestD := dist(p, centers.Row(best))
			exact++
			for c := 0; c < k; c++ {
				if c == best {
					continue
				}
				d, wasExact := l.assist.Dist(i, c, p, centers.Row(c), bestD, &exact)
				if wasExact && (d < bestD || (d == bestD && c < best)) {
					best, bestD = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), exact, l.Data.D, true)
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
