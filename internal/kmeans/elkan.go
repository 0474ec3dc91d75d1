package kmeans

import (
	"fmt"
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Elkan accelerates Lloyd with the triangle inequality [30]: an upper
// bound ub(p) on d(p, a(p)) and k lower bounds lb(p,c), maintained across
// iterations via center drift, avoid most exact distance computations.
// With a non-nil assist, LB_PIM-ED is consulted before every exact
// distance (Elkan-PIM).
type Elkan struct {
	Data   *vec.Matrix
	assist *Assist
}

// NewElkan builds the host-only variant.
func NewElkan(data *vec.Matrix) *Elkan { return &Elkan{Data: data} }

// NewElkanPIM builds the PIM-assisted variant.
func NewElkanPIM(data *vec.Matrix, assist *Assist) *Elkan {
	return &Elkan{Data: data, assist: assist}
}

// Name implements Algorithm.
func (e *Elkan) Name() string {
	if e.assist != nil {
		return "Elkan-PIM"
	}
	return "Elkan"
}

// Run executes Elkan's algorithm. The result is identical to Lloyd's for
// the same initial centers (bounds only skip provably losing centers).
func (e *Elkan) Run(initial *vec.Matrix, maxIters int, meter *arch.Meter) *Result {
	centers := initial.Clone()
	n, k, d := e.Data.N, centers.N, e.Data.D
	assign := make([]int, n)
	ub := make([]float64, n)
	lb := vec.NewMatrix(n, k)
	res := &Result{Assign: assign, Centers: centers}

	var exactCount int64 // exact distances of the assign step in flight

	// Initial assignment — iteration 1's assign step is a plain Lloyd
	// assign, so the PIM assist applies: pruned centers store their
	// (valid, near-tight) PIM lower bound instead of the exact distance.
	if err := e.assist.BeginIteration(centers, meter); err != nil {
		panic(fmt.Sprintf("kmeans: %s init: %v", e.Name(), err))
	}
	exactCount = 0
	for i := 0; i < n; i++ {
		p := e.Data.Row(i)
		best, bestD := 0, dist(p, centers.Row(0))
		exactCount++
		lb.Row(i)[0] = bestD
		for c := 1; c < k; c++ {
			dc, wasExact := e.assist.Dist(i, c, p, centers.Row(c), bestD, &exactCount)
			lb.Row(i)[c] = dc
			if wasExact && dc < bestD {
				best, bestD = c, dc
			}
		}
		assign[i] = best
		ub[i] = bestD
	}
	costExactDist(meter.C(arch.FuncED), exactCount, d, true)
	res.Iterations = 1

	cc := vec.NewMatrix(k, k) // center-center distances
	sc := make([]float64, k)  // s(c) = ½ min_{c'≠c} d(c,c')

	for iter := 1; iter < maxIters; iter++ {
		// Update step from the previous assignment.
		shifts := updateCenters(e.Data, assign, centers)
		costUpdateStep(meter.C(arch.FuncOther), int64(n), d, k)
		if err := e.assist.BeginIteration(centers, meter); err != nil {
			panic(fmt.Sprintf("kmeans: %s iteration: %v", e.Name(), err))
		}

		// Drift the bounds (the expensive maintenance the paper's
		// profiling attributes up to 45% of Elkan's time to).
		for i := 0; i < n; i++ {
			ub[i] += shifts[assign[i]]
			row := lb.Row(i)
			for c := 0; c < k; c++ {
				row[c] = math.Max(0, row[c]-shifts[c])
			}
		}
		costBoundMaint(meter.C(arch.FuncUpdate), int64(n)*int64(k+1))

		// Center-center distances and s(c).
		for a := 0; a < k; a++ {
			sc[a] = math.Inf(1)
			for b := 0; b < k; b++ {
				if a == b {
					continue
				}
				dc := dist(centers.Row(a), centers.Row(b))
				cc.Row(a)[b] = dc
				if half := dc / 2; half < sc[a] {
					sc[a] = half
				}
			}
		}
		costExactDist(meter.C(arch.FuncED), int64(k)*int64(k-1), d, true)

		res.Iterations = iter + 1
		changed := 0
		exactCount = 0
		for i := 0; i < n; i++ {
			a := assign[i]
			if ub[i] <= sc[a] {
				continue
			}
			p := e.Data.Row(i)
			tight := false
			for c := 0; c < k; c++ {
				if c == a {
					continue
				}
				if ub[i] <= lb.Row(i)[c] || ub[i] <= cc.Row(a)[c]/2 {
					continue
				}
				if !tight {
					// Tighten ub with the exact current distance.
					da := dist(p, centers.Row(a))
					exactCount++
					ub[i] = da
					lb.Row(i)[a] = da
					tight = true
					if ub[i] <= lb.Row(i)[c] || ub[i] <= cc.Row(a)[c]/2 {
						continue
					}
				}
				dc, wasExact := e.assist.Dist(i, c, p, centers.Row(c), ub[i], &exactCount)
				lb.Row(i)[c] = dc
				if wasExact && dc < ub[i] {
					a = c
					ub[i] = dc
				}
			}
			if a != assign[i] {
				assign[i] = a
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), exactCount, d /*seq*/, true)
		meter.C(arch.FuncOther).Ops += int64(n) * int64(k)
		if changed == 0 {
			res.Converged = true
			break
		}
	}
	e.assist.RecordCosts(meter)
	res.SSE = sse(e.Data, assign, centers)
	return res
}
