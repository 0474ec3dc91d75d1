package kmeans

import (
	"fmt"
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Hamerly accelerates Lloyd with a single lower bound per point (Hamerly,
// SDM 2010): lb(p) bounds the distance to the closest non-assigned
// center, and ub(p) bounds the distance to the assigned one. Drake [31]
// interpolates between Hamerly (1 bound) and Elkan (k bounds), so this
// completes the family the paper evaluates. With a non-nil assist,
// LB_PIM-ED is consulted before every exact distance (Hamerly-PIM).
type Hamerly struct {
	Data   *vec.Matrix
	assist *Assist
}

// NewHamerly builds the host-only variant.
func NewHamerly(data *vec.Matrix) *Hamerly { return &Hamerly{Data: data} }

// NewHamerlyPIM builds the PIM-assisted variant.
func NewHamerlyPIM(data *vec.Matrix, assist *Assist) *Hamerly {
	return &Hamerly{Data: data, assist: assist}
}

// Name implements Algorithm.
func (h *Hamerly) Name() string {
	if h.assist != nil {
		return "Hamerly-PIM"
	}
	return "Hamerly"
}

// Run executes Hamerly's algorithm; results match Lloyd's exactly.
func (h *Hamerly) Run(initial *vec.Matrix, maxIters int, meter *arch.Meter) *Result {
	centers := initial.Clone()
	n, k, d := h.Data.N, centers.N, h.Data.D
	assign := make([]int, n)
	ub := make([]float64, n)
	lb := make([]float64, n)
	res := &Result{Assign: assign, Centers: centers}

	var exactCount int64 // exact distances of the assign step in flight

	// scanPoint assigns p exactly, producing ub = d(p, best) and
	// lb = a lower bound on the second-closest center's distance.
	scanPoint := func(i int) {
		p := h.Data.Row(i)
		best, bestD := 0, dist(p, centers.Row(0))
		exactCount++
		second := math.Inf(1)
		for c := 1; c < k; c++ {
			dc, wasExact := h.assist.Dist(i, c, p, centers.Row(c), bestD, &exactCount)
			if wasExact && dc < bestD {
				second = bestD
				best, bestD = c, dc
				continue
			}
			// dc is either an exact distance ≥ bestD or a valid lower
			// bound; both lower-bound the non-best minimum.
			if dc < second {
				second = dc
			}
		}
		assign[i] = best
		ub[i] = bestD
		lb[i] = second
	}

	// Initial assignment (= iteration 1's assign step).
	if err := h.assist.BeginIteration(centers, meter); err != nil {
		panic(fmt.Sprintf("kmeans: %s init: %v", h.Name(), err))
	}
	for i := 0; i < n; i++ {
		scanPoint(i)
	}
	costExactDist(meter.C(arch.FuncED), exactCount, d, true)
	res.Iterations = 1

	sc := make([]float64, k) // ½ distance to the nearest other center
	for iter := 1; iter < maxIters; iter++ {
		shifts := updateCenters(h.Data, assign, centers)
		costUpdateStep(meter.C(arch.FuncOther), int64(n), d, k)
		if err := h.assist.BeginIteration(centers, meter); err != nil {
			panic(fmt.Sprintf("kmeans: %s iteration: %v", h.Name(), err))
		}
		maxShift, secondShift := 0.0, 0.0
		for _, s := range shifts {
			if s > maxShift {
				maxShift, secondShift = s, maxShift
			} else if s > secondShift {
				secondShift = s
			}
		}

		// Drift the two bounds per point — Hamerly's whole selling point
		// is that this maintenance is O(N), not O(N·k).
		for i := 0; i < n; i++ {
			ub[i] += shifts[assign[i]]
			// The non-assigned minimum can shrink by at most the largest
			// shift among centers other than a(p): the second-largest
			// shift when a(p) itself moved the most (ties make
			// secondShift == maxShift, which stays valid).
			drop := maxShift
			if shifts[assign[i]] == maxShift {
				drop = secondShift
			}
			lb[i] = math.Max(0, lb[i]-drop)
		}
		costBoundMaint(meter.C(arch.FuncUpdate), int64(n)*2)

		// Center separation: s(c) = ½ min_{c'≠c} d(c,c').
		for a := 0; a < k; a++ {
			sc[a] = math.Inf(1)
			for bC := 0; bC < k; bC++ {
				if a == bC {
					continue
				}
				if dc := dist(centers.Row(a), centers.Row(bC)) / 2; dc < sc[a] {
					sc[a] = dc
				}
			}
		}
		costExactDist(meter.C(arch.FuncED), int64(k)*int64(k-1), d, true)

		res.Iterations = iter + 1
		changed := 0
		exactCount = 0
		for i := 0; i < n; i++ {
			bound := math.Max(lb[i], sc[assign[i]])
			if ub[i] <= bound {
				continue // first filter on the drifted upper bound
			}
			// Tighten ub exactly and re-check.
			p := h.Data.Row(i)
			da := dist(p, centers.Row(assign[i]))
			exactCount++
			ub[i] = da
			if ub[i] <= bound {
				continue
			}
			old := assign[i]
			scanPoint(i)
			if assign[i] != old {
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), exactCount, d, true)
		meter.C(arch.FuncOther).Ops += int64(n)
		if changed == 0 {
			res.Converged = true
			break
		}
	}
	h.assist.RecordCosts(meter)
	res.SSE = sse(h.Data, assign, centers)
	return res
}
