package kmeans

import (
	"fmt"
	"math"
	"sort"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Drake accelerates Lloyd with an adaptive number of lower bounds [31]:
// each point tracks individual lower bounds for its b closest centers and
// one aggregate bound for all the rest. b adapts between iterations to
// how deep into the candidate lists the assign step actually had to look.
// With a non-nil assist, LB_PIM-ED is consulted before every exact
// distance (Drake-PIM).
type Drake struct {
	Data   *vec.Matrix
	assist *Assist
}

// NewDrake builds the host-only variant.
func NewDrake(data *vec.Matrix) *Drake { return &Drake{Data: data} }

// NewDrakePIM builds the PIM-assisted variant.
func NewDrakePIM(data *vec.Matrix, assist *Assist) *Drake {
	return &Drake{Data: data, assist: assist}
}

// Name implements Algorithm.
func (dr *Drake) Name() string {
	if dr.assist != nil {
		return "Drake-PIM"
	}
	return "Drake"
}

// drakeState is one point's bound bookkeeping.
type drakeState struct {
	cand   []int     // candidate center indices (closest after a(p))
	lb     []float64 // lower bounds for cand, same order
	lbRest float64   // lower bound for every center not in cand ∪ {a(p)}
	ub     float64   // upper bound on d(p, a(p))
}

// Run executes Drake's algorithm; results match Lloyd's exactly.
func (dr *Drake) Run(initial *vec.Matrix, maxIters int, meter *arch.Meter) *Result {
	centers := initial.Clone()
	n, k, d := dr.Data.N, centers.N, dr.Data.D
	assign := make([]int, n)
	st := make([]drakeState, n)
	res := &Result{Assign: assign, Centers: centers}

	b := k / 4
	if b < 1 {
		b = 1
	}
	if b > k-1 {
		b = k - 1
	}

	var exactCount int64 // exact distances of the assign step in flight

	// rebuild recomputes a point's distance profile and candidate list of
	// the current width b. Used at init and on fallback. With a PIM
	// assist, centers whose LB_PIM-ED already exceeds the running best
	// keep their bound value instead of an exact distance — they land in
	// the "rest" pool, never in the candidate list, so the invariants
	// (candidate lb = exact or valid lower bound, lbRest lower-bounds all
	// non-candidates) hold either way.
	dists := make([]float64, k)
	isExact := make([]bool, k)
	order := make([]int, k)
	rebuild := func(i int, p []float64) {
		bestD := math.Inf(1)
		for c := 0; c < k; c++ {
			dc, wasExact := dr.assist.Dist(i, c, p, centers.Row(c), bestD, &exactCount)
			dists[c] = dc
			isExact[c] = wasExact
			if wasExact && dc < bestD {
				bestD = dc
			}
			order[c] = c
		}
		sort.Slice(order, func(x, y int) bool {
			if dists[order[x]] != dists[order[y]] {
				return dists[order[x]] < dists[order[y]]
			}
			return order[x] < order[y]
		})
		s := &st[i]
		width := b
		if width > k-1 {
			width = k - 1
		}
		// The true argmin is the first *exact* entry in sorted order:
		// every pruned center's bound is ≥ the final best exact
		// distance, so no pruned center can sort strictly before it.
		first := 0
		for !isExact[order[first]] {
			first++
		}
		assign[i] = order[first]
		s.ub = dists[order[first]]
		s.cand = s.cand[:0]
		s.lb = s.lb[:0]
		s.lbRest = math.Inf(1)
		for j, c := range order {
			if j == first {
				continue
			}
			if len(s.cand) < width && isExact[c] {
				s.cand = append(s.cand, c)
				s.lb = append(s.lb, dists[c])
				continue
			}
			if dists[c] < s.lbRest {
				s.lbRest = dists[c]
			}
		}
	}

	// Initial assignment (the PIM dots for the initial centers must be in
	// place before the assist is consulted).
	if err := dr.assist.BeginIteration(centers, meter); err != nil {
		panic(fmt.Sprintf("kmeans: %s init: %v", dr.Name(), err))
	}
	for i := 0; i < n; i++ {
		rebuild(i, dr.Data.Row(i))
	}
	costExactDist(meter.C(arch.FuncED), exactCount, d, true)
	meter.C(arch.FuncOther).Ops += int64(n) * int64(k)
	res.Iterations = 1

	for iter := 1; iter < maxIters; iter++ {
		shifts := updateCenters(dr.Data, assign, centers)
		costUpdateStep(meter.C(arch.FuncOther), int64(n), d, k)
		if err := dr.assist.BeginIteration(centers, meter); err != nil {
			panic(fmt.Sprintf("kmeans: %s iteration: %v", dr.Name(), err))
		}
		maxShift := 0.0
		for _, s := range shifts {
			maxShift = math.Max(maxShift, s)
		}

		// Drift the bounds.
		var maintOps int64
		for i := 0; i < n; i++ {
			s := &st[i]
			s.ub += shifts[assign[i]]
			for j, c := range s.cand {
				s.lb[j] = math.Max(0, s.lb[j]-shifts[c])
			}
			s.lbRest = math.Max(0, s.lbRest-maxShift)
			maintOps += int64(len(s.cand) + 2)
		}
		costBoundMaint(meter.C(arch.FuncUpdate), maintOps)

		res.Iterations = iter + 1
		changed := 0
		exactCount = 0
		fallbacks := 0
		deepest := 0
		for i := 0; i < n; i++ {
			p := dr.Data.Row(i)
			s := &st[i]
			a := assign[i]
			// Global skip: when the drifted upper bound already sits
			// below every other center's lower bound, the assignment
			// cannot change and the point costs nothing this iteration.
			minLB := s.lbRest
			for _, lb := range s.lb {
				if lb < minLB {
					minLB = lb
				}
			}
			if s.ub <= minLB {
				continue
			}
			// Tighten ub with the exact current distance.
			da := dist(p, centers.Row(a))
			exactCount++
			s.ub = da
			best, bestD := a, da

			if s.lbRest < bestD {
				// The aggregate bound cannot exclude the rest: full
				// rebuild (Drake's fallback path).
				fallbacks++
				rebuild(i, p)
				if assign[i] != a {
					changed++
				}
				continue
			}
			for j := range s.cand {
				c := s.cand[j]
				if s.lb[j] >= bestD {
					continue
				}
				if j+1 > deepest {
					deepest = j + 1
				}
				dc, wasExact := dr.assist.Dist(i, c, p, centers.Row(c), bestD, &exactCount)
				s.lb[j] = dc
				if wasExact && dc < bestD {
					best, bestD = c, dc
				}
			}
			if best != a {
				// Swap roles: the dethroned center joins the candidate
				// list in place of the winner, with its exact distance
				// as a (tight) lower bound.
				for j, c := range s.cand {
					if c == best {
						s.cand[j] = a
						s.lb[j] = da
						break
					}
				}
				assign[i] = best
				s.ub = bestD
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), exactCount, d /*seq*/, true)
		meter.C(arch.FuncOther).Ops += int64(n) * int64(b)
		if changed == 0 {
			res.Converged = true
			break
		}
		// Adapt b: grow when the aggregate bound keeps failing, shrink
		// when the deep candidates go unused.
		switch {
		case fallbacks > n/10 && b < k-1:
			b = minIntDr(k-1, b+b/2+1)
		case deepest < b/2 && b > 2:
			b = maxIntDr(2, deepest+1)
		}
	}
	dr.assist.RecordCosts(meter)
	res.SSE = sse(dr.Data, assign, centers)
	return res
}

func minIntDr(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxIntDr(a, b int) int {
	if a > b {
		return a
	}
	return b
}
