package kmeans

import (
	"fmt"
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/vec"
)

// Yinyang accelerates Lloyd with a global filter plus per-group filters
// [29]: centers are partitioned into t ≈ k/10 groups; each point keeps an
// upper bound on its assigned distance and one lower bound per group,
// drastically reducing both distance computations and bound-maintenance
// cost relative to Elkan. With a non-nil assist, LB_PIM-ED is consulted
// before every exact distance (Yinyang-PIM).
type Yinyang struct {
	Data   *vec.Matrix
	assist *Assist
}

// NewYinyang builds the host-only variant.
func NewYinyang(data *vec.Matrix) *Yinyang { return &Yinyang{Data: data} }

// NewYinyangPIM builds the PIM-assisted variant.
func NewYinyangPIM(data *vec.Matrix, assist *Assist) *Yinyang {
	return &Yinyang{Data: data, assist: assist}
}

// Name implements Algorithm.
func (y *Yinyang) Name() string {
	if y.assist != nil {
		return "Yinyang-PIM"
	}
	return "Yinyang"
}

// Run executes Yinyang k-means; results match Lloyd's exactly.
func (y *Yinyang) Run(initial *vec.Matrix, maxIters int, meter *arch.Meter) *Result {
	centers := initial.Clone()
	n, k, d := y.Data.N, centers.N, y.Data.D
	assign := make([]int, n)
	res := &Result{Assign: assign, Centers: centers}

	// Group the centers: t ≈ k/10 groups ([29] groups by a few Lloyd
	// iterations over the centers themselves; grouping affects only
	// efficiency, never correctness). We group by a cheap one-pass
	// clustering of the initial centers.
	t := k / 10
	if t < 1 {
		t = 1
	}
	group := groupCenters(initial, t)
	groups := make([][]int, t)
	for c, g := range group {
		groups[g] = append(groups[g], c)
	}

	ub := make([]float64, n)
	lb := vec.NewMatrix(n, t) // per-group lower bounds

	var exactCount int64 // exact distances of the assign step in flight

	// Initial assignment — iteration 1's assign step is a plain Lloyd
	// assign, so the PIM assist applies to it like any other: pruned
	// centers contribute their (valid) lower bound to the group bounds.
	if err := y.assist.BeginIteration(centers, meter); err != nil {
		panic(fmt.Sprintf("kmeans: %s init: %v", y.Name(), err))
	}
	exactCount = 0
	vals := make([]float64, k) // exact distance or PIM bound per center
	for i := 0; i < n; i++ {
		p := y.Data.Row(i)
		best, bestD := 0, dist(p, centers.Row(0))
		exactCount++
		vals[0] = bestD
		for c := 1; c < k; c++ {
			dc, wasExact := y.assist.Dist(i, c, p, centers.Row(c), bestD, &exactCount)
			vals[c] = dc
			if wasExact && dc < bestD {
				best, bestD = c, dc
			}
		}
		assign[i] = best
		ub[i] = bestD
		row := lb.Row(i)
		for g := range groups {
			row[g] = math.Inf(1)
		}
		for c := 0; c < k; c++ {
			if c == best {
				continue
			}
			if g := group[c]; vals[c] < row[g] {
				row[g] = vals[c]
			}
		}
	}
	costExactDist(meter.C(arch.FuncED), exactCount, d, true)
	res.Iterations = 1

	groupShift := make([]float64, t)
	for iter := 1; iter < maxIters; iter++ {
		shifts := updateCenters(y.Data, assign, centers)
		costUpdateStep(meter.C(arch.FuncOther), int64(n), d, k)
		if err := y.assist.BeginIteration(centers, meter); err != nil {
			panic(fmt.Sprintf("kmeans: %s iteration: %v", y.Name(), err))
		}
		for g := range groups {
			groupShift[g] = 0
			for _, c := range groups[g] {
				groupShift[g] = math.Max(groupShift[g], shifts[c])
			}
		}

		// Drift the bounds: t per point instead of Elkan's k.
		for i := 0; i < n; i++ {
			ub[i] += shifts[assign[i]]
			row := lb.Row(i)
			for g := 0; g < t; g++ {
				row[g] = math.Max(0, row[g]-groupShift[g])
			}
		}
		costBoundMaint(meter.C(arch.FuncUpdate), int64(n)*int64(t+1))

		res.Iterations = iter + 1
		changed := 0
		exactCount = 0
		for i := 0; i < n; i++ {
			row := lb.Row(i)
			globalLB := math.Inf(1)
			for g := 0; g < t; g++ {
				globalLB = math.Min(globalLB, row[g])
			}
			if ub[i] <= globalLB {
				continue // global filter
			}
			p := y.Data.Row(i)
			a := assign[i]
			da := dist(p, centers.Row(a))
			exactCount++
			ub[i] = da
			if ub[i] <= globalLB {
				continue
			}
			best, bestD := a, da
			// Scan the groups the group filter cannot exclude; groups
			// that stay excluded keep their drifted bounds.
			for g := 0; g < t; g++ {
				if row[g] >= bestD && row[g] >= ub[i] {
					continue
				}
				min1, min2 := math.Inf(1), math.Inf(1)
				min1C := -1
				for _, c := range groups[g] {
					if c == a {
						continue
					}
					dc, wasExact := y.assist.Dist(i, c, p, centers.Row(c), bestD, &exactCount)
					if !wasExact {
						// A PIM-pruned center still contributes its
						// lower bound to the group bound.
						if dc < min1 {
							min2, min1, min1C = min1, dc, c
						} else if dc < min2 {
							min2 = dc
						}
						continue
					}
					if dc < min1 {
						min2, min1, min1C = min1, dc, c
					} else if dc < min2 {
						min2 = dc
					}
					if dc < bestD {
						best, bestD = c, dc
					}
				}
				// New group bound: the closest non-assigned center seen.
				if min1C == best && best != a {
					row[g] = min2
				} else {
					row[g] = min1
				}
			}
			if best != a {
				// The dethroned center a now belongs to its group's
				// bound pool: its exact distance bounds the group.
				row[group[a]] = math.Min(row[group[a]], da)
				assign[i] = best
				ub[i] = bestD
				changed++
			}
		}
		costExactDist(meter.C(arch.FuncED), exactCount, d /*seq*/, true)
		meter.C(arch.FuncOther).Ops += int64(n) * int64(t)
		if changed == 0 {
			res.Converged = true
			break
		}
	}
	y.assist.RecordCosts(meter)
	res.SSE = sse(y.Data, assign, centers)
	return res
}

// groupCenters buckets the k initial centers into t groups with a short
// Lloyd run over the centers themselves (5 iterations, deterministic
// seeding from the first t centers).
func groupCenters(centers *vec.Matrix, t int) []int {
	k := centers.N
	group := make([]int, k)
	if t >= k {
		for c := range group {
			group[c] = c % t
		}
		return group
	}
	proto := vec.NewMatrix(t, centers.D)
	for g := 0; g < t; g++ {
		copy(proto.Row(g), centers.Row(g*k/t)) // spread seeds over the list
	}
	for iter := 0; iter < 5; iter++ {
		for c := 0; c < k; c++ {
			group[c], _ = argminDist(centers.Row(c), proto)
		}
		updateCenters(centers, group, proto)
	}
	for c := 0; c < k; c++ {
		group[c], _ = argminDist(centers.Row(c), proto)
	}
	return group
}
