// Package pim implements §V-C of the paper: managing the limited PIM
// array. It provides
//
//   - the Theorem 4 capacity model (data crossbars + gather-crossbar tree,
//     Fig 11) and the solver that picks the largest compressed
//     dimensionality s that fits the hardware, and
//   - the Engine that programs integer payloads onto crossbars and runs
//     batched dot-product queries against them, recording PIM activity
//     (compute cycles, buffer traffic, programming time) into
//     arch.Meters.
//
// The Engine has two modes. ModeExact computes dot products with host
// integer arithmetic (fast; used by the mining algorithms) while
// accounting cycles identically to the crossbar pipeline. ModeSimulate
// routes every dot product through internal/crossbar's bit-sliced
// functional simulator; tests assert both modes agree bit-for-bit.
//
// On the modeled array all N dot products of a query are free; on the host
// stand-in each costs the bytes of its row. So a healthy ModeExact payload
// also carries a digest (digest.go) — per row, the ceil norms of its
// groups of 32 adjacent values, 1/32 of the slab — and the engine has three
// ways to answer a query: QueryAll sweeps every row; UpperAll sweeps the
// digest against the query's own group norms and returns, by
// Cauchy–Schwarz, an upper bound on every row's dot; DotRows computes the
// exact dots of the rows a caller lists, in one vec.IntDotGather pass that
// takes them four at a time, so four of their cache misses are in flight
// at once where a row-by-row loop waits on one. A bound that consumes its dot
// monotonically (all of pimbound's do) computed from the upper bound is an
// under-estimate of itself, so a filter can prune on it and ask for exact
// dots only where its threshold leaves it no choice (knn.Cascade does).
// None of this is visible to the model: ChargeQuery charges such a query
// what QueryAll charges — the array still fires every crossbar once — and
// under a fault injector, in ModeSimulate and for binary payloads there is
// no digest and nothing changes.
package pim

import (
	"fmt"

	"pimmine/internal/arch"
)

// DefaultDataUtilization is the fraction of PIM-array crossbars available
// for data storage. The other half models peripheral overhead
// (ADC/DAC/S&H sharing, spare tiles for result staging) — calibrated so
// that Theorem 4 reproduces the paper's reported compressed
// dimensionalities exactly: s=50 for ImageNet and s=105 for MSD (§VI-C)
// when storing the two LB_PIM-FNN payload vectors (µ and σ) per object.
const DefaultDataUtilization = 0.5

// CapacityModel evaluates Theorem 4's crossbar costs for a concrete
// hardware configuration and dataset shape.
type CapacityModel struct {
	// M, CellBits mirror the crossbar spec (m and h).
	M, CellBits int
	// OperandBits is b, the stored operand width.
	OperandBits int
	// Crossbars is C, the total number of crossbars in the PIM array.
	Crossbars int
	// Utilization scales C to the usable fraction (see
	// DefaultDataUtilization).
	Utilization float64
}

// ModelFor builds the capacity model from an architecture config.
func ModelFor(cfg arch.Config) CapacityModel {
	return CapacityModel{
		M:           cfg.Crossbar.M,
		CellBits:    cfg.Crossbar.CellBits,
		OperandBits: cfg.OperandBits,
		Crossbars:   cfg.NumCrossbars(),
		Utilization: DefaultDataUtilization,
	}
}

// Cost returns Theorem 4's crossbar demand for storing n vectors of s
// dimensions at the model's default operand width:
//
//	ndata   = N·b·s / (m²·h)
//	ngather = N·b/(m·h) · Σ_{i≥2} ⌈s/mⁱ⌉   (only when s > m)
//
// Both are returned with integer ceilings so partially-filled crossbars
// are charged fully.
func (cm CapacityModel) Cost(n, s int) (ndata, ngather int64) {
	return cm.CostB(n, s, cm.OperandBits)
}

// CostB is Cost with an explicit operand width b — binary payloads (HD
// codes) store 1-bit operands, so they pack far more densely than the
// default 32-bit integers.
func (cm CapacityModel) CostB(n, s, opBits int) (ndata, ngather int64) {
	if n <= 0 || s <= 0 {
		return 0, 0
	}
	b := int64(opBits)
	m := int64(cm.M)
	h := int64(cm.CellBits)
	nn := int64(n)
	ndata = ceilDiv(nn*b*int64(s), m*m*h)
	if int64(s) > m {
		groups := ceilDiv(nn*b, m*h) // concurrent object groups, m·h/b objects each
		var perGroup int64
		for parts := ceilDiv(int64(s), m); parts > 1; parts = ceilDiv(parts, m) {
			perGroup += ceilDiv(parts, m)
		}
		ngather = groups * perGroup
	}
	return ndata, ngather
}

// Fits reports whether n vectors of s dims (replicated vectorsPerObject
// times, e.g. 2 for LB_PIM-FNN's µ and σ payloads) fit the usable array.
func (cm CapacityModel) Fits(n, s, vectorsPerObject int) bool {
	return cm.FitsB(n, s, vectorsPerObject, cm.OperandBits)
}

// FitsB is Fits with an explicit operand width.
func (cm CapacityModel) FitsB(n, s, vectorsPerObject, opBits int) bool {
	if vectorsPerObject <= 0 {
		vectorsPerObject = 1
	}
	nd, ng := cm.CostB(n, s, opBits)
	total := int64(vectorsPerObject) * (nd + ng)
	return total <= int64(float64(cm.Crossbars)*cm.Utilization)
}

// ChooseS returns the largest s from candidates (e.g. the divisors of d)
// such that the dataset fits; Theorem 4 maximizes s because larger s gives
// tighter PIM-aware bounds. Returns 0 if even the smallest candidate does
// not fit.
func (cm CapacityModel) ChooseS(n int, candidates []int, vectorsPerObject int) int {
	best := 0
	for _, s := range candidates {
		if s > best && cm.Fits(n, s, vectorsPerObject) {
			best = s
		}
	}
	return best
}

// Divisors returns all positive divisors of d in ascending order — the
// candidate compressed dimensionalities for segment-based compression
// (Fig 10 halves 8 dims to 2+2; any divisor yields equal-length segments).
func Divisors(d int) []int {
	if d <= 0 {
		return nil
	}
	var out []int
	for c := 1; c <= d; c++ {
		if d%c == 0 {
			out = append(out, c)
		}
	}
	return out
}

// GatherLevels returns the depth of the gather tree for s-dimensional
// vectors: 0 when a single crossbar holds the vector (s ≤ m), else the
// number of reduction stages needed to sum ⌈s/m⌉ partial results m at a
// time (Fig 11: s=8, m=2 → 2 gather stages).
func (cm CapacityModel) GatherLevels(s int) int {
	levels := 0
	for parts := ceilDiv(int64(s), int64(cm.M)); parts > 1; parts = ceilDiv(parts, int64(cm.M)) {
		levels++
	}
	return levels
}

func ceilDiv(a, b int64) int64 {
	if b <= 0 {
		panic(fmt.Sprintf("pim: ceilDiv by %d", b))
	}
	return (a + b - 1) / b
}
