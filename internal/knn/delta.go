package knn

import (
	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/measure"
	"pimmine/internal/vec"
)

// DeltaScan searches a host-side delta buffer exactly: a brute-force ED
// scan over the (small) delta matrix, optionally pre-filtered by an
// LB_OST index built over the same matrix, capped by the base index's
// current k-th distance so rows that cannot enter the merged global
// top-k are pruned early.
//
// Returned indices are delta-local row numbers; the caller translates
// them to global ids. Exactness requires two tie-handling rules:
//
//   - The cap prune is strict (lb > cap): a delta row whose exact
//     distance TIES the base k-th can still win the merged tie on a
//     smaller global id (updates keep their original — possibly small —
//     id), so only rows provably strictly worse may be dropped. Pass
//     cap = +Inf when the base holds fewer than k results.
//   - Within the delta, rows must be stored in ascending global-id
//     order; then scan order equals id order and TopK's incumbent-wins
//     tie rule yields exactly the (dist, id) total order the merge uses.
func DeltaScan(delta *vec.Matrix, ix *bound.OSTIndex, q []float64, k int, cap float64, meter *arch.Meter) []vec.Neighbor {
	if delta == nil || delta.N == 0 {
		return nil
	}
	top := vec.NewTopK(k)
	var qTail float64
	if ix != nil {
		qTail = ix.QueryTail(q)
	}
	survivors := 0
	for i := 0; i < delta.N; i++ {
		if ix != nil {
			lb := ix.LB(i, q, qTail)
			if lb > cap || lb > top.Threshold() {
				continue
			}
		}
		survivors++
		ed := measure.SqEuclidean(delta.Row(i), q)
		if ed > cap {
			continue
		}
		top.Push(i, ed)
	}
	if meter != nil {
		if ix != nil {
			costBoundScan(meter.C("LBDelta"), int64(delta.N), ix.TransferDims())
		}
		costExactRefine(meter.C(arch.FuncED), int64(survivors), delta.D)
		meter.C(arch.FuncOther).Ops += int64(delta.N)
	}
	return top.Results()
}
