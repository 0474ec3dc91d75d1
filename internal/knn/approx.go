package knn

import (
	"pimmine/internal/arch"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// approxRow is the *counterpoint* the paper argues against in §II-A:
// GraphR-style direct in-PIM approximation, where the quantized
// fixed-point computation IS the answer — no bound, no refinement. The
// squared distance is estimated entirely from PIM-side quantities as
//
//	ED̂(p,q) = (Φ̂(p̄) + Φ̂(q̄) − 2·⌊p̄⌋·⌊q̄⌋) / α²,  Φ̂(x̄) = Σ ⌊x̄ᵢ⌋²
//
// i.e. the exact formula evaluated on the floored integers: a Table 4 row
// over LB_PIM-ED's floors and dots with another Φ and G. The paper: "such
// precision loss may compromise the accuracy of results in data mining
// tasks (e.g., kNN classification)".
type approxRow struct {
	edRow
	phiFloor []float64 // Σ⌊p̄ᵢ⌋² per object (distinct from the bound's exact-float Φ)
	qPhi     float64
}

func (a *approxRow) fresh() stage {
	return &approxRow{edRow: *a.edRow.freshRow(), phiFloor: a.phiFloor}
}

func (a *approxRow) prepare(m *memo, meter *arch.Meter) error {
	if err := a.edRow.prepare(m, meter); err != nil {
		return err
	}
	a.qPhi = sumSquares(a.floor)
	return nil
}

func (a *approxRow) lb(i int) float64 {
	alpha := a.ix.Q.Alpha
	return (a.phiFloor[i] + a.qPhi - 2*float64(a.dots[i])) / (alpha * alpha)
}

func (a *approxRow) lbInto(dst []float64) {
	alpha := a.ix.Q.Alpha
	a2, qPhi := alpha*alpha, a.qPhi
	phi, dots := a.phiFloor[:len(dst)], a.dots[:len(dst)]
	for i := range dst {
		dst[i] = (phi[i] + qPhi - float64(2*float64(dots[i]))) / a2
	}
}

func sumSquares(floor []uint32) float64 {
	var phi float64
	for _, f := range floor {
		phi += float64(f) * float64(f)
	}
	return phi
}

// NewApproxPIM builds the Approx-PIM searcher: a cascade of the estimate
// alone, with no exact step, so it ranks objects purely by the quantized
// distance. It exists so the ext-approx experiment can *measure* the
// recall that costs against the exact bound-based searchers, across α.
// capacityN follows the usual Theorem 4 admission check.
func NewApproxPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*Cascade, error) {
	ix, pay, err := programED(eng, data, q, capacityN, "approx-pim/floors")
	if err != nil {
		return nil, err
	}
	st := &approxRow{edRow: *newEDRow(eng, pay, ix, "ED-approx", viewWhole), phiFloor: make([]float64, data.N)}
	for i := range st.phiFloor {
		st.phiFloor[i] = sumSquares(ix.Floor(i))
	}
	return newPlan("Approx-PIM", data.N, st), nil
}
