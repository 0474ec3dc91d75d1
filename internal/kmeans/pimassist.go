package kmeans

import (
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Assist supplies LB_PIM-ED(point, center) bounds to the PIM k-means
// variants. The data points' floor vectors are programmed onto the PIM
// array once (the points never change) as a knn.EDFilter; at the start of
// every iteration each of the k current centers is prepared against it on
// a knn.EDQuery of its own — quantized, one batched dot-product pass — and
// stays prepared for the whole assign step, so ⌊p̄⌋·⌊c̄⌋ is at hand for
// every (point, center) pair. Theorem 1 then turns each into a lower bound on the squared
// distance, consulted before any exact ED computation (§VI-D: "The bound
// contributes to filter far-away centers, and survived ones call exact ED
// calculation"). A nil *Assist is the host-only variant of an algorithm:
// it prepares nothing, never prunes and has nothing to charge.
type Assist struct {
	filter  *knn.EDFilter
	centers []*knn.EDQuery // one prepared query per center over the filter's payload
	clamped []float64      // the center in flight, nudged into [0,1]
}

// AssistFuncName is the meter bucket for PIM bound activity.
const AssistFuncName = "LBPIM-ED"

// NewAssist quantizes the dataset and programs the payload. capacityN is
// the full-scale cardinality used for the Theorem 4 admission check.
func NewAssist(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*Assist, error) {
	f, err := knn.NewEDFilter(eng, data, q, capacityN, "kmeans-pim/points")
	if err != nil {
		return nil, err
	}
	return &Assist{filter: f, clamped: make([]float64, data.D)}, nil
}

// RecordPreprocessing charges the offline payload programming to a meter.
func (a *Assist) RecordPreprocessing(meter *arch.Meter) { a.filter.RecordPreprocessing(meter) }

// BeginIteration quantizes the current centers and runs one PIM pass per
// center, making LB available for every (point, center) pair. Centers are
// means of in-range points, so only float round-off can stray outside
// [0,1]; they are clamped back before quantization.
func (a *Assist) BeginIteration(centers *vec.Matrix, meter *arch.Meter) error {
	if a == nil {
		return nil
	}
	for len(a.centers) < centers.N {
		a.centers = append(a.centers, a.filter.NewQuery())
	}
	for c := 0; c < centers.N; c++ {
		for i, x := range centers.Row(c) {
			a.clamped[i] = math.Max(0, math.Min(1, x))
		}
		if err := a.centers[c].Prepare(a.clamped, meter); err != nil {
			return err
		}
	}
	return nil
}

// LBDist returns a lower bound on the *true* distance between point p and
// center c: √ of Theorem 1's squared-ED bound, clamped at 0.
func (a *Assist) LBDist(p, c int) float64 {
	lb := a.centers[c].LB(p)
	if lb <= 0 {
		return 0
	}
	return math.Sqrt(lb)
}

// Dist is d(p, center) behind the bound, for point i and center c: when
// LBDist already reaches threshold the exact computation is skipped and
// the bound is returned with exact = false; otherwise *exacts is bumped
// and the true distance returned.
func (a *Assist) Dist(i, c int, p, center []float64, threshold float64, exacts *int64) (d float64, exact bool) {
	if a != nil {
		if lb := a.LBDist(i, c); lb >= threshold {
			return lb, false
		}
	}
	*exacts++
	return dist(p, center), true
}

// RecordCosts charges the host-side G cost of every LBDist since the last
// call: the filter's own rule (Fig 8: Φ(p) and the dot product move; Φ(c̄)
// is cached per center) plus the sqrt.
func (a *Assist) RecordCosts(meter *arch.Meter) {
	if a == nil {
		return
	}
	var n int64
	for _, f := range a.centers {
		n += f.RecordConsults(meter)
	}
	if n > 0 {
		meter.C(AssistFuncName).ALUOps += n
	}
}
