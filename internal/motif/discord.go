package motif

import (
	"fmt"
	"math"

	"pimmine/internal/arch"
	"pimmine/internal/measure"
)

// Discord discovery is motif discovery's dual and the paper's other named
// time-series task (§I: "motif discovery and anomaly detection"): the
// discord is the subsequence farthest from its nearest non-overlapping
// neighbor — the most anomalous window of the series (Keogh's HOT SAX
// formulation).
//
// The scan uses the classic early-abandon structure: window i is
// disqualified the moment any neighbor closer than the best discord
// score is found. The PIM path strengthens this with LB_PIM-ED — a
// neighbor whose *lower bound* already exceeds the running nearest
// distance can't improve it, and an exact distance below the current
// best score disqualifies i immediately.

// Discord is the most anomalous window.
type Discord struct {
	I int // window offset
	// Dist is the true distance to I's nearest non-overlapping window.
	Dist float64
}

// Discord returns the top discord of the finder's windows.
func (f *Finder) Discord(meter *arch.Meter) (Discord, error) {
	n := f.Win.N
	if n < f.W+1 {
		return Discord{}, fmt.Errorf("motif: series too short for non-overlapping pairs")
	}
	best := Discord{I: -1, Dist: -1}
	bestSq := -1.0
	var exact int64
	for i := 0; i < n; i++ {
		p := f.Win.Row(i)
		if err := f.filter.Prepare(p, meter); err != nil {
			return Discord{}, err
		}
		nnSq := math.Inf(1)
		for j := 0; j < n; j++ {
			if absInt(i-j) < f.W {
				continue // trivial match exclusion
			}
			// A neighbor provably farther than the current nearest cannot
			// shrink it.
			if f.filter.LB(j) >= nnSq {
				continue
			}
			exact++
			if d := measure.SqEuclidean(p, f.Win.Row(j)); d < nnSq {
				nnSq = d
				if nnSq <= bestSq {
					break // i cannot beat the best discord: abandon early
				}
			}
		}
		if nnSq > bestSq && !math.IsInf(nnSq, 1) {
			bestSq = nnSq
			best = Discord{I: i, Dist: math.Sqrt(nnSq)}
		}
	}
	f.filter.RecordCosts(meter, exact, f.W)
	return best, nil
}
