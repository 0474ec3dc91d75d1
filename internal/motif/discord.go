package motif

import (
	"fmt"
	"math"

	"pimmine/internal/arch"
)

// Discord discovery is motif discovery's dual and the paper's other named
// time-series task (§I: "motif discovery and anomaly detection"): the
// discord is the subsequence farthest from its nearest non-overlapping
// neighbor — the most anomalous window of the series (Keogh's HOT SAX
// formulation).
//
// The scan uses the classic early-abandon structure: window i is one
// knn.EDFilter.Refine pass at its running nearest distance, ended the
// moment any neighbor no farther than the best discord score is found.
// The PIM path strengthens this with LB_PIM-ED — a neighbor whose *lower
// bound* already exceeds the running nearest distance can't improve it.

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
	var nnSq float64
	nearer := func(_ int, d float64) (float64, bool) {
		if d < nnSq {
			nnSq = d
		}
		return nnSq, nnSq > bestSq // at or below the best discord, i cannot beat it: abandon early
	}
	for i := 0; i < n; i++ {
		nnSq = math.Inf(1)
		// Windows within w of i are trivial matches, not neighbors.
		if err := f.filter.Refine(f.Win, f.Win.Row(i), 0, n, i-f.W+1, i+f.W, nnSq, nearer, meter); err != nil {
			return Discord{}, err
		}
		if nnSq > bestSq && !math.IsInf(nnSq, 1) {
			bestSq = nnSq
			best = Discord{I: i, Dist: math.Sqrt(nnSq)}
		}
	}
	return best, nil
}
