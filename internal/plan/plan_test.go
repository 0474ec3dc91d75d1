package plan

import (
	"math"
	"testing"
)

func TestCostNoBounds(t *testing.T) {
	// Pure exact scan: N·d operand transfers.
	if got := Cost(100, 40, nil); got != 4000 {
		t.Fatalf("Cost = %v, want 4000", got)
	}
}

func TestCostSequence(t *testing.T) {
	// One bound with cost 2 and 90% pruning over N=100, d=40:
	// 100·2 + 100·0.1·40 = 200 + 400 = 600.
	seq := []Bound{{Name: "b", TransferDims: 2, PruneRatio: 0.9}}
	if got := Cost(100, 40, seq); math.Abs(got-600) > 1e-9 {
		t.Fatalf("Cost = %v, want 600", got)
	}
	// Adding a second bound (cost 4, prunes 50% of the rest):
	// 200 + 0.1·100·4 + 0.05·100·40 = 200+40+200 = 440.
	seq = append(seq, Bound{Name: "c", TransferDims: 4, PruneRatio: 0.5})
	if got := Cost(100, 40, seq); math.Abs(got-440) > 1e-9 {
		t.Fatalf("Cost = %v, want 440", got)
	}
}

func TestCostClampsRatios(t *testing.T) {
	seq := []Bound{{Name: "b", TransferDims: 1, PruneRatio: 1.5}}
	if got := Cost(10, 8, seq); got != 10 {
		t.Fatalf("over-unity prune ratio must clamp; Cost = %v", got)
	}
}

// Fig 12's scenario: a PIM bound with strong pruning at negligible
// transfer makes the original coarse bounds pure overhead — the optimizer
// must drop them (§VI-C: "removing all original bounds and only using
// LB_PIM-FNN^105 leads to least data transfer").
func TestOptimizeDropsRedundantHostBounds(t *testing.T) {
	candidates := []Bound{
		{Name: "LBPIM-FNN-105", Family: "FNN", TransferDims: 3, PruneRatio: 0.99, PIM: true},
		{Name: "LBFNN-7", Family: "FNN", TransferDims: 14, PruneRatio: 0.85},
		{Name: "LBFNN-28", Family: "FNN", TransferDims: 56, PruneRatio: 0.95},
		{Name: "LBFNN-105", Family: "FNN", TransferDims: 210, PruneRatio: 0.985},
	}
	best, err := Optimize(992272, 420, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Bounds) != 1 || !best.Bounds[0].PIM {
		t.Fatalf("best plan = %v, want PIM bound alone", best)
	}
}

// When the host bounds are cheaper than the PIM bound and prune nearly as
// well (the k-means situation, §VI-D), the optimizer keeps them in front.
func TestOptimizeKeepsCheapHostBoundFirst(t *testing.T) {
	candidates := []Bound{
		{Name: "LBPIM-ED", TransferDims: 3, PruneRatio: 0.80, PIM: true},
		{Name: "triangle", TransferDims: 1, PruneRatio: 0.78},
	}
	best, err := Optimize(100000, 500, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Bounds) != 2 {
		t.Fatalf("best plan = %v, want both bounds", best)
	}
	// The PIM bound leads (its dots are batch-produced), but the host
	// bound must be retained.
	found := false
	for _, b := range best.Bounds {
		if b.Name == "triangle" {
			found = true
		}
	}
	if !found {
		t.Fatalf("plan %v dropped the cheap host bound", best)
	}
}

func TestOptimizeEmptyCandidates(t *testing.T) {
	best, err := Optimize(100, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(best.Bounds) != 0 || best.Cost != 1000 {
		t.Fatalf("empty-candidate plan = %+v", best)
	}
}

func TestOptimizeRejectsTooMany(t *testing.T) {
	many := make([]Bound, 21)
	if _, err := Optimize(10, 10, many); err == nil {
		t.Fatal("must reject >20 candidates")
	}
}

func TestOptimizeRejectsTwoPIMBounds(t *testing.T) {
	two := []Bound{{Name: "a", PIM: true}, {Name: "b", PIM: true}}
	if _, err := Optimize(10, 10, two); err == nil {
		t.Fatal("must reject multiple PIM bounds")
	}
}

func TestPlanString(t *testing.T) {
	p := Plan{Bounds: []Bound{{Name: "LBPIM-FNN-105"}, {Name: "LBFNN-28"}}}
	if got := p.String(); got != "LBPIM-FNN-105 → LBFNN-28 → ED" {
		t.Fatalf("String = %q", got)
	}
	if got := (Plan{}).String(); got != "ED" {
		t.Fatalf("empty plan String = %q", got)
	}
}

// A bound that ties the threshold does not prune: the walks keep such an
// object (lb > τ is their test), so Eq. 13 may not price it as free.
func TestPruneRatio(t *testing.T) {
	if got := PruneRatio([]float64{1, 2, 2, 3}, 2); got != 0.25 {
		t.Fatalf("PruneRatio = %v, want 0.25 (only lb > threshold prunes; the two ties are refined)", got)
	}
	if PruneRatio(nil, 1) != 0 {
		t.Fatal("empty input must give 0")
	}
	if got := UpperPruneRatio([]float64{0.1, 0.5, 0.5, 0.9}, 0.5); got != 0.25 {
		t.Fatalf("UpperPruneRatio = %v, want 0.25 (only ub < threshold prunes)", got)
	}
	if UpperPruneRatio(nil, 1) != 0 {
		t.Fatal("empty input must give 0")
	}
}

// Property: the optimizer never returns a plan worse than either the
// empty plan or any single-bound plan.
func TestOptimizeDominatesSingletons(t *testing.T) {
	candidates := []Bound{
		{Name: "a", TransferDims: 5, PruneRatio: 0.3},
		{Name: "b", TransferDims: 9, PruneRatio: 0.6},
		{Name: "c", TransferDims: 2, PruneRatio: 0.1, PIM: true},
	}
	best, err := Optimize(1000, 100, candidates)
	if err != nil {
		t.Fatal(err)
	}
	if best.Cost > Cost(1000, 100, nil) {
		t.Fatal("worse than no filtering")
	}
	for _, b := range candidates {
		if best.Cost > Cost(1000, 100, []Bound{b}) {
			t.Fatalf("worse than singleton %q", b.Name)
		}
	}
}
