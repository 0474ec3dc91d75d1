// Package plan implements §V-D of the paper: execution-plan optimization
// for filter-and-refinement algorithms. Given a candidate set of bounds
// (original host bounds and the PIM-aware bound) with measured pruning
// ratios Pr(B) and per-object transfer costs Tcost(B), it enumerates the
// 2^L subset plans and picks the one minimizing Eq. 13's expected data
// transfer:
//
//	Tcost = N · Σ_i Tcost(Bi) · Π_{j<i} (1 − Pr(Bj))
//
// followed by the mandatory exact refinement on whatever survives every
// bound. (The paper's Eq. 13 writes Π_{j=1..i}; charging bound Bi on the
// candidate set it *receives*, |D_{i−1}| = N·Π_{j<i}(1−Pr(Bj)), is the
// consistent reading and is what we implement.)
package plan

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Bound is one candidate filter for the optimizer.
type Bound struct {
	// Name identifies the bound (e.g. "LBFNN-7", "LBPIM-FNN-105").
	Name string
	// Family groups bounds that dominate each other: within one family
	// (e.g. the LB_FNN cascade, including its PIM-aware member) a bound
	// prunes nothing beyond the best same-family bound already applied —
	// this encodes §V-D's "objects survived from LB_PIM-FNN^s are hard
	// to be filtered by LB_FNN^{d/16}". Bounds in different families
	// (or with an empty Family) prune independently.
	Family string
	// TransferDims is Tcost(B) in operands moved per consulted object
	// (e.g. d/64·b bits → d/64 operands for LB_FNN^{d/64}; 3 for a
	// PIM-aware bound, per Fig 8).
	TransferDims int
	// PruneRatio is Pr(B), measured offline (§V-D: "measure pruning
	// ratio of the bound").
	PruneRatio float64
	// PIM marks the PIM-aware bound; at most one PIM bound is allowed
	// per plan and it always runs first, since its dot products are
	// produced for the whole dataset in one batch pass.
	PIM bool
	// Segs is the granularity the bound was measured at (0 for a bound
	// that has none, such as the routing tier). The optimizer copies it
	// through untouched: it is what lets a chosen plan be built
	// (knn.FromPlan) without mapping bound names back to numbers.
	Segs int
}

// Plan is an ordered bound sequence plus its Eq. 13 cost.
type Plan struct {
	Bounds []Bound
	// Cost is the expected data transfer in operand units (multiply by
	// the operand width for bits), including exact refinement.
	Cost float64
}

// String renders the pipeline, e.g. "LBPIM-FNN-105 → ED".
func (p Plan) String() string {
	parts := make([]string, 0, len(p.Bounds)+1)
	for _, b := range p.Bounds {
		parts = append(parts, b.Name)
	}
	parts = append(parts, "ED")
	return strings.Join(parts, " → ")
}

// Cost evaluates Eq. 13 for an explicit bound order over n objects with
// exact refinement at dimensionality d. Bounds sharing a Family compose
// by dominance (the family's best pruning ratio wins); distinct families
// compose independently.
func Cost(n, d int, seq []Bound) float64 {
	famBest := make(map[string]float64)
	survivors := 1.0
	var total float64
	for i, b := range seq {
		total += float64(b.TransferDims) * survivors
		key := b.Family
		if key == "" {
			key = fmt.Sprintf("\x00unique-%d", i) // independent singleton
		}
		pr := clamp01(b.PruneRatio)
		if prev := famBest[key]; pr > prev && prev < 1 {
			famBest[key] = pr
			survivors *= (1 - pr) / (1 - prev)
		}
	}
	total += float64(d) * survivors // exact refinement on the remainder
	return total * float64(n)
}

// Optimize enumerates every subset of candidates (2^L plans, §V-D) and
// returns the minimum-cost plan. Within a subset, the PIM bound (if
// selected) runs first and the host bounds follow in ascending transfer
// cost — matching the cascades' cheap-to-expensive structure. L is capped
// at 20 to keep enumeration sane; realistic candidate sets have ≤ 6.
func Optimize(n, d int, candidates []Bound) (Plan, error) {
	if len(candidates) > 20 {
		return Plan{}, fmt.Errorf("plan: %d candidates exceed enumeration cap of 20", len(candidates))
	}
	pimCount := 0
	for _, b := range candidates {
		if b.PIM {
			pimCount++
		}
	}
	if pimCount > 1 {
		return Plan{}, fmt.Errorf("plan: %d PIM bounds; at most one is supported per plan", pimCount)
	}
	best := Plan{Bounds: nil, Cost: Cost(n, d, nil)}
	for mask := 1; mask < 1<<len(candidates); mask++ {
		var seq []Bound
		for i, b := range candidates {
			if mask&(1<<i) != 0 {
				seq = append(seq, b)
			}
		}
		orderBounds(seq)
		if c := Cost(n, d, seq); c < best.Cost {
			best = Plan{Bounds: seq, Cost: c}
		}
	}
	return best, nil
}

// Decision is an Optimize outcome with enough context to explain *why*
// the plan won under Eq. 13 — the serving engine's observability layer
// records it as a plan-chosen event.
type Decision struct {
	// Chosen is the minimum-cost plan.
	Chosen Plan
	// BaselineCost is the no-filter cost N·d (exact refinement of
	// everything).
	BaselineCost float64
	// AllBoundsCost is the cost of running every candidate bound in the
	// canonical order.
	AllBoundsCost float64
	// Considered is the number of enumerated plans (2^L).
	Considered int
	// Dropped names the candidate bounds the chosen plan leaves out.
	Dropped []string
}

// Decide runs Optimize and packages the Eq. 13 rationale.
func Decide(n, d int, candidates []Bound) (Decision, error) {
	best, err := Optimize(n, d, candidates)
	if err != nil {
		return Decision{}, err
	}
	all := make([]Bound, len(candidates))
	copy(all, candidates)
	orderBounds(all)
	dec := Decision{
		Chosen:        best,
		BaselineCost:  Cost(n, d, nil),
		AllBoundsCost: Cost(n, d, all),
		Considered:    1 << len(candidates),
	}
	chosen := make(map[string]bool, len(best.Bounds))
	for _, b := range best.Bounds {
		chosen[b.Name] = true
	}
	for _, b := range candidates {
		if !chosen[b.Name] {
			dec.Dropped = append(dec.Dropped, b.Name)
		}
	}
	sort.Strings(dec.Dropped)
	return dec, nil
}

// Reason renders a one-line explanation of the decision: the chosen
// pipeline, its expected transfer versus the unfiltered scan and the
// keep-every-bound plan, and which candidates Eq. 13 rejected.
func (d Decision) Reason() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %.3g operands expected transfer (%.1f%% of unfiltered %.3g",
		d.Chosen, d.Chosen.Cost, 100*safeRatio(d.Chosen.Cost, d.BaselineCost), d.BaselineCost)
	if d.AllBoundsCost > d.Chosen.Cost {
		fmt.Fprintf(&b, "; all-bounds plan costs %.3g", d.AllBoundsCost)
	}
	b.WriteString(")")
	if len(d.Dropped) > 0 {
		fmt.Fprintf(&b, "; dropped %s — their extra scans cost more transfer than they prune (Eq. 13)",
			strings.Join(d.Dropped, ", "))
	}
	fmt.Fprintf(&b, "; %d plans enumerated", d.Considered)
	return b.String()
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// orderBounds sorts a plan: PIM bound first, then ascending transfer cost,
// ties by name for determinism.
func orderBounds(seq []Bound) {
	sort.SliceStable(seq, func(i, j int) bool {
		if seq[i].PIM != seq[j].PIM {
			return seq[i].PIM
		}
		if seq[i].TransferDims != seq[j].TransferDims {
			return seq[i].TransferDims < seq[j].TransferDims
		}
		return seq[i].Name < seq[j].Name
	})
}

// RoutingBound prices the shard-routing tier (internal/route) as an
// Eq. 13 candidate: a filter whose pruning ratio is the observed
// fraction of shards skipped (a skipped shard's objects transfer
// nothing) and whose probe cost is probeDims operands per object — the
// per-shard summary evaluation amortized over the shard's rows, which
// rounds to 0 at serving shard sizes. It gets its own family: summary
// bounds prune whole shards and compose independently with the
// per-object cascades.
func RoutingBound(name string, skippedFrac float64, probeDims int) Bound {
	return Bound{
		Name:         name,
		Family:       "route",
		TransferDims: probeDims,
		PruneRatio:   clamp01(skippedFrac),
	}
}

// PruneRatio measures Pr(B) from a bound's values against a fixed
// threshold: the fraction of objects whose bound already excludes them
// (§V-D measures this offline on a sample of queries; callers average
// over queries). Exclusion is strict, as in every walk: an object whose
// bound equals the k-th distance — the k-th neighbour itself, under an
// exact bound — can still tie it and win on the smaller index, so it is
// refined, and pricing it as pruned would make Eq. 13 count it as free.
func PruneRatio(lbs []float64, threshold float64) float64 {
	if len(lbs) == 0 {
		return 0
	}
	pruned := 0
	for _, lb := range lbs {
		if lb > threshold {
			pruned++
		}
	}
	return float64(pruned) / float64(len(lbs))
}

// UpperPruneRatio is the similarity-measure analogue: objects whose upper
// bound cannot reach the threshold are pruned, and one that ties it is not.
func UpperPruneRatio(ubs []float64, threshold float64) float64 {
	if len(ubs) == 0 {
		return 0
	}
	pruned := 0
	for _, ub := range ubs {
		if ub < threshold {
			pruned++
		}
	}
	return float64(pruned) / float64(len(ubs))
}

func clamp01(x float64) float64 {
	return math.Max(0, math.Min(1, x))
}
