package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/pim"
	"pimmine/internal/plan"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// fnnFamily is the plan.Bound family of the LB_FNN cascade and its
// PIM-aware member: within it a bound prunes nothing beyond the best one
// already applied (§V-D).
const fnnFamily = "FNN"

// Candidates is §V-D's offline measurement. It prices pimAlg's array bound
// and every bound of the host baseline as candidates for Eq. 13, on the
// indexes the two cascades already hold: each bound's independent pruning
// ratio at the exact k-th distance, averaged over the pilot queries. The
// array bound is read from host-side dot products (fnnFilter.hostBounds),
// so measuring neither meters nor touches pimAlg's array.
func Candidates(data, pilot *vec.Matrix, k int, pimAlg, baseline *Cascade) ([]plan.Bound, error) {
	filter, ok := pimAlg.stages[0].(*fnnFilter)
	if !ok {
		return nil, fmt.Errorf("knn: %s does not lead with an LB_PIM-FNN bound", pimAlg.name)
	}
	stages := []stage{filter}
	for _, st := range baseline.stages {
		stages = append(stages, st.fresh())
	}
	exact := NewStandard(data)
	sums := make([]float64, len(stages))
	lbs := make([]float64, data.N)
	var m memo
	for qi := 0; qi < pilot.N; qi++ {
		q := pilot.Row(qi)
		nn := exact.Search(q, k, arch.NewMeter())
		threshold := nn[len(nn)-1].Dist
		m.reset(q)
		for si, st := range stages {
			var err error
			if si == 0 {
				err = filter.hostBounds(&m, lbs)
			} else if err = st.prepare(&m, nil); err == nil {
				st.lbInto(lbs)
			}
			if err != nil {
				return nil, err
			}
			sums[si] += plan.PruneRatio(lbs, threshold)
		}
	}
	out := make([]plan.Bound, len(stages))
	for si, st := range stages {
		out[si] = plan.Bound{
			Name: st.name(), Family: fnnFamily, TransferDims: st.operands(),
			PruneRatio: sums[si] / float64(pilot.N), PIM: st.pimDots() > 0, Segs: st.segs(),
		}
	}
	return out, nil
}

// FromPlan compiles a §V-D execution plan into the cascade it describes,
// stage for stage: the PIM bound (if the plan kept it) programmed onto eng
// at the granularity it was measured at, then the plan's host LB_FNN
// levels in plan order, then exact ED. A bound the cascade cannot build —
// one outside the LB_FNN family or without a granularity — is an error:
// leaving it out would run a different plan than the one Eq. 13 priced.
func FromPlan(p plan.Plan, eng *pim.Engine, data *vec.Matrix, q quant.Quantizer) (*Cascade, error) {
	const variant = "FNN-PIM-optimize"
	var stages []stage
	for _, b := range p.Bounds {
		switch {
		case b.Family != fnnFamily || b.Segs <= 0:
			return nil, fmt.Errorf("knn: plan %s: %q is not an LB_FNN bound with a granularity", p, b.Name)
		case b.PIM:
			f, err := newFNNFilter(eng, data, q, b.Segs, variant)
			if err != nil {
				return nil, err
			}
			stages = append(stages, f)
		default:
			host, err := fnnStages(data, []int{b.Segs}, 0)
			if err != nil {
				return nil, err
			}
			stages = append(stages, host...)
		}
	}
	return newCascade(data, variant, stages...), nil
}
