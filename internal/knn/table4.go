package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/pim"
)

// dotPayload is Table 4 (§V-A) written once. Every PIM-aware function of
// the table has the shape
//
//	F(p,q) = G(Φ(p), Φ(q), p·q)
//
// with the dot product taken on one programmed payload, and this is what
// that shape fixes for a cascade stage: the payload and its array, the
// meter bucket its passes and its host combine G are charged to, the
// operands G moves per consulted object (Fig 8) and the rule pricing them.
// A row of the table embeds a dotQuery and adds what the row defines — its
// Φ arrays (a pimbound index), Φ(q̄), and G as the stage's lb: LB_PIM-ED
// (edRow), UB_PIM-CS and UB_PIM-PCC (csRow, pccRow), HD1 (hdRow) and
// ED-approx (approxRow). LB_PIM-FNN takes two payloads per object and
// stays its own stage (fnnFilter).
type dotPayload struct {
	fn  string // meter bucket of the array passes and of G
	eng *pim.Engine
	pay *pim.Payload
	ops int // operands per consultation: Φ(p), the dot, ...
}

func (p *dotPayload) name() string  { return p.fn }
func (p *dotPayload) operands() int { return p.ops }
func (p *dotPayload) segs() int     { return p.pay.Dims }
func (p *dotPayload) pimDots() int  { return p.pay.N }

func (p *dotPayload) cost(c *arch.Counters, n int64) { costPIMBound(c, n, p.ops) }

// RecordPreprocessing charges the payload's offline programming.
func (p *dotPayload) RecordPreprocessing(meter *arch.Meter) {
	pim.RecordProgramCost(meter, p.fn, p.pay)
}

// dotQuery is one prepared query against a payload: its ⌊q̄⌋ and the dot
// with every programmed row (a row adds Φ(q̄)). It is apart from the
// payload so that one payload can have any number of queries in flight:
// each walk of a cascade holds one, kmeans.Assist one per centre. The dots
// are its own; ⌊q̄⌋ is retained scratch (newQuery), or LB_PIM-ED's, read
// from the query's memo (edRow). A cascade's own row, which is never
// prepared, holds the payload alone.
type dotQuery struct {
	*dotPayload
	floor []uint32
	dots  []int64
}

func (p *dotPayload) newQuery() dotQuery {
	return dotQuery{dotPayload: p, floor: make([]uint32, p.pay.Dims)}
}

func (s *dotQuery) checkDims(q []float64) error {
	if len(q) != s.pay.Dims {
		return fmt.Errorf("knn: %s query has %d dims, payload has %d", s.fn, len(q), s.pay.Dims)
	}
	return nil
}

// pass runs the array pass for the ⌊q̄⌋ in floor.
func (s *dotQuery) pass(meter *arch.Meter) (err error) {
	s.dots, err = s.eng.QueryAll(meter, s.fn, s.pay, s.floor, s.dots)
	return err
}
