package knn

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/bound"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// fnnFilter is the LB_PIM-FNN stage: it wraps a payload pair (⌊µ⌋ and ⌊σ⌋
// crossbar payloads, Fig 10) and evaluates Theorem 2's bound for every
// object.
type fnnFilter struct {
	ix    *pimbound.FNNIndex
	eng   *pim.Engine
	muPay *pim.Payload
	sgPay *pim.Payload
	pays  []*pim.Payload    // muPay, sgPay: QueryAllParallel's argument
	fname string            // cached, so the hot path never fmt.Sprintfs
	qf    pimbound.FNNQuery // the prepared query's features, read from its memo

	// Steady-state scratch: the QueryAllParallel argument slices and the
	// dot-product destinations are kept so prepare performs zero heap
	// allocations per query.
	inputs [2][]uint32
	dsts   [2][]int64
	dotsMu []int64
	dotsSg []int64

	// lazyStage state: whether a walk leads with this stage over digested
	// payloads, the query's group norms against each, whether the dot
	// arrays hold the digests' upper bounds for the query in flight, and
	// which rows' ⌊µ⌋ dots tighten has made exact since (a bitset), with
	// the scratch list of the ones a pass still gathers.
	lazy       bool
	loose      bool
	qdMu, qdSg []uint32
	muTight    []uint64
	muRows     []int
}

// newFNNFilter quantizes the dataset's segment statistics at granularity
// segs and programs both payloads.
func newFNNFilter(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, segs int, tag string) (*fnnFilter, error) {
	ix, err := pimbound.BuildFNN(data, q, segs)
	if err != nil {
		return nil, err
	}
	f := &fnnFilter{ix: ix, eng: eng, fname: fmt.Sprintf("LBPIM-FNN-%d", segs)}
	f.muPay, err = eng.Program(tag+"/mu", data.N, segs, 2, ix.MuFloor)
	if err != nil {
		return nil, err
	}
	f.sgPay, err = eng.Program(tag+"/sigma", data.N, segs, 2, ix.SigmaFloor)
	if err != nil {
		return nil, err
	}
	f.pays = []*pim.Payload{f.muPay, f.sgPay}
	return f, nil
}

func (f *fnnFilter) fresh() stage {
	return &fnnFilter{ix: f.ix, eng: f.eng, muPay: f.muPay, sgPay: f.sgPay, pays: f.pays, fname: f.fname}
}

func (f *fnnFilter) name() string { return f.fname }
func (f *fnnFilter) segs() int    { return f.ix.Segs }

// operands is the per-consultation transfer: Φ(p̂) plus two dot products
// — Fig 8's 3·b bits. Φ(q̂) is not among them: it is computed once per
// query, in the query's memo, and shared by every shard's filter at the
// same granularity and α.
func (f *fnnFilter) operands() int { return 3 }
func (f *fnnFilter) pimDots() int  { return 2 * f.ix.N() }

// prepare reads the query's features from its memo and runs the query's
// PIM passes; bounds are then available for every object via lb. The ⌊µ⌋
// and ⌊σ⌋ payloads live in disjoint crossbar groups (Fig 10's crossbar a /
// crossbar b), so both dot products come out of one concurrent pass
// (§V-C's parallel function groups).
func (f *fnnFilter) prepare(m *memo, meter *arch.Meter) error {
	feat, err := m.pimFNN(f.ix)
	if err != nil {
		return err
	}
	f.qf = feat.fnn
	if f.lazy {
		var okMu, okSg bool
		f.dotsMu, okMu = f.eng.UpperAll(f.muPay, f.qf.MuFloor, f.qdMu, f.dotsMu)
		f.dotsSg, okSg = f.eng.UpperAll(f.sgPay, f.qf.SigmaFloor, f.qdSg, f.dotsSg)
		if f.loose = okMu && okSg; f.loose {
			clear(f.muTight)
			f.eng.ChargeQuery(meter, f.fname, f.pays...)
			return nil
		}
	}
	return f.sweep(meter)
}

// sweep is the array pass for the prepared query: every row's two exact
// dots. The walk calls it, without a meter, for a query prepare answered
// from the digests and already charged.
func (f *fnnFilter) sweep(meter *arch.Meter) error {
	f.loose = false
	f.inputs[0], f.inputs[1] = f.qf.MuFloor, f.qf.SigmaFloor
	f.dsts[0], f.dsts[1] = f.dotsMu, f.dotsSg
	dsts, err := f.eng.QueryAllParallel(meter, f.fname, f.pays, f.inputs[:], f.dsts[:])
	if err != nil {
		return err
	}
	f.dotsMu, f.dotsSg = dsts[0], dsts[1]
	return nil
}

func (f *fnnFilter) digested() bool { return f.muPay.DigestDims() > 0 && f.sgPay.DigestDims() > 0 }

func (f *fnnFilter) startLazy() {
	n := f.ix.N()
	f.qdMu, f.qdSg = make([]uint32, f.muPay.DigestDims()), make([]uint32, f.sgPay.DigestDims())
	f.muTight, f.muRows = make([]uint64, (n+63)/64), make([]int, 0, n/tightenShare)
	f.lazy = true
}

func (f *fnnFilter) isLoose() bool { return f.loose }

func (f *fnnFilter) lb(i int) float64 { return f.ix.LB(i, f.qf, f.dotsMu[i], f.dotsSg[i]) }

// lbInto is pimbound.FNNIndex.LB over three streams with the query's
// constants hoisted. Every product is rounded by an explicit conversion
// before it is summed, so no platform contracts one into a fused
// multiply-add and the column is lb(i) to the bit everywhere.
func (f *fnnFilter) lbInto(dst []float64) {
	a2 := f.ix.Q.Alpha * f.ix.Q.Alpha
	scale, qPhi, segs4 := float64(f.ix.L)/a2, f.qf.Phi, float64(4*float64(f.ix.Segs))
	phi, mu, sg := f.ix.Phi[:len(dst)], f.dotsMu[:len(dst)], f.dotsSg[:len(dst)]
	for i := range dst {
		dst[i] = scale * (phi[i] + qPhi - float64(2*float64(mu[i])) - float64(2*float64(sg[i])) - segs4)
	}
}

// tighten gathers the listed rows' exact ⌊µ⌋ dots — once per query, a row
// listed again keeps the one gathered — and their ⌊σ⌋ dots only where the
// bound over the exact ⌊µ⌋ dot and the ⌊σ⌋ digest is still at most thr:
// on MSD rows nearly all of the digest's slack is in ⌊µ⌋, so few rows need
// the second gather.
func (f *fnnFilter) tighten(rows []int, col []float64, thr float64) []int {
	f.muRows = f.muRows[:0]
	for _, i := range rows {
		if f.muTight[i>>6]&(1<<(i&63)) == 0 {
			f.muTight[i>>6] |= 1 << (i & 63)
			f.muRows = append(f.muRows, i)
		}
	}
	gatherDots(f.eng, f.muPay, f.qf.MuFloor, f.muRows, f.dotsMu)
	f.boundRows(rows, col)
	exact := 0
	for j, i := range rows {
		if col[i] <= thr {
			rows[exact], rows[j] = i, rows[exact]
			exact++
		}
	}
	gatherDots(f.eng, f.sgPay, f.qf.SigmaFloor, rows[:exact], f.dotsSg)
	f.boundRows(rows[:exact], col)
	return rows[:exact]
}

// boundRows is lbInto for the listed rows, over the dots as they stand.
func (f *fnnFilter) boundRows(rows []int, col []float64) {
	a2 := f.ix.Q.Alpha * f.ix.Q.Alpha
	scale, qPhi, segs4 := float64(f.ix.L)/a2, f.qf.Phi, float64(4*float64(f.ix.Segs))
	phi, mu, sg := f.ix.Phi[:len(col)], f.dotsMu[:len(col)], f.dotsSg[:len(col)]
	for _, i := range rows {
		col[i] = scale * (phi[i] + qPhi - float64(2*float64(mu[i])) - float64(2*float64(sg[i])) - segs4)
	}
}

func (f *fnnFilter) cost(c *arch.Counters, n int64) { costPIMBound(c, n, f.operands()) }

// hostBounds fills lbs with the bound of every object against m's query
// from dot products taken on the host, which a healthy array returns bit
// for bit: §V-D's offline measurement reads the bound without running,
// metering or (under a fault model) disturbing the array.
func (f *fnnFilter) hostBounds(m *memo, lbs []float64) error {
	feat, err := m.pimFNN(f.ix)
	if err != nil {
		return err
	}
	qf := feat.fnn
	for i := range lbs {
		dotMu, dotSg := f.ix.HostDots(i, qf)
		lbs[i] = f.ix.LB(i, qf, dotMu, dotSg)
	}
	return nil
}

// RecordPreprocessing charges the offline programming to a meter.
func (f *fnnFilter) RecordPreprocessing(meter *arch.Meter) {
	pim.RecordProgramCost(meter, f.fname, f.muPay)
	pim.RecordProgramCost(meter, f.fname, f.sgPay)
}

// chooseFNNFilter sizes the compressed dimensionality with Theorem 4
// against capacityN objects (pass the dataset's full-scale cardinality to
// reproduce the paper's constraint; the generated data may be smaller) and
// programs the LB_PIM-FNN payloads at that granularity.
func chooseFNNFilter(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int, tag string) (*fnnFilter, error) {
	s := eng.Model().ChooseS(capacityN, pim.Divisors(data.D), 2)
	if s == 0 {
		return nil, fmt.Errorf("knn: no compressed dimensionality of d=%d fits the PIM array for N=%d", data.D, capacityN)
	}
	return newFNNFilter(eng, data, q, s, tag)
}

// NewStandardPIM builds the PIM-optimized linear scan: a single LB_PIM-FNN
// filter at the Theorem 4 dimensionality, then exact refinement. Matches
// §VI-C's Standard-PIM (e.g. s=105 on MSD, s=50 on ImageNet when sized
// against the full dataset cardinalities).
func NewStandardPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*Cascade, error) {
	f, err := chooseFNNFilter(eng, data, q, capacityN, "standard-pim")
	if err != nil {
		return nil, err
	}
	return newCascade(data, "Standard-PIM", f), nil
}

// NewFNNPIM builds the default plan of the PIM-optimized FNN cascade: the
// bottleneck (coarsest) bound replaced by LB_PIM-FNN at the Theorem 4
// dimensionality, the original cascade's finer levels kept (§VI-C).
func NewFNNPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int) (*Cascade, error) {
	levels := bound.FNNLevels(data.D)
	return newFNNPIM(eng, data, q, capacityN, levels[1:], "FNN-PIM")
}

// newFNNPIM builds FNN-PIM with an explicit set of retained host
// granularities behind the Theorem 4 PIM bound. A §V-D plan compiles
// through FromPlan instead.
func newFNNPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, capacityN int, hostSegs []int, variant string) (*Cascade, error) {
	f, err := chooseFNNFilter(eng, data, q, capacityN, variant)
	if err != nil {
		return nil, err
	}
	host, err := fnnStages(data, hostSegs, f.segs())
	if err != nil {
		return nil, err
	}
	return newCascade(data, variant, append([]stage{f}, host...)...), nil
}

// edStage is the LB_PIM-ED stage over a projection of the data — Theorem
// 1's floor trick applied to the vectors a host bound compares:
//
//	LB_PIM-SM(p,q)  = l · LB_PIM-ED(µ(p̂), µ(q̂)) ≤ LB_SM ≤ ED
//	LB_PIM-OST(p,q) = LB_PIM-ED(p_head, q_head) + (‖p_tail‖ − ‖q_tail‖)²
//
// SM-PIM projects onto the segment means and scales by the segment length
// l; OST-PIM projects onto the head prefix and keeps LB_OST's exact
// tail-norm term (both tail norms are precomputed scalars).
type edStage struct {
	*edRow
	scale float64   // SM: l; otherwise 1
	tail  []float64 // OST: ‖p_tail‖ per object
	qTail float64
}

func (e *edStage) fresh() stage {
	return &edStage{edRow: e.edRow.freshRow(), scale: e.scale, tail: e.tail}
}

// prepare reads the projected query's features from the memo — SM's
// segment means and their floors, OST's head floors — and adds OST's
// tail norm, the one feature this stage computes itself.
func (e *edStage) prepare(m *memo, meter *arch.Meter) error {
	if e.tail != nil {
		e.qTail = vec.Norm(m.q[e.segs():])
	}
	return e.edRow.prepare(m, meter)
}

// lb rounds both products before they are summed, so none fuses into the
// sum on any platform and lbInto can repeat it to the bit.
func (e *edStage) lb(i int) float64 {
	lb := float64(e.scale * e.edRow.lb(i))
	if e.tail != nil {
		dt := e.tail[i] - e.qTail
		lb += float64(dt * dt)
	}
	return lb
}

func (e *edStage) lbInto(dst []float64) {
	e.edRow.lbInto(dst)
	scale := e.scale
	for i := range dst {
		dst[i] = float64(scale * dst[i])
	}
	if e.tail == nil {
		return
	}
	tail, qTail := e.tail[:len(dst)], e.qTail
	for i := range dst {
		dt := tail[i] - qTail
		dst[i] += float64(dt * dt)
	}
}

// tighten is lbInto for the listed rows, over their exact dots.
func (e *edStage) tighten(rows []int, col []float64, thr float64) []int {
	e.edRow.tighten(rows, col, thr)
	scale := e.scale
	for _, i := range rows {
		col[i] = float64(scale * col[i])
	}
	if e.tail == nil {
		return rows
	}
	tail, qTail := e.tail[:len(col)], e.qTail
	for _, i := range rows {
		dt := tail[i] - qTail
		col[i] += float64(dt * dt)
	}
	return rows
}

// NewSMPIM builds the PIM-optimized segmented-mean searcher: it derives
// segment means at granularity segs (compressed further if Theorem 4
// requires), quantizes them and programs the payload.
func NewSMPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, segs, capacityN int) (*Cascade, error) {
	// Respect capacity: shrink to the largest fitting divisor granularity.
	if !eng.Model().Fits(capacityN, segs, 1) {
		segs = eng.Model().ChooseS(capacityN, pim.Divisors(data.D), 1)
		if segs == 0 {
			return nil, fmt.Errorf("knn: no SM granularity fits the PIM array for N=%d", capacityN)
		}
	}
	mus := vec.NewMatrix(data.N, segs)
	sigma := make([]float64, segs) // computed, discarded
	for i := 0; i < data.N; i++ {
		if err := vec.SegmentStatsInto(data.Row(i), segs, mus.Row(i), sigma); err != nil {
			return nil, err
		}
	}
	ix, pay, err := programED(eng, mus, q, capacityN, "sm-pim/mu")
	if err != nil {
		return nil, err
	}
	return newCascade(data, "SM-PIM", &edStage{edRow: newEDRow(eng, pay, ix, "LBPIM-SM", viewMeans), scale: float64(data.D / segs)}), nil
}

// NewOSTPIM builds the PIM-optimized orthogonal-search-tree searcher with
// head length d0, clamped to Theorem 4 capacity.
func NewOSTPIM(eng *pim.Engine, data *vec.Matrix, q quant.Quantizer, d0, capacityN int) (*Cascade, error) {
	if d0 <= 0 || d0 >= data.D {
		return nil, fmt.Errorf("knn: OST-PIM head length %d outside (0,%d)", d0, data.D)
	}
	if fit := eng.Model().MaxFitting(capacityN, d0, 1); fit < d0 {
		if fit == 0 {
			return nil, fmt.Errorf("knn: no OST head length fits the PIM array for N=%d", capacityN)
		}
		d0 = fit
	}
	heads := vec.NewMatrix(data.N, d0)
	tails := make([]float64, data.N)
	for i := 0; i < data.N; i++ {
		row := data.Row(i)
		copy(heads.Row(i), row[:d0])
		tails[i] = vec.Norm(row[d0:])
	}
	ix, pay, err := programED(eng, heads, q, capacityN, "ost-pim/head")
	if err != nil {
		return nil, err
	}
	row := newEDRow(eng, pay, ix, "LBPIM-OST", viewHead)
	row.ops = 3 // Φ, the dot and ‖p_tail‖
	return newCascade(data, "OST-PIM", &edStage{edRow: row, scale: 1, tail: tails}), nil
}
