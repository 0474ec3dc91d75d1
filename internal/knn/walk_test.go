package knn

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"regexp"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/fault"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/pimbound"
	"pimmine/internal/plan"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// assertColumn checks lbInto against lb(i) to the bit.
func assertColumn(t *testing.T, what string, st stage, n int) {
	t.Helper()
	col := make([]float64, n)
	st.lbInto(col)
	for i, got := range col {
		if want := st.lb(i); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s %s: lbInto[%d] = %v (%016x), lb(%d) = %v (%016x)",
				what, st.name(), i, got, math.Float64bits(got), i, want, math.Float64bits(want))
		}
	}
}

// stageDots returns the dot arrays a PIM stage combines, nil for a host
// stage.
func stageDots(t *testing.T, st stage) [][]int64 {
	t.Helper()
	switch s := st.(type) {
	case *fnnFilter:
		return [][]int64{s.dotsMu, s.dotsSg}
	case *edStage:
		return [][]int64{s.dots}
	case *edRow:
		return [][]int64{s.dots}
	case *csRow:
		return [][]int64{s.dots}
	case *pccRow:
		return [][]int64{s.dots}
	case *approxRow:
		return [][]int64{s.dots}
	case *hdRow:
		return [][]int64{s.dots}
	case *ostStage, *smStage, *fnnStage, *partStage:
		return nil
	}
	t.Fatalf("stage type %T has no row in stageDots: add it, so its lbInto is tested", st)
	return nil
}

// TestLBIntoMatchesLB pins the columnar first bound of every stage type to
// its per-object form: after a real query, and then over dots the array
// never returns together — the full int64 range, zero, and pim.DeadDot,
// what a dead crossbar reports. The data holds an all-zero row and a
// constant row, the two cases UB_PIM-CS and UB_PIM-PCC bound by −0.
func TestLBIntoMatchesLB(t *testing.T) {
	const n, d = 37, 64 // n%4 != 0: no loop gets to assume whole blocks
	data, queries := testData(t, n, d)
	clear(data.Row(3))
	for j := range data.Row(5) {
		data.Row(5)[j] = 0.5
	}
	q := defaultQuant(t)
	var stages []stage
	for _, build := range []func() (*Cascade, error){
		func() (*Cascade, error) { return NewOST(data, d/2) },
		func() (*Cascade, error) { return NewSM(data, 16) },
		func() (*Cascade, error) { return NewFNN(data) },
		func() (*Cascade, error) { return NewSimLEMP(data, d/2) },
		func() (*Cascade, error) { return NewStandardPIM(newEngine(t), data, q, n) },
		func() (*Cascade, error) { return NewSMPIM(newEngine(t), data, q, 16, n) },
		func() (*Cascade, error) { return NewOSTPIM(newEngine(t), data, q, d/2, n) },
		func() (*Cascade, error) { return NewSimPIM(newEngine(t), data, q, measure.CS, n) },
		func() (*Cascade, error) { return NewSimPIM(newEngine(t), data, q, measure.PCC, n) },
		func() (*Cascade, error) { return NewApproxPIM(newEngine(t), data, q, n) },
		func() (*Cascade, error) {
			dyn, err := NewDynamicPIM(newEngine(t), data, q, n)
			if err != nil {
				return nil, err
			}
			return dyn.Cascade, nil
		},
	} {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		c.Search(queries.Row(0), 5, arch.NewMeter()) // prepares every stage
		stages = append(stages, c.stages...)
	}
	hasher := lsh.NewHasher(d, 128, 8)
	hp, err := NewHDPIM(newEngine(t), hasher.HashAll(data), n)
	if err != nil {
		t.Fatal(err)
	}
	hp.Search(hasher.HashAll(queries)[0], 5, arch.NewMeter())
	stages = append(stages, &hp.hdRow)

	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(23))
	for _, st := range stages {
		seen[fmt.Sprintf("%T", st)] = true
		assertColumn(t, "prepared", st, n)
		for _, dots := range stageDots(t, st) {
			for i := range dots {
				switch i % 4 {
				case 0:
					dots[i] = pim.DeadDot
				case 1:
					dots[i] = int64(rng.Uint64())
				case 2:
					dots[i] = rng.Int63n(1 << 41) // what 64 20-bit floors can sum to
				default:
					dots[i] = 0
				}
			}
		}
		assertColumn(t, "full-range dots", st, n)
	}
	for _, typ := range []string{"*knn.ostStage", "*knn.smStage", "*knn.fnnStage", "*knn.partStage", "*knn.fnnFilter",
		"*knn.edStage", "*knn.edRow", "*knn.csRow", "*knn.pccRow", "*knn.approxRow", "*knn.hdRow"} {
		if !seen[typ] {
			t.Fatalf("no stage of type %s was tested", typ)
		}
	}
}

// fuzzFloats reads raw as float64s, keeping the finite ones.
func fuzzFloats(raw []byte) []float64 {
	var out []float64
	for ; len(raw) >= 8; raw = raw[8:] {
		if v := math.Float64frombits(binary.LittleEndian.Uint64(raw)); !math.IsNaN(v) && !math.IsInf(v, 0) {
			out = append(out, v)
		}
	}
	return out
}

// FuzzLBInto fuzzes the PIM rows' columns against their per-object forms
// over arbitrary finite Φ, arbitrary dots, the tested spread of α and any
// granularity: the stages are assembled from the raw arrays, with no
// dataset or array behind them, so the fuzzer reaches values no
// quantized [0,1] vector produces.
func FuzzLBInto(f *testing.F) {
	le := func(vals ...uint64) []byte {
		raw := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(raw[i*8:], v)
		}
		return raw
	}
	fl := math.Float64bits
	f.Add(le(fl(1.5e12), fl(2.5e12), fl(0), fl(3e11)), le(1<<40, 0, uint64(pim.DeadDot), 7), byte(3), uint16(210))
	f.Add(le(fl(-1), fl(1e300), fl(5e-324), fl(0.1), fl(0.2)), le(^uint64(0), 1<<63, 1, 1<<62, 3), byte(0), uint16(1))
	f.Add([]byte("phi of every object, eight bytes each.."), []byte("and one dot product per object, also 8!"), byte(1), uint16(64))
	f.Add(le(fl(0), fl(0)), le(0, 0), byte(2), uint16(0))

	f.Fuzz(func(t *testing.T, rawPhi, rawDots []byte, alphaSel byte, segs uint16) {
		phi := fuzzFloats(rawPhi)
		n := min(len(phi), len(rawDots)/8)
		if n < 2 {
			t.Skip("fewer than two objects")
		}
		phi = phi[:n]
		dots, ints := make([]int64, n), make([]int, n)
		for i := range dots {
			dots[i] = int64(binary.LittleEndian.Uint64(rawDots[i*8:]))
			ints[i] = int(dots[n-1-i] >> 20)
		}
		rev := make([]int64, n) // a second, different dot stream
		other := make([]float64, n)
		for i := range rev {
			rev[i], other[i] = dots[n-1-i], phi[n-1-i]
		}
		qz := quant.Quantizer{Alpha: []float64{2, 37, 1e3, 1e6}[alphaSel%4]}
		qPhi, s := phi[0], int(segs)

		ed := func() *edRow {
			return &edRow{dotQuery: dotQuery{dots: dots}, ix: &pimbound.EDIndex{Q: qz, D: s, Phi: phi}, qf: pimbound.EDQuery{Phi: qPhi}}
		}
		sim := simRow{
			dotQuery: dotQuery{dots: dots},
			ix:       &pimbound.CSIndex{Q: qz, D: s, SumFlr: phi, Norm: other, PhiA: other, PhiB: phi},
			qf:       pimbound.CSQuery{SumFlr: qPhi, Norm: phi[1], PhiA: phi[1], PhiB: other[0]},
		}
		for _, st := range []stage{
			&fnnFilter{
				ix: &pimbound.FNNIndex{Q: qz, Segs: s, L: s%7 + 1, Phi: phi}, fname: "LBPIM-FNN",
				qf: pimbound.FNNQuery{Phi: qPhi}, dotsMu: dots, dotsSg: rev,
			},
			ed(),
			&edStage{edRow: ed(), scale: float64(s%7 + 1)},
			&edStage{edRow: ed(), scale: 1, tail: other, qTail: phi[1]},
			&csRow{sim},
			&pccRow{sim},
			&approxRow{edRow: *ed(), phiFloor: other, qPhi: phi[1]},
			&hdRow{dotQuery: dotQuery{dots: dots}, ix: &pimbound.HDIndex{Ones: ints}, qOnes: s},
		} {
			col := make([]float64, n)
			st.lbInto(col)
			for i, got := range col {
				want := st.lb(i)
				if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Fatalf("%T: lbInto[%d] = %v (%016x), lb(%d) = %v (%016x)", st, i, got, math.Float64bits(got), i, want, math.Float64bits(want))
				}
			}
		}
	})
}

// duplicated returns data's first distinct rows copies times over, copy c
// of row j at index c·distinct+j: every distance to a query occurs copies
// times, so ties straddle the k-th place for any k that is not a multiple
// of copies.
func duplicated(data *vec.Matrix, distinct, copies int) *vec.Matrix {
	out := vec.NewMatrix(distinct*copies, data.D)
	for i := 0; i < out.N; i++ {
		copy(out.Row(i), data.Row(i%distinct))
	}
	return out
}

func sameNeighbors(t *testing.T, what string, got, want []vec.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, the exact scan returns %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
			t.Fatalf("%s: neighbour %d is %+v, the exact scan's is %+v", what, i, got[i], want[i])
		}
	}
}

// walkEngines are the arrays the order-invariance differential runs on:
// healthy; cell faults, which widen bounds; and every crossbar dead, so
// that whatever k is, the k smallest bounds — the seeds — all belong to
// DeadDot rows and say nothing about who is near.
func walkEngines(t *testing.T) map[string]func() *pim.Engine {
	return map[string]func() *pim.Engine{
		"healthy": func() *pim.Engine { return newEngine(t) },
		"faulty":  func() *pim.Engine { return faultyEngine(t, 77) },
		"dead": func() *pim.Engine {
			inj, err := fault.NewInjector(fault.Model{Seed: 78, CrossbarFail: 1}, arch.Default().Crossbar)
			if err != nil {
				t.Fatal(err)
			}
			eng, err := pim.NewFaultyEngine(arch.Default(), pim.ModeExact, inj)
			if err != nil {
				t.Fatal(err)
			}
			return eng
		},
	}
}

// TestWalkOrderInvariant is the differential the seeded walk rests on:
// visiting the k most promising objects first, then the rest, returns what
// the exact scan returns, to the bit and to the index, when duplicated rows
// put ties across the k-th place — for every constructor of the two
// transcripts, a cascade with no stage, and the two with no exact step, at
// k below, at and above n.
func TestWalkOrderInvariant(t *testing.T) {
	base, queries := testData(t, 12, 64)
	data := duplicated(base, 12, 5)
	n := data.N
	q := defaultQuant(t)
	std := NewStandard(data)
	simStd := func(kind measure.Kind) Searcher {
		s, err := NewSimStandard(data, kind)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	type build func(eng *pim.Engine) (Searcher, error)
	cascades := []struct {
		name  string
		exact Searcher
		build build
	}{
		{"OST", std, func(*pim.Engine) (Searcher, error) { return NewOST(data, data.D/2) }},
		{"SM", std, func(*pim.Engine) (Searcher, error) { return NewSM(data, 16) }},
		{"FNN", std, func(*pim.Engine) (Searcher, error) { return NewFNN(data) }},
		{"Standard-PIM", std, func(e *pim.Engine) (Searcher, error) { return NewStandardPIM(e, data, q, n) }},
		{"OST-PIM", std, func(e *pim.Engine) (Searcher, error) { return NewOSTPIM(e, data, q, data.D/2, n) }},
		{"SM-PIM", std, func(e *pim.Engine) (Searcher, error) { return NewSMPIM(e, data, q, 16, n) }},
		{"FNN-PIM", std, func(e *pim.Engine) (Searcher, error) { return NewFNNPIM(e, data, q, n) }},
		{"FNN-PIM-optimize", std, func(e *pim.Engine) (Searcher, error) { return NewFNNPIMOptimized(e, data, q, n, []int{16}) }},
		{"Dynamic-PIM", std, func(e *pim.Engine) (Searcher, error) { return NewDynamicPIM(e, data, q, n+8) }},
		{"no-stage", std, func(e *pim.Engine) (Searcher, error) { return FromPlan(plan.Plan{}, e, data, q) }},
		{"CS-PIM", simStd(measure.CS), func(e *pim.Engine) (Searcher, error) { return NewSimPIM(e, data, q, measure.CS, n) }},
		{"PCC-PIM", simStd(measure.PCC), func(e *pim.Engine) (Searcher, error) { return NewSimPIM(e, data, q, measure.PCC, n) }},
		{"LEMP", simStd(measure.CS), func(*pim.Engine) (Searcher, error) { return NewSimLEMP(data, data.D/2) }},
	}
	hasher := lsh.NewHasher(data.D, 128, 8)
	codes, qCodes := hasher.HashAll(data), hasher.HashAll(queries)
	hdStd := NewHDStandard(codes)

	for engName, newEng := range walkEngines(t) {
		for _, k := range []int{1, n - 1, n, n + 5} {
			what := func(name string, qi int) string {
				return fmt.Sprintf("%s array, %s, k=%d, query %d", engName, name, k, qi)
			}
			for _, tc := range cascades {
				s, err := tc.build(newEng())
				if err != nil {
					t.Fatal(err)
				}
				for qi := 0; qi < queries.N; qi++ {
					got := s.Search(queries.Row(qi), k, arch.NewMeter())
					sameNeighbors(t, what(tc.name, qi), got, tc.exact.Search(queries.Row(qi), k, arch.NewMeter()))
				}
			}

			// HD-PIM: no exact step on a healthy array (the column is the
			// answer), Hamming refinement on a faulty one.
			hp, err := NewHDPIM(newEng(), codes, n)
			if err != nil {
				t.Fatal(err)
			}
			for qi, qc := range qCodes {
				sameNeighbors(t, what("HD-PIM", qi), hp.Search(qc, k, arch.NewMeter()), hdStd.Search(qc, k, arch.NewMeter()))
			}

			// Approx-PIM has no exact step on any array: its answer is the
			// k smallest of its own estimate, whatever the array made of it.
			eng := newEng()
			ap, err := NewApproxPIM(eng, data, q, n)
			if err != nil {
				t.Fatal(err)
			}
			if engName == "dead" && eng.DeadCrossbars() == 0 {
				t.Fatal("the dead array has no dead crossbar under a programmed payload")
			}
			for qi := 0; qi < queries.N; qi++ {
				got := ap.Search(queries.Row(qi), k, arch.NewMeter())
				top := vec.NewTopK(k)
				for i := 0; i < n; i++ {
					top.Push(i, ap.stages[0].lb(i))
				}
				sameNeighbors(t, what("Approx-PIM", qi), got, top.Results())
			}
		}
	}
}

// TestWalkRealisesPredictedPruning ties the walk to §V-D's measurement of
// it: knn.Candidates prices the array bound by the share of objects it
// excludes at the exact k-th distance, and on the msd-500x420 profile of
// core's candidates.golden the first stage of the seeded walk now excludes
// that share to within 0.005. The index-order walk did not: it spent
// k·(1+ln(n/k)) ≈ 49 of the 500 objects finding a threshold (0.880 against
// a measured 0.979).
func TestWalkRealisesPredictedPruning(t *testing.T) {
	const k = 10
	prof, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	msd := dataset.Generate(prof, 500, 7)
	pilot := msd.Queries(3, 8)
	baseline, err := NewFNN(msd.X)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := NewFNNPIM(newEngine(t), msd.X, defaultQuant(t), prof.FullN/4)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := Candidates(msd.X, pilot, k, alg, baseline)
	if err != nil {
		t.Fatal(err)
	}
	var realised float64
	for qi := 0; qi < pilot.N; qi++ {
		alg.Search(pilot.Row(qi), k, arch.NewMeter())
		realised += alg.LastStages()[0].PruneRatio()
	}
	realised /= float64(pilot.N)
	if predicted := cands[0].PruneRatio; math.Abs(realised-predicted) > 0.005 {
		t.Fatalf("%s prunes %.4f of the objects in the walk, Candidates measured Pr(B) = %.4f", cands[0].Name, realised, predicted)
	}
}

// TestSeedEvent pins what a trace says about how tight the walk started:
// one seed event under bound-eval carrying k, the threshold the seeds left,
// the cost of the column and how a lazy first stage ended — carried by the
// digest to the end, or fallen back to the sweep, which the pim-dot span
// and the event then both say — with the time its tighten passes took;
// and that the exact scan reports its one
// phase, refinement, with the time it took.
func TestSeedEvent(t *testing.T) {
	data, queries := testData(t, 300, 64)
	fnnPIM, err := NewFNNPIM(newEngine(t), data, defaultQuant(t), data.N)
	if err != nil {
		t.Fatal(err)
	}
	render := func(s Searcher, k int) string {
		tr := obs.NewTracer(1, 1)
		ctx, root := tr.Start(context.Background(), "root")
		SearchTraced(ctx, s, queries.Row(0), k, arch.NewMeter())
		root.End()
		return tr.Recent(1)[0].Render()
	}
	seedEvent := regexp.MustCompile(`bound-eval[^\n]*\n[^\n]*─ seed  \[k=(\d+) tau=([-+.\de]+) column_us=[\d.]+ loose=(\d+) tightened=(\d+) tighten_us=([\d.]+) exit=(\w+)\]`)
	lazyDot := regexp.MustCompile(`─ pim-dot [^\n]*dots=600 lazy=true\]`)

	tree := render(fnnPIM, 10)
	seed := seedEvent.FindStringSubmatch(tree)
	if seed == nil || seed[1] != "10" {
		t.Fatalf("no seed event first under bound-eval:\n%s", tree)
	}
	if n := len(regexp.MustCompile(`─ seed `).FindAllString(tree, -1)); n != 1 {
		t.Fatalf("%d seed events, want one:\n%s", n, tree)
	}
	// The seeds are the 10 smallest bounds; on this data they hold the
	// true neighbours, so the threshold they leave is already final.
	want := NewStandard(data).Search(queries.Row(0), 10, arch.NewMeter())
	if tau := fmt.Sprint(want[9].Dist); seed[2] != tau {
		t.Fatalf("seed event reports tau=%s, the exact 10th distance is %s", seed[2], tau)
	}
	// The digest left a few dozen of the 300 rows at or below that
	// threshold, and those were all the rows given exact dots, in tighten
	// passes that took time.
	if !lazyDot.MatchString(tree) || seed[6] != exitLazy || seed[3] != seed[4] || seed[3] == "0" || fnnPIM.lazy.nTight > data.N/4 || seed[5] == "0.0" {
		t.Fatalf("a search the digest carried reports loose=%s tightened=%s tighten_us=%s exit=%s:\n%s", seed[3], seed[4], seed[5], seed[6], tree)
	}

	// k above n/tightenShare: the k smallest bounds alone are more rows than
	// a pass may list, so the stage sweeps before anything is seeded or
	// tightened.
	tree = render(fnnPIM, data.N/2)
	if seed = seedEvent.FindStringSubmatch(tree); !lazyDot.MatchString(tree) || seed == nil || seed[6] != exitTheta || seed[4] != "0" || seed[5] != "0.0" {
		t.Fatalf("a search that fell back to the sweep reports %v:\n%s", seed, tree)
	}

	tree = render(NewStandard(data), 10)
	if !regexp.MustCompile(`─ refine \([\d.]+(µs|ms)[^\n]*\)  \[in=300 out=10 transfer_dims=64\]`).MatchString(tree) {
		t.Fatalf("the exact scan's refine span carries no duration:\n%s", tree)
	}
}
