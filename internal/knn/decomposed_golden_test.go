package knn_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/fault"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// TestDecomposedTranscript is cascade.golden's twin for everything PR 19
// left outside the cascade: the CS/PCC, LEMP, HD and Approx-PIM
// searchers, k-means' PIM assist and the framework's §V-D pipeline. Same
// line format, same -update flag. The golden was written by the
// hand-written scan loops those searchers used to own (one per file) and
// is committed unchanged by the refactor that turns them into
// stage lists — a diff here means the one walk no longer computes what
// the six loops did. Every searcher is asked for by its concrete
// constructor, never through a type assertion, so a capability the
// cascade brings along (spans, SearchAppend, LastStages) cannot change
// what is recorded.
func TestDecomposedTranscript(t *testing.T) {
	var b strings.Builder
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	test := dataset.Generate(dataset.Profile{Name: "test", FullN: 300, D: 64, Clusters: 8, Correlation: 0.8, Spread: 0.1}, 300, 42)
	msdProf, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	msd := dataset.Generate(msdProf, 500, 7)
	for _, ds := range []struct {
		label         string
		data, queries *vec.Matrix
	}{
		{"test-300x64", test.X, test.Queries(5, 43).Slice(0, 3)},
		{"msd-500x420", msd.X, msd.Queries(3, 8)},
	} {
		simTranscript(t, &b, ds.label, ds.data, ds.queries, q)
		approxTranscript(t, &b, ds.label, ds.data, ds.queries, q)
	}
	hdTranscript(t, &b)
	assistTranscript(t, &b, q)
	frameworkTranscript(t, &b, "test-300x64", test.X, test.Queries(5, 43), test.X.N)
	frameworkTranscript(t, &b, "msd-500x420", msd.X, msd.Queries(3, 8), msdProf.FullN/4)
	// Weakly correlated data under a tight capacity: Theorem 4 leaves the
	// PIM bound 8 segments, and Eq. 13 keeps a host level behind it.
	loose := dataset.Generate(dataset.Profile{Name: "loose", FullN: 10_000_000, D: 256, Clusters: 8, Correlation: 0.2, Spread: 0.3}, 400, 7)
	frameworkTranscript(t, &b, "loose-400x256", loose.X, loose.Queries(3, 8), 10_000_000)

	path := filepath.Join("testdata", "decomposed.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update at a commit whose output is trusted)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript diverges from %s at line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript has %d lines, %s has %d", len(gl), path, len(wl))
	}
}

const transcriptK = 10

// writeQuery records one search: every neighbour to the bit and every
// bucket of a fresh meter.
func writeQuery(b *strings.Builder, qi int, search func(m *arch.Meter) []vec.Neighbor) {
	m := arch.NewMeter()
	nn := search(m)
	fmt.Fprintf(b, "query %d\n", qi)
	for _, nb := range nn {
		fmt.Fprintf(b, "  nn %d %016x\n", nb.Index, math.Float64bits(nb.Dist))
	}
	writeMeter(b, "meter", m)
}

func writeStages(b *strings.Builder, stages []knn.StageStat) {
	for _, st := range stages {
		fmt.Fprintf(b, "  stage %+v\n", st)
	}
}

// simTranscript covers maximum-similarity search: UB_PIM-CS and
// UB_PIM-PCC on the array, UB_part on the host.
func simTranscript(t *testing.T, b *strings.Builder, label string, data, queries *vec.Matrix, q quant.Quantizer) {
	t.Helper()
	for _, kind := range []measure.Kind{measure.CS, measure.PCC} {
		sp, err := knn.NewSimPIM(newEngine(t), data, q, kind, data.N)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(b, "== %s %v %s\n", label, kind, sp.Name())
		m := arch.NewMeter()
		sp.RecordPreprocessing(m)
		writeMeter(b, "preprocessing", m)
		for qi := 0; qi < queries.N; qi++ {
			writeQuery(b, qi, func(m *arch.Meter) []vec.Neighbor { return sp.Search(queries.Row(qi), transcriptK, m) })
			writeStages(b, sp.LastStages())
		}
	}
	lemp, err := knn.NewSimLEMP(data, data.D/2)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s %s\n", label, lemp.Name())
	for qi := 0; qi < queries.N; qi++ {
		writeQuery(b, qi, func(m *arch.Meter) []vec.Neighbor { return lemp.Search(queries.Row(qi), transcriptK, m) })
		writeStages(b, lemp.LastStages())
	}
}

func approxTranscript(t *testing.T, b *strings.Builder, label string, data, queries *vec.Matrix, q quant.Quantizer) {
	t.Helper()
	ap, err := knn.NewApproxPIM(newEngine(t), data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s %s\n", label, ap.Name())
	for qi := 0; qi < queries.N; qi++ {
		writeQuery(b, qi, func(m *arch.Meter) []vec.Neighbor { return ap.Search(queries.Row(qi), transcriptK, m) })
	}
}

// transcriptFaults is the fault universe of the faulty HD and k-means
// sections: stuck-at cells, drifted cells and (the callers check) exactly
// one dead crossbar under the payload, so the never-prune fallback of a
// dead group is on the record beside the widened bounds.
func transcriptFaults(t *testing.T, seed int64) *pim.Engine {
	t.Helper()
	inj, err := fault.NewInjector(fault.Model{
		Seed: seed, StuckAt0: 0.003, StuckAt1: 0.003, Drift: 0.006, DriftLevels: 2, CrossbarFail: 0.1,
	}, arch.Default().Crossbar)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pim.NewFaultyEngine(arch.Default(), pim.ModeExact, inj)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func needOneDeadCrossbar(t *testing.T, what string, eng *pim.Engine) {
	t.Helper()
	if dead := eng.DeadCrossbars(); dead != 1 {
		t.Fatalf("%s: %d dead crossbars under the transcript's fault seed, want exactly 1", what, dead)
	}
}

// hdTranscript covers the Hamming scan on a healthy array (HD1 is the
// answer) and under faults (HD1 is a bound, survivors are recounted).
func hdTranscript(t *testing.T, b *strings.Builder) {
	t.Helper()
	prof := dataset.Profile{Name: "hd", FullN: 900, D: 64, Clusters: 8, Correlation: 0.1, Spread: 0.3}
	ds := dataset.Generate(prof, 900, 7)
	hasher := lsh.NewHasher(prof.D, 256, 8)
	codes := hasher.HashAll(ds.X)
	qCodes := hasher.HashAll(ds.Queries(3, 9))
	for _, mode := range []struct {
		label string
		eng   *pim.Engine
	}{
		{"healthy", newEngine(t)},
		{"faulty", transcriptFaults(t, hdFaultSeed)},
	} {
		hp, err := knn.NewHDPIM(mode.eng, codes, len(codes))
		if err != nil {
			t.Fatal(err)
		}
		if mode.eng.Faulty() {
			needOneDeadCrossbar(t, "HD", mode.eng)
		}
		fmt.Fprintf(b, "== hd-900x256 %s %s\n", mode.label, hp.Name())
		m := arch.NewMeter()
		hp.RecordPreprocessing(m)
		writeMeter(b, "preprocessing", m)
		for qi, qc := range qCodes {
			writeQuery(b, qi, func(m *arch.Meter) []vec.Neighbor { return hp.Search(qc, transcriptK, m) })
		}
	}
}

// assistTranscript covers k-means' LB_PIM-ED assist outside any
// algorithm: two iterations' centre passes and the bound over a fixed
// (point, centre) grid, healthy and faulty.
func assistTranscript(t *testing.T, b *strings.Builder, q quant.Quantizer) {
	t.Helper()
	ds := dataset.Generate(dataset.Profile{Name: "km", FullN: 400, D: 24, Clusters: 6, Correlation: 0.4, Spread: 0.15}, 400, 42)
	first, err := kmeans.InitCenters(ds.X, 6, 7)
	if err != nil {
		t.Fatal(err)
	}
	// The second iteration's centres: one Lloyd step from the first, so
	// they are means (off the data grid) like every later iteration's.
	second := kmeans.NewLloyd(ds.X).Run(first, 1, arch.NewMeter()).Centers
	for _, mode := range []struct {
		label string
		eng   *pim.Engine
	}{
		{"healthy", newEngine(t)},
		{"faulty", transcriptFaults(t, assistFaultSeed)},
	} {
		a, err := kmeans.NewAssist(mode.eng, ds.X, q, ds.X.N)
		if err != nil {
			t.Fatal(err)
		}
		if mode.eng.Faulty() {
			needOneDeadCrossbar(t, "k-means assist", mode.eng)
		}
		fmt.Fprintf(b, "== km-400x24 %s assist\n", mode.label)
		m := arch.NewMeter()
		a.RecordPreprocessing(m)
		writeMeter(b, "preprocessing", m)
		m = arch.NewMeter()
		for it, centers := range []*vec.Matrix{first, second} {
			if err := a.BeginIteration(centers, m); err != nil {
				t.Fatal(err)
			}
			for p := 0; p < ds.X.N; p += 37 {
				for c := 0; c < centers.N; c++ {
					fmt.Fprintf(b, "  iter %d lb %d %d %016x\n", it, p, c, math.Float64bits(a.LBDist(p, c)))
				}
			}
		}
		a.RecordCosts(m)
		writeMeter(b, "meter", m)
	}
}

// frameworkTranscript covers §V-D end to end: the plan Eq. 13 chose, why,
// the measured pruning ratio of every bound the result exposes and the
// cascade the plan was compiled to. (The ratios of the candidates Eq. 13
// dropped are reachable only from inside package core; its own
// candidates.golden pins all of them.)
func frameworkTranscript(t *testing.T, b *strings.Builder, label string, data, pilot *vec.Matrix, capacityN int) {
	t.Helper()
	fw, err := core.Default()
	if err != nil {
		t.Fatal(err)
	}
	acc, err := fw.AccelerateKNN(data, core.KNNOptions{Pilot: pilot, K: transcriptK, CapacityN: capacityN})
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(b, "== %s AccelerateKNN\n", label)
	fmt.Fprintf(b, "  plan %s\n", acc.Plan)
	fmt.Fprintf(b, "  reason %s\n", acc.PlanDecision.Reason())
	fmt.Fprintf(b, "  cost %016x baseline %016x all-bounds %016x considered %d S %d\n",
		math.Float64bits(acc.Plan.Cost), math.Float64bits(acc.PlanDecision.BaselineCost),
		math.Float64bits(acc.PlanDecision.AllBoundsCost), acc.PlanDecision.Considered, acc.S)
	for _, bd := range acc.Plan.Bounds {
		fmt.Fprintf(b, "  bound %s family %s transfer %d pim %v prune %016x\n",
			bd.Name, bd.Family, bd.TransferDims, bd.PIM, math.Float64bits(bd.PruneRatio))
	}
	fmt.Fprintf(b, "  dropped %v\n", acc.PlanDecision.Dropped)
	for _, c := range []*knn.Cascade{acc.Baseline, acc.PIM, acc.Optimized} {
		fmt.Fprintf(b, "  cascade %s granularities %v\n", c.Name(), c.Granularities())
	}
	for qi := 0; qi < 2 && qi < pilot.N; qi++ {
		writeQuery(b, qi, func(m *arch.Meter) []vec.Neighbor { return acc.Optimized.Search(pilot.Row(qi), transcriptK, m) })
		writeStages(b, acc.Optimized.LastStages())
	}
}

// Seeds under which transcriptFaults kills exactly one crossbar of the
// section's payload (checked on every run by needOneDeadCrossbar).
const (
	hdFaultSeed     = 3
	assistFaultSeed = 1
)
