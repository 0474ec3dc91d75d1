package core

import (
	"reflect"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/vec"
)

func testData(t *testing.T, n, d int) (*vec.Matrix, *vec.Matrix) {
	t.Helper()
	prof := dataset.Profile{Name: "t", FullN: n, D: d, Clusters: 8, Correlation: 0.85, Spread: 0.1}
	ds := dataset.Generate(prof, n, 17)
	return ds.X, ds.Queries(3, 18)
}

func TestDefaultFramework(t *testing.T) {
	f, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	if f.Quant.Alpha != 1e6 {
		t.Fatalf("alpha = %v, want 1e6", f.Quant.Alpha)
	}
}

func TestNewRejectsBadInputs(t *testing.T) {
	cfg := arch.Default()
	cfg.CPUFreqGHz = 0
	if _, err := New(cfg, 1e6, 0); err == nil {
		t.Fatal("invalid config must be rejected")
	}
	if _, err := New(arch.Default(), 0.1, 0); err == nil {
		t.Fatal("invalid alpha must be rejected")
	}
}

func TestAccelerateKNNEndToEnd(t *testing.T) {
	f, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	data, pilot := testData(t, 400, 128)
	acc, err := f.AccelerateKNN(data, KNNOptions{Pilot: pilot, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	if acc.S <= 0 {
		t.Fatalf("S = %d", acc.S)
	}
	if acc.BaselineProfile == nil || acc.OracleNs <= 0 {
		t.Fatalf("profile missing or oracle %v", acc.OracleNs)
	}
	if acc.OracleNs >= acc.BaselineProfile.Total.Total() {
		t.Fatal("oracle must be below baseline total")
	}
	if len(acc.Plan.Bounds) == 0 || !acc.Plan.Bounds[0].PIM {
		t.Fatalf("plan %v must lead with the PIM bound", acc.Plan)
	}
	// All three variants agree with the exact scan on a fresh query.
	q := pilot.Row(0)
	want := acc.Baseline.Search(q, 10, arch.NewMeter())
	for _, s := range []interface {
		Search(qv []float64, k int, m *arch.Meter) []vec.Neighbor
		Name() string
	}{acc.PIM, acc.Optimized} {
		got := s.Search(q, 10, arch.NewMeter())
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("%s: neighbor %d dist %v, want %v", s.Name(), i, got[i].Dist, want[i].Dist)
			}
		}
	}
}

// TestSimulatedEngineEndToEnd is the full-stack check: with every PIM dot
// product run through the bit-sliced crossbar simulator, the framework's
// accelerated searcher still returns exactly the linear scan's neighbors.
func TestSimulatedEngineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("simulate mode is slow")
	}
	prof, err := dataset.ByName("Year") // smallest d keeps tiles cheap
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 120, 11)
	queries := ds.Queries(2, 12)
	f, err := New(arch.Default(), 1e6, pim.ModeSimulate)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := f.AccelerateKNN(ds.X, KNNOptions{K: 5, Pilot: queries})
	if err != nil {
		t.Fatal(err)
	}
	exact := knn.NewStandard(ds.X)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		want := exact.Search(q, 5, arch.NewMeter())
		got := acc.PIM.Search(q, 5, arch.NewMeter())
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("simulated engine inexact at query %d pos %d", qi, i)
			}
		}
	}
}

func TestAccelerateKNNNeedsPilot(t *testing.T) {
	f, _ := Default()
	data, _ := testData(t, 50, 16)
	if _, err := f.AccelerateKNN(data, KNNOptions{}); err == nil {
		t.Fatal("missing pilot must be rejected")
	}
}

// Optimized is the chosen plan compiled stage for stage. The framework used
// to turn the plan back into a constructor call that always led with the
// PIM bound, so on data where Eq. 13 drops that bound (weak correlation
// under a capacity that leaves it 8 segments) it priced one cascade and
// ran another.
func TestOptimizedIsThePlan(t *testing.T) {
	f, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	prof := dataset.Profile{Name: "loose", FullN: 10_000_000, D: 256, Clusters: 8, Correlation: 0, Spread: 0.3}
	ds := dataset.Generate(prof, 400, 7)
	pilot := ds.Queries(3, 8)
	acc, err := f.AccelerateKNN(ds.X, KNNOptions{Pilot: pilot, K: 10, CapacityN: prof.FullN})
	if err != nil {
		t.Fatal(err)
	}
	if len(acc.Plan.Bounds) == 0 || acc.Plan.Bounds[0].PIM {
		t.Fatalf("plan %s: this profile is here because Eq. 13 drops the PIM bound on it", acc.Plan)
	}
	want := acc.Baseline.Search(pilot.Row(0), 10, arch.NewMeter())
	got := acc.Optimized.Search(pilot.Row(0), 10, arch.NewMeter())
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("optimized cascade returned %v, baseline %v", got, want)
	}
	var ran []string
	for _, st := range acc.Optimized.LastStages() {
		ran = append(ran, st.Name)
	}
	if plan := strings.Split(acc.Plan.String(), " → "); !reflect.DeepEqual(ran, plan) {
		t.Fatalf("Eq. 13 chose %v, the optimized cascade ran %v", plan, ran)
	}
}

func TestAccelerateKMeansEndToEnd(t *testing.T) {
	f, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	data, _ := testData(t, 300, 32)
	for _, v := range []KMeansVariant{VariantStandard, VariantElkan, VariantDrake, VariantYinyang} {
		acc, err := f.AccelerateKMeans(data, v, KMeansOptions{K: 8, MaxIters: 15, Seed: 4})
		if err != nil {
			t.Fatalf("%s: %v", v, err)
		}
		initial, err := kmeans.InitCenters(data, 8, 4)
		if err != nil {
			t.Fatal(err)
		}
		ref := acc.Baseline.Run(initial, 15, arch.NewMeter())
		got := acc.PIM.Run(initial, 15, arch.NewMeter())
		for i := range ref.Assign {
			if got.Assign[i] != ref.Assign[i] {
				t.Fatalf("%s-PIM diverges from %s at point %d", v, v, i)
			}
		}
		if acc.OracleNs <= 0 || acc.OracleNs >= acc.BaselineProfile.Total.Total() {
			t.Fatalf("%s: oracle %v outside (0, total)", v, acc.OracleNs)
		}
	}
}

func TestAccelerateKMeansUnknownVariant(t *testing.T) {
	f, _ := Default()
	data, _ := testData(t, 50, 16)
	if _, err := f.AccelerateKMeans(data, "nope", KMeansOptions{}); err == nil {
		t.Fatal("unknown variant must be rejected")
	}
}

// TestAccelerateKNNPlanDecisionAndEvent checks the framework records the
// Eq. 13 rationale and emits a plan.chosen event when observed.
func TestAccelerateKNNPlanDecisionAndEvent(t *testing.T) {
	f, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	f.Obs = obs.New(obs.Config{})
	data, pilot := testData(t, 300, 128)
	acc, err := f.AccelerateKNN(data, KNNOptions{Pilot: pilot, K: 10})
	if err != nil {
		t.Fatal(err)
	}
	dec := acc.PlanDecision
	if dec.Chosen.Cost != acc.Plan.Cost {
		t.Fatalf("decision cost %g != plan cost %g", dec.Chosen.Cost, acc.Plan.Cost)
	}
	if dec.BaselineCost <= dec.Chosen.Cost {
		t.Fatalf("baseline %g must exceed chosen %g", dec.BaselineCost, dec.Chosen.Cost)
	}
	if dec.Considered < 2 {
		t.Fatalf("considered = %d", dec.Considered)
	}
	if reason := dec.Reason(); !strings.Contains(reason, "Eq. 13") && !strings.Contains(reason, "plans enumerated") {
		t.Fatalf("reason lacks rationale: %s", reason)
	}

	evs := f.Obs.Events()
	found := false
	for _, e := range evs {
		if e.Name == "plan.chosen" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no plan.chosen event in %v", evs)
	}
}
