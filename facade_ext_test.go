package pimmine_test

import (
	"fmt"
	"log"
	"math"
	"testing"

	"pimmine"
)

// The extension tasks are reachable and exact through the facade.
func TestFacadeExtensions(t *testing.T) {
	prof, err := pimmine.DatasetByName("Year")
	if err != nil {
		t.Fatal(err)
	}
	ds := pimmine.GenerateDataset(prof, 300, 19)
	q, err := pimmine.NewQuantizer(pimmine.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}

	// Outliers.
	eng1, _ := pimmine.NewEngine(pimmine.DefaultConfig())
	det, err := pimmine.NewOutlierDetectorPIM(eng1, ds.X, q, ds.X.N)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pimmine.NewOutlierDetector(ds.X).TopN(3, 5, pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	got, err := det.TopN(3, 5, pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("outlier facade mismatch at %d", i)
		}
	}

	// DB outliers too.
	dbHost, err := pimmine.NewOutlierDetector(ds.X).DB(0.8, 0.02, pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	dbPIM, err := det.DB(0.8, 0.02, pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	if len(dbHost) != len(dbPIM) {
		t.Fatalf("DB outlier counts differ: %d vs %d", len(dbHost), len(dbPIM))
	}

	// Motifs and discords over a small series.
	series := make([]float64, 600)
	for i := range series {
		series[i] = math.Sin(float64(i) / 5)
	}
	windows, _, err := pimmine.MotifWindows(series, 24)
	if err != nil {
		t.Fatal(err)
	}
	eng2, _ := pimmine.NewEngine(pimmine.DefaultConfig())
	mf, err := pimmine.NewMotifFinderPIM(eng2, windows, q, windows.N)
	if err != nil {
		t.Fatal(err)
	}
	hostM, err := pimmine.NewMotifFinder(windows).Top(pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	pimM, err := mf.Top(pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	if hostM != pimM {
		t.Fatalf("motif facade mismatch: %+v vs %+v", pimM, hostM)
	}
	if _, err := mf.Discord(pimmine.NewMeter()); err != nil {
		t.Fatal(err)
	}
	if _, err := mf.TopK(2, pimmine.NewMeter()); err != nil {
		t.Fatal(err)
	}

	// Joins.
	outer := ds.Queries(10, 20)
	eng3, _ := pimmine.NewEngine(pimmine.DefaultConfig())
	jn, err := pimmine.NewJoinerPIM(eng3, ds.X, q, ds.X.N)
	if err != nil {
		t.Fatal(err)
	}
	wantJ, err := pimmine.NewJoiner(ds.X).KNN(outer, 3, false, pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	gotJ, err := jn.KNN(outer, 3, false, pimmine.NewMeter())
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantJ {
		for p := range wantJ[i] {
			if wantJ[i][p].Dist != gotJ[i][p].Dist {
				t.Fatalf("join facade mismatch at row %d", i)
			}
		}
	}
	if _, err := jn.Eps(outer, 0.9, false, pimmine.NewMeter()); err != nil {
		t.Fatal(err)
	}

	// Hamerly through the framework.
	fw, err := pimmine.NewFramework(pimmine.DefaultConfig(), pimmine.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := fw.AccelerateKMeans(ds.X, pimmine.Hamerly, pimmine.KMeansOptions{K: 6, MaxIters: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	std, err := fw.AccelerateKMeans(ds.X, pimmine.Standard, pimmine.KMeansOptions{K: 6, MaxIters: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	initial, _ := pimmine.KMeansInitCenters(ds.X, 6, 2)
	lloyd := std.Baseline.Run(initial, 15, pimmine.NewMeter())
	ham := acc.PIM.Run(initial, 15, pimmine.NewMeter())
	for i := range lloyd.Assign {
		if lloyd.Assign[i] != ham.Assign[i] {
			t.Fatalf("Hamerly-PIM diverges from Lloyd at %d", i)
		}
	}
}

// ExampleNewFramework demonstrates the full accelerate-and-search flow.
func ExampleNewFramework() {
	prof, _ := pimmine.DatasetByName("MSD")
	ds := pimmine.GenerateDataset(prof, 800, 42)
	fw, err := pimmine.NewFramework(pimmine.DefaultConfig(), pimmine.DefaultAlpha)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := fw.AccelerateKNN(ds.X, pimmine.KNNOptions{
		CapacityN: prof.FullN, // paper-scale Theorem 4 sizing
		K:         10,
		Pilot:     ds.Queries(3, 43),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("compressed dimensionality:", acc.S)
	fmt.Println("plan:", acc.Plan.String())
	// Output:
	// compressed dimensionality: 105
	// plan: LBPIM-FNN-105 → ED
}

// ExampleQuantizer shows Theorem 3's error bound shrinking with α.
func ExampleQuantizer() {
	for _, alpha := range []float64{1e3, 1e6} {
		q, _ := pimmine.NewQuantizer(alpha)
		fmt.Printf("alpha=%.0e error bound (d=420): %.2e\n", alpha, q.ErrorBound(420))
	}
	// Output:
	// alpha=1e+03 error bound (d=420): 1.68e+00
	// alpha=1e+06 error bound (d=420): 1.68e-03
}
