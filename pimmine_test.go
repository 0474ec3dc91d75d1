package pimmine_test

import (
	"testing"

	"pimmine"
)

// The public facade supports the full documented user journey.
func TestFacadeUserJourney(t *testing.T) {
	prof, err := pimmine.DatasetByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	ds := pimmine.GenerateDataset(prof, 500, 42)
	queries := ds.Queries(3, 43)

	fw, err := pimmine.NewFramework(pimmine.DefaultConfig(), pimmine.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := fw.AccelerateKNN(ds.X, pimmine.KNNOptions{
		CapacityN: prof.FullN,
		K:         10,
		Pilot:     queries,
	})
	if err != nil {
		t.Fatal(err)
	}
	if acc.S != 105 {
		t.Fatalf("MSD Theorem 4 s = %d, want 105", acc.S)
	}
	exact := pimmine.NewExactKNN(ds.X)
	for qi := 0; qi < queries.N; qi++ {
		q := queries.Row(qi)
		want := exact.Search(q, 10, pimmine.NewMeter())
		got := acc.Optimized.Search(q, 10, pimmine.NewMeter())
		for i := range want {
			if got[i].Dist != want[i].Dist {
				t.Fatalf("facade search inexact at query %d pos %d", qi, i)
			}
		}
	}
}

func TestFacadeKMeans(t *testing.T) {
	prof, err := pimmine.DatasetByName("Year")
	if err != nil {
		t.Fatal(err)
	}
	ds := pimmine.GenerateDataset(prof, 400, 7)
	fw, err := pimmine.NewFramework(pimmine.DefaultConfig(), pimmine.DefaultAlpha)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := fw.AccelerateKMeans(ds.X, pimmine.Yinyang, pimmine.KMeansOptions{K: 8, MaxIters: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	initial, err := pimmine.KMeansInitCenters(ds.X, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	std, err := fw.AccelerateKMeans(ds.X, pimmine.Standard, pimmine.KMeansOptions{K: 8, MaxIters: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	lloyd := std.Baseline.Run(initial, 20, pimmine.NewMeter())
	got := acc.PIM.Run(initial, 20, pimmine.NewMeter())
	for i := range lloyd.Assign {
		if lloyd.Assign[i] != got.Assign[i] {
			t.Fatalf("facade k-means diverges from Lloyd at point %d", i)
		}
	}
}

func TestFacadeHamming(t *testing.T) {
	prof, _ := pimmine.DatasetByName("GIST")
	ds := pimmine.GenerateDataset(prof, 300, 5)
	codes := pimmine.SimHash(ds.X, 256, 6)
	eng, err := pimmine.NewEngine(pimmine.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pimScan, err := pimmine.NewHDPIM(eng, codes, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	hostScan := pimmine.NewHDExact(codes)
	q := pimmine.SimHash(ds.Queries(1, 9), 256, 6)[0]
	want := hostScan.Search(q, 5, pimmine.NewMeter())
	got := pimScan.Search(q, 5, pimmine.NewMeter())
	for i := range want {
		if want[i].Dist != got[i].Dist {
			t.Fatalf("HD facade mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}
