package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine/internal/dataset"
	"pimmine/internal/knn"
	"pimmine/internal/vec"
)

var update = flag.Bool("update", false, "rewrite testdata/candidates.golden from the code under test")

// TestCandidateTranscript pins §V-D's offline measurement to the bit:
// every candidate bound AccelerateKNN hands Eq. 13 — the ones the chosen
// plan drops included, which no exported result carries — with its
// measured Pr(B) as Float64bits, on the three dataset profiles of knn's
// decomposed.golden. Written at the commit that still rebuilt every
// candidate's index for the measurement (core.measureKNNCandidates);
// measuring on the indexes the cascades already hold must not move one
// ratio.
func TestCandidateTranscript(t *testing.T) {
	f, err := Default()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	test := dataset.Generate(dataset.Profile{Name: "test", FullN: 300, D: 64, Clusters: 8, Correlation: 0.8, Spread: 0.1}, 300, 42)
	msdProf, err := dataset.ByName("MSD")
	if err != nil {
		t.Fatal(err)
	}
	msd := dataset.Generate(msdProf, 500, 7)
	loose := dataset.Generate(dataset.Profile{Name: "loose", FullN: 10_000_000, D: 256, Clusters: 8, Correlation: 0.2, Spread: 0.3}, 400, 7)
	for _, ds := range []struct {
		label       string
		data, pilot *vec.Matrix
		capacityN   int
	}{
		{"test-300x64", test.X, test.Queries(5, 43), test.X.N},
		{"msd-500x420", msd.X, msd.Queries(3, 8), msdProf.FullN / 4},
		{"loose-400x256", loose.X, loose.Queries(3, 8), 10_000_000},
	} {
		baseline, err := knn.NewFNN(ds.data)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := f.NewEngine()
		if err != nil {
			t.Fatal(err)
		}
		pimAlg, err := knn.NewFNNPIM(eng, ds.data, f.Quant, ds.capacityN)
		if err != nil {
			t.Fatal(err)
		}
		cands, err := knn.Candidates(ds.data, ds.pilot, 10, pimAlg, baseline)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "== %s\n", ds.label)
		for _, c := range cands {
			fmt.Fprintf(&b, "  bound %s family %s transfer %d pim %v prune %016x\n",
				c.Name, c.Family, c.TransferDims, c.PIM, math.Float64bits(c.PruneRatio))
		}
	}
	path := filepath.Join("testdata", "candidates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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
		t.Fatalf("candidates diverge from %s:\n got\n%s want\n%s", path, got, want)
	}
}
