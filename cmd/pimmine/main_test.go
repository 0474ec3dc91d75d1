package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pimmine"
	"pimmine/internal/dataset"
)

func writeTemp(t *testing.T, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "data.csv")
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadCSV(t *testing.T) {
	path := writeTemp(t, "1.5,2.5,3\n# comment\n\n4,5,6\n")
	m, err := loadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 2 || m.D != 3 || m.Row(1)[2] != 6 {
		t.Fatalf("loaded %dx%d, row1=%v", m.N, m.D, m.Row(1))
	}
}

// A header row names the columns; only the one headed "label" is
// dropped, and without a header every column is a feature.
func TestLoadCSVDropLabel(t *testing.T) {
	m, err := loadCSV(writeTemp(t, "a,label,b\n1,7,2\n3,9,4\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 2 || m.D != 2 || m.Row(1)[0] != 3 || m.Row(1)[1] != 4 {
		t.Fatalf("loaded %dx%d, row1=%v; want the label column dropped", m.N, m.D, m.Row(1))
	}
	m, err = loadCSV(writeTemp(t, "0.1,0.2,0.3\n0.4,0.5,0.6\n0.9,0.8,0.7\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m.D != 3 || m.Row(2)[2] != 0.7 {
		t.Fatalf("headerless float file: d=%d row2=%v, want every column kept", m.D, m.Row(2))
	}
}

// A cmd/datagen -csv dump loads with the profile's dimensionality.
func TestLoadCSVDatagenDump(t *testing.T) {
	prof, err := dataset.ByName("Year")
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.Generate(prof, 20, 3)
	path := filepath.Join(t.TempDir(), "dump.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m, err := loadCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.N != 20 || m.D != prof.D {
		t.Fatalf("datagen dump loaded %dx%d, want 20x%d", m.N, m.D, prof.D)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	if _, err := loadCSV(filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing file must error")
	}
	if _, err := loadCSV(writeTemp(t, "1,notanumber\n")); err == nil {
		t.Fatal("bad float must error")
	}
	if _, err := loadCSV(writeTemp(t, "1,2\n3\n")); err == nil {
		t.Fatal("ragged rows must error")
	}
	if _, err := loadCSV(writeTemp(t, "# only comments\n")); err == nil {
		t.Fatal("empty data must error")
	}
	if _, err := loadCSV(writeTemp(t, "a,b\n")); err == nil {
		t.Fatal("a header without rows must error")
	}
}

func TestNormalizeSharedTransform(t *testing.T) {
	a := &pimmine.Matrix{N: 1, D: 2, Data: []float64{0, 10}}
	b := &pimmine.Matrix{N: 1, D: 2, Data: []float64{5, 20}}
	normalize(a, b)
	// Global range is [0,20]; 5 → 0.25, 20 → clamped 1.
	if a.Data[0] != 0 || a.Data[1] != 0.5 {
		t.Fatalf("a = %v", a.Data)
	}
	if b.Data[0] != 0.25 || b.Data[1] != 1 {
		t.Fatalf("b = %v", b.Data)
	}
	for _, m := range []*pimmine.Matrix{a, b} {
		for _, v := range m.Data {
			if v < 0 || v > 1 {
				t.Fatalf("value %v outside [0,1]", v)
			}
		}
	}
	// Constant data must not divide by zero.
	c := &pimmine.Matrix{N: 1, D: 2, Data: []float64{3, 3}}
	normalize(c)
}

func TestRunSearchEndToEnd(t *testing.T) {
	data := writeTemp(t, "0,0,0\n1,1,1\n0.1,0.1,0.1\n0.9,0.9,0.9\n")
	query := filepath.Join(t.TempDir(), "q.csv")
	if err := os.WriteFile(query, []byte("0.05,0.05,0.05\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSearch([]string{"-data", data, "-query", query, "-k", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := runSearch([]string{"-data", data}); err == nil {
		t.Fatal("missing -query must error")
	}
}

func TestRunClusterEndToEnd(t *testing.T) {
	rows := ""
	for i := 0; i < 40; i++ {
		if i%2 == 0 {
			rows += "0.1,0.1,0.1,0.1\n"
		} else {
			rows += "0.9,0.9,0.9,0.9\n"
		}
	}
	data := writeTemp(t, rows)
	if err := runCluster([]string{"-data", data, "-k", "2", "-algo", "Standard"}); err != nil {
		t.Fatal(err)
	}
	if err := runCluster([]string{"-data", data, "-k", "2", "-algo", "nope"}); err == nil {
		t.Fatal("unknown algorithm must error")
	}
}

// Every subcommand refuses a count flag below 1 with an error naming the
// flag.
func TestCountFlagsRejectBelowOne(t *testing.T) {
	data := writeTemp(t, "0,0\n1,1\n0.5,0.5\n")
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
		flag string
	}{
		{"search k=0", runSearch, []string{"-data", data, "-query", data, "-k", "0"}, "-k"},
		{"cluster k=0", runCluster, []string{"-data", data, "-k", "0"}, "-k"},
		{"cluster k=-1", runCluster, []string{"-data", data, "-k", "-1"}, "-k"},
		{"outliers top=0", runOutliers, []string{"-data", data, "-top", "0"}, "-top"},
		{"outliers k=0", runOutliers, []string{"-data", data, "-k", "0"}, "-k"},
		{"motifs top=0", runMotifs, []string{"-series", data, "-w", "2", "-top", "0"}, "-top"},
		{"join k=0", runJoin, []string{"-data", data, "-query", data, "-k", "0"}, "-k"},
	} {
		err := tc.run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" must be at least 1") {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.flag)
		}
	}
}
