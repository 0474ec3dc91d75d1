package exp

import (
	"strconv"
	"strings"
	"testing"
)

// fastSuite shrinks the workloads so the full experiment registry runs in
// seconds.
func fastSuite() *Suite {
	s := NewSuite()
	s.ScaleN = 600
	s.Queries = 2
	return s
}

// Every registered experiment must run and produce a non-empty table.
func TestAllExperimentsRun(t *testing.T) {
	s := fastSuite()
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			tbl, err := Registry[id](s)
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			if out := tbl.String(); !strings.Contains(out, tbl.Title) {
				t.Fatalf("%s: rendering lost the title", id)
			}
			for _, row := range tbl.Rows {
				if len(row) != len(tbl.Header) {
					t.Fatalf("%s: row %v does not match header %v", id, row, tbl.Header)
				}
			}
		})
	}
}

func TestIDsComplete(t *testing.T) {
	want := []string{
		"ext-approx", "ext-cluster", "ext-dbscan", "ext-durable", "ext-fault", "ext-join", "ext-kernels", "ext-motif", "ext-outlier", "ext-route", "ext-scale",
		"fig13a", "fig13b", "fig13c", "fig13d", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig5", "fig6", "fig7", "table1", "table5",
		"table6", "table7",
	}
	got := IDs()
	if len(got) != len(want) {
		t.Fatalf("registry has %d entries %v, want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("IDs() = %v, want %v", got, want)
		}
	}
}

// Shape assertions against the paper (DESIGN.md §6): who wins and how the
// ordering falls, on the fast suite.
func TestFig13aShapes(t *testing.T) {
	s := fastSuite()
	tbl, err := Fig13a(s)
	if err != nil {
		t.Fatal(err)
	}
	sp := make(map[string]float64)
	for _, row := range tbl.Rows {
		sp[row[0]] = xCell(t, row[5])
	}
	// PIM never materially loses, wins clearly wherever the bound has
	// pruning power, and GIST benefits least: its Theorem 4 granularity
	// (s=120) is too coarse for the near-white GIST signal — the paper's
	// "slight optimization on GIST" observation.
	for name, v := range sp {
		if v < 0.95 {
			t.Errorf("%s: Standard-PIM materially slower than Standard (%.2fx)", name, v)
		}
	}
	for _, name := range []string{"ImageNet", "MSD", "Trevi"} {
		if sp[name] <= 1.2 {
			t.Errorf("%s: expected a clear PIM win, got %.2fx", name, sp[name])
		}
		if sp["GIST"] >= sp[name] {
			t.Errorf("GIST (%.1fx) should benefit least (%s %.1fx)", sp["GIST"], name, sp[name])
		}
	}
}

func TestFig13cSpeedupDeclinesWithK(t *testing.T) {
	s := fastSuite()
	tbl, err := Fig13c(s)
	if err != nil {
		t.Fatal(err)
	}
	var sp []float64
	for _, row := range tbl.Rows {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		sp = append(sp, v)
	}
	if len(sp) != 3 || sp[0] <= sp[2] {
		t.Fatalf("speedups %v should decline from k=1 to k=100", sp)
	}
}

func TestFig14PIMGainGrowsWithBits(t *testing.T) {
	s := fastSuite()
	tbl, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	var sp []float64
	for _, row := range tbl.Rows {
		v, _ := strconv.ParseFloat(strings.TrimSuffix(row[3], "x"), 64)
		sp = append(sp, v)
	}
	if sp[len(sp)-1] <= sp[0] {
		t.Fatalf("speedups %v should grow with code length", sp)
	}
}

func TestTable7PIMWinsForStandard(t *testing.T) {
	s := fastSuite()
	tbl, err := Table7(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		std, _ := strconv.ParseFloat(row[2], 64)
		stdPIM, _ := strconv.ParseFloat(row[3], 64)
		if stdPIM >= std {
			t.Errorf("%s k=%s: Standard-PIM (%.2f) not faster than Standard (%.2f)", row[0], row[1], stdPIM, std)
		}
	}
}

func TestDataCachedAndScaled(t *testing.T) {
	s := fastSuite()
	d1, err := s.Data("MSD")
	if err != nil {
		t.Fatal(err)
	}
	d2, _ := s.Data("MSD")
	if d1 != d2 {
		t.Fatal("dataset must be cached")
	}
	if d1.X.N != 600 {
		t.Fatalf("scaled N = %d, want 600", d1.X.N)
	}
	trevi, err := s.Data("Trevi")
	if err != nil {
		t.Fatal(err)
	}
	if trevi.X.N != 150 {
		t.Fatalf("high-d dataset N = %d, want ScaleN/4", trevi.X.N)
	}
}

// Fig 15's headline: the PIM bound's pruning ratio sits within a point of
// the equal-granularity host bound at 1/70th the per-object transfer.
func TestFig15Shapes(t *testing.T) {
	s := fastSuite()
	tbl, err := Fig15(s)
	if err != nil {
		t.Fatal(err)
	}
	var hostTop, pimRatio float64
	var pimTransfer int
	for _, row := range tbl.Rows {
		ratio, err := strconv.ParseFloat(strings.TrimSuffix(row[1], "%"), 64)
		if err != nil {
			t.Fatalf("bad ratio cell %q", row[1])
		}
		transfer, _ := strconv.Atoi(row[2])
		if strings.HasPrefix(row[0], "LBPIM") {
			pimRatio, pimTransfer = ratio, transfer
		} else if ratio > hostTop {
			hostTop = ratio
		}
	}
	if pimTransfer != 3 {
		t.Fatalf("PIM bound transfer = %d operands, want 3 (Fig 8)", pimTransfer)
	}
	if hostTop-pimRatio > 1.0 {
		t.Fatalf("PIM prune ratio %.1f%% more than a point below host's %.1f%%", pimRatio, hostTop)
	}
}

// Fig 16's headline: the optimized plan is never slower than the default
// PIM plan, which is never slower than the host baseline.
func TestFig16Ordering(t *testing.T) {
	s := fastSuite()
	tbl, err := Fig16(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		fnn, _ := strconv.ParseFloat(row[1], 64)
		pim, _ := strconv.ParseFloat(row[2], 64)
		opt, _ := strconv.ParseFloat(row[3], 64)
		if !(opt <= pim*1.001 && pim <= fnn*1.001) {
			t.Fatalf("k=%s: ordering violated (FNN %.3f, PIM %.3f, opt %.3f)", row[0], fnn, pim, opt)
		}
	}
}

// ext-approx: approximation recall must be imperfect at coarse α and the
// bound-based column must be exactly 1.0 everywhere.
func TestExtApproxShapes(t *testing.T) {
	s := fastSuite()
	tbl, err := ExtApprox(s)
	if err != nil {
		t.Fatal(err)
	}
	first, _ := strconv.ParseFloat(tbl.Rows[0][1], 64)
	if first >= 1 {
		t.Fatalf("coarsest alpha recall = %v; approximation should lose results", first)
	}
	for _, row := range tbl.Rows {
		if row[2] != "1.000" {
			t.Fatalf("bound-based recall %q != 1.000", row[2])
		}
	}
}

// ext-scale: the Standard-PIM speedup must grow monotonically with N.
func TestExtScaleMonotone(t *testing.T) {
	s := fastSuite()
	tbl, err := ExtScale(s)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, row := range tbl.Rows {
		v := xCell(t, row[4])
		if v < prev*0.95 { // allow tiny noise, require growth overall
			t.Fatalf("speedup shrank with N: %v after %v", v, prev)
		}
		prev = v
	}
	if prev < 2 {
		t.Fatalf("largest-scale speedup %vx too small", prev)
	}
}

// xCell parses a speed-up or slowdown cell ("9.0x", "1.00x").
func xCell(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "x"), 64)
	if err != nil {
		t.Fatalf("bad ratio cell %q", cell)
	}
	return v
}

// column is the index of a header cell.
func column(t *testing.T, tbl *Table, name string) int {
	t.Helper()
	for i, h := range tbl.Header {
		if h == name {
			return i
		}
	}
	t.Fatalf("%s: no %q column in %v", tbl.ID, name, tbl.Header)
	return -1
}

// The mining-task extensions: the PIM path wins every row (6.5–25.9× on
// the fast suite), and ext-outlier's wins by computing fewer exact
// distances, not by metering them differently.
func TestExtMiningSpeedups(t *testing.T) {
	s := fastSuite()
	for _, run := range []Runner{ExtOutlier, ExtMotif, ExtJoin, ExtDBSCAN} {
		tbl, err := run(s)
		if err != nil {
			t.Fatal(err)
		}
		sp := column(t, tbl, "Speedup")
		for _, row := range tbl.Rows {
			if v := xCell(t, row[sp]); v <= 1 {
				t.Errorf("%s %s: PIM speedup %.1fx, want > 1.0x", tbl.ID, row[0], v)
			}
		}
		if tbl.ID != "ext-outlier" {
			continue
		}
		ed := column(t, tbl, "ExactDistances(host→PIM)")
		for _, row := range tbl.Rows {
			host, pim, ok := strings.Cut(row[ed], " → ")
			h, herr := strconv.Atoi(host)
			p, perr := strconv.Atoi(pim)
			if !ok || herr != nil || perr != nil {
				t.Fatalf("bad exact-distance cell %q", row[ed])
			}
			if p >= h {
				t.Errorf("%s: PIM computed %d exact distances, host %d", row[0], p, h)
			}
		}
	}
}

// ext-fault: the clean row is the 1.00× baseline, no fault model is
// cheaper than it, and total crossbar failure degrades every shard to the
// host scan (1.00 / 3.94 / 5.92 / 6.21 / 8.93 / 8.93× on the fast suite).
func TestExtFaultShapes(t *testing.T) {
	s := fastSuite()
	tbl, err := ExtFault(s)
	if err != nil {
		t.Fatal(err)
	}
	slow := column(t, tbl, "Slowdown")
	degraded := column(t, tbl, "Degraded shards")
	rows := make(map[string][]string, len(tbl.Rows))
	for _, row := range tbl.Rows {
		rows[row[0]] = row
		if v := xCell(t, row[slow]); v < 1 {
			t.Errorf("%s: slowdown %.2fx below the clean run", row[0], v)
		}
	}
	if got := rows["none"][slow]; got != "1.00x" {
		t.Errorf("none: slowdown %q, want 1.00x", got)
	}
	if got := rows["crossbar fail p=1.0"][degraded]; got != "3/3" {
		t.Errorf("crossbar fail p=1.0: %q degraded shards, want 3/3", got)
	}
}
