// Command pimmine runs the library's mining tasks over CSV data, with or
// without the PIM acceleration path.
//
//	pimmine search   -data data.csv -query q.csv -k 10 [-pim]
//	pimmine cluster  -data data.csv -k 8 -algo Yinyang [-pim]
//	pimmine dbscan   -data data.csv -eps 0.3 -minpts 4 [-pim]
//	pimmine outliers -data data.csv -top 5 -k 10 [-pim]
//	pimmine motifs   -series series.csv -w 64 [-pim]
//	pimmine join     -data inner.csv -query outer.csv -k 5 [-pim]
//
// CSV rows are comma-separated float values, one object per line. An
// optional first row of column names is a header; a column headed
// "label" (cmd/datagen -csv writes one) is dropped, and every other
// column is a feature. Values are min-max normalized into [0,1] — the
// range the PIM quantizer requires — before processing; this affine map
// preserves nearest-neighbor and clustering structure. Every command
// reports the mining result plus the modeled time under the paper's
// Table 5 architecture.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pimmine"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "search":
		err = runSearch(args)
	case "cluster":
		err = runCluster(args)
	case "dbscan":
		err = runDBSCAN(args)
	case "outliers":
		err = runOutliers(args)
	case "motifs":
		err = runMotifs(args)
	case "join":
		err = runJoin(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pimmine:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: pimmine <search|cluster|dbscan|outliers|motifs|join> [flags]")
	os.Exit(2)
}

// loadCSV reads a matrix of floats. The first row is a header when none
// of its fields is a number; the column it heads "label" is dropped.
func loadCSV(path string) (*pimmine.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rows [][]float64
	first, label := true, -1 // label: the column headed "label", if any
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for ln := 1; sc.Scan(); ln++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if first {
			first = false
			if isHeader(fields) {
				for i, name := range fields {
					if strings.TrimSpace(name) == "label" {
						label = i
					}
				}
				continue
			}
		}
		if label >= 0 && label < len(fields) {
			fields = append(fields[:label], fields[label+1:]...)
		}
		row := make([]float64, len(fields))
		for i, fv := range fields {
			v, err := strconv.ParseFloat(strings.TrimSpace(fv), 64)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: column %d: %w", path, ln, i+1, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	m, err := fromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// isHeader reports whether no field of a row parses as a number.
func isHeader(fields []string) bool {
	for _, f := range fields {
		if _, err := strconv.ParseFloat(strings.TrimSpace(f), 64); err == nil {
			return false
		}
	}
	return true
}

// checkCounts rejects count flags (-k, -top) below 1, naming the flag.
func checkCounts(fs *flag.FlagSet, names ...string) error {
	for _, name := range names {
		if v := fs.Lookup(name).Value.(flag.Getter).Get().(int); v < 1 {
			return fmt.Errorf("-%s must be at least 1, got %d", name, v)
		}
	}
	return nil
}

func fromRows(rows [][]float64) (*pimmine.Matrix, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("no data rows")
	}
	d := len(rows[0])
	m := &pimmine.Matrix{N: len(rows), D: d, Data: make([]float64, len(rows)*d)}
	for i, r := range rows {
		if len(r) != d {
			return nil, fmt.Errorf("row %d has %d columns, want %d", i+1, len(r), d)
		}
		copy(m.Data[i*d:(i+1)*d], r)
	}
	return m, nil
}

// normalize min-max maps one or more matrices into [0,1] with a shared
// transform (so queries land in the data's space).
func normalize(ms ...*pimmine.Matrix) {
	lo, hi := ms[0].Data[0], ms[0].Data[0]
	for _, m := range ms {
		for _, v := range m.Data {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	span := hi - lo
	if span == 0 {
		span = 1
	}
	for _, m := range ms {
		for i, v := range m.Data {
			x := (v - lo) / span
			if x < 0 {
				x = 0
			} else if x > 1 {
				x = 1
			}
			m.Data[i] = x
		}
	}
}

func report(cfg pimmine.Config, meter *pimmine.Meter, what string) {
	_, t := cfg.TimeMeter(meter)
	fmt.Printf("modeled time (%s): %.3f ms\n", what, t.Total()/1e6)
}

func runSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset CSV")
	queryPath := fs.String("query", "", "query CSV")
	k := fs.Int("k", 10, "neighbors")
	usePIM := fs.Bool("pim", false, "use the PIM-accelerated framework")
	_ = fs.Parse(args)
	if err := checkCounts(fs, "k"); err != nil {
		return err
	}
	if *dataPath == "" || *queryPath == "" {
		return fmt.Errorf("search needs -data and -query")
	}
	data, err := loadCSV(*dataPath)
	if err != nil {
		return err
	}
	queries, err := loadCSV(*queryPath)
	if err != nil {
		return err
	}
	normalize(data, queries)
	cfg := pimmine.DefaultConfig()
	meter := pimmine.NewMeter()
	var searcher pimmine.KNNSearcher = pimmine.NewExactKNN(data)
	if *usePIM {
		fw, err := pimmine.NewFramework(cfg, pimmine.DefaultAlpha)
		if err != nil {
			return err
		}
		acc, err := fw.AccelerateKNN(data, pimmine.KNNOptions{K: *k, Pilot: queries})
		if err != nil {
			return err
		}
		fmt.Printf("plan: %s (s=%d)\n", acc.Plan, acc.S)
		searcher = acc.Optimized
	}
	for qi := 0; qi < queries.N; qi++ {
		nn := searcher.Search(queries.Row(qi), *k, meter)
		fmt.Printf("query %d:", qi)
		for _, n := range nn {
			fmt.Printf(" %d(%.4f)", n.Index, n.Dist)
		}
		fmt.Println()
	}
	report(cfg, meter, searcher.Name())
	return nil
}

func runCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset CSV")
	k := fs.Int("k", 8, "clusters")
	algo := fs.String("algo", "Yinyang", "Standard|Elkan|Hamerly|Drake|Yinyang")
	iters := fs.Int("iters", 50, "max iterations")
	seed := fs.Int64("seed", 1, "init seed")
	usePIM := fs.Bool("pim", false, "use the PIM-assisted variant")
	_ = fs.Parse(args)
	if err := checkCounts(fs, "k"); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("cluster needs -data")
	}
	data, err := loadCSV(*dataPath)
	if err != nil {
		return err
	}
	normalize(data)
	cfg := pimmine.DefaultConfig()
	fw, err := pimmine.NewFramework(cfg, pimmine.DefaultAlpha)
	if err != nil {
		return err
	}
	acc, err := fw.AccelerateKMeans(data, pimmine.KMeansVariant(*algo), pimmine.KMeansOptions{
		K: *k, MaxIters: *iters, Seed: *seed,
	})
	if err != nil {
		return err
	}
	alg := acc.Baseline
	if *usePIM {
		alg = acc.PIM
	}
	initial, err := pimmine.KMeansInitCenters(data, *k, *seed)
	if err != nil {
		return err
	}
	meter := pimmine.NewMeter()
	res := alg.Run(initial, *iters, meter)
	sizes := make([]int, *k)
	for _, a := range res.Assign {
		sizes[a]++
	}
	fmt.Printf("%s: %d iterations (converged=%v), SSE=%.4f, cluster sizes %v\n",
		alg.Name(), res.Iterations, res.Converged, res.SSE, sizes)
	report(cfg, meter, alg.Name())
	return nil
}

func runOutliers(args []string) error {
	fs := flag.NewFlagSet("outliers", flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset CSV")
	top := fs.Int("top", 5, "outliers to report")
	k := fs.Int("k", 10, "k for the kNN-distance score")
	usePIM := fs.Bool("pim", false, "use the PIM-optimized detector")
	_ = fs.Parse(args)
	if err := checkCounts(fs, "top", "k"); err != nil {
		return err
	}
	if *dataPath == "" {
		return fmt.Errorf("outliers needs -data")
	}
	data, err := loadCSV(*dataPath)
	if err != nil {
		return err
	}
	normalize(data)
	cfg := pimmine.DefaultConfig()
	det := pimmine.NewOutlierDetector(data)
	if *usePIM {
		q, err := pimmine.NewQuantizer(pimmine.DefaultAlpha)
		if err != nil {
			return err
		}
		eng, err := pimmine.NewEngine(cfg)
		if err != nil {
			return err
		}
		if det, err = pimmine.NewOutlierDetectorPIM(eng, data, q, data.N); err != nil {
			return err
		}
	}
	meter := pimmine.NewMeter()
	out, err := det.TopN(*top, *k, meter)
	if err != nil {
		return err
	}
	for rank, o := range out {
		fmt.Printf("#%d: row %d (kNN distance %.4f)\n", rank+1, o.Index, o.Score)
	}
	report(cfg, meter, det.Name())
	return nil
}

func runMotifs(args []string) error {
	fs := flag.NewFlagSet("motifs", flag.ExitOnError)
	seriesPath := fs.String("series", "", "single-column CSV time series")
	w := fs.Int("w", 64, "window length")
	k := fs.Int("top", 1, "motifs to report")
	usePIM := fs.Bool("pim", false, "use the PIM-optimized finder")
	_ = fs.Parse(args)
	if err := checkCounts(fs, "top"); err != nil {
		return err
	}
	if *seriesPath == "" {
		return fmt.Errorf("motifs needs -series")
	}
	m, err := loadCSV(*seriesPath)
	if err != nil {
		return err
	}
	series := make([]float64, 0, m.N*m.D)
	series = append(series, m.Data...) // accept one value per line or per cell
	windows, _, err := pimmine.MotifWindows(series, *w)
	if err != nil {
		return err
	}
	cfg := pimmine.DefaultConfig()
	finder := pimmine.NewMotifFinder(windows)
	if *usePIM {
		q, err := pimmine.NewQuantizer(pimmine.DefaultAlpha)
		if err != nil {
			return err
		}
		eng, err := pimmine.NewEngine(cfg)
		if err != nil {
			return err
		}
		if finder, err = pimmine.NewMotifFinderPIM(eng, windows, q, windows.N); err != nil {
			return err
		}
	}
	meter := pimmine.NewMeter()
	motifs, err := finder.TopK(*k, meter)
	if err != nil {
		return err
	}
	for rank, mo := range motifs {
		fmt.Printf("#%d: offsets (%d, %d), distance %.4f\n", rank+1, mo.I, mo.J, mo.Dist)
	}
	report(cfg, meter, finder.Name())
	return nil
}

func runJoin(args []string) error {
	fs := flag.NewFlagSet("join", flag.ExitOnError)
	innerPath := fs.String("data", "", "inner relation CSV")
	outerPath := fs.String("query", "", "outer relation CSV")
	k := fs.Int("k", 5, "neighbors per outer row (kNN join)")
	eps := fs.Float64("eps", 0, "if > 0, run the ε range join instead")
	usePIM := fs.Bool("pim", false, "use the PIM-optimized joiner")
	_ = fs.Parse(args)
	if err := checkCounts(fs, "k"); err != nil {
		return err
	}
	if *innerPath == "" || *outerPath == "" {
		return fmt.Errorf("join needs -data (inner) and -query (outer)")
	}
	inner, err := loadCSV(*innerPath)
	if err != nil {
		return err
	}
	outer, err := loadCSV(*outerPath)
	if err != nil {
		return err
	}
	normalize(inner, outer)
	cfg := pimmine.DefaultConfig()
	joiner := pimmine.NewJoiner(inner)
	if *usePIM {
		q, err := pimmine.NewQuantizer(pimmine.DefaultAlpha)
		if err != nil {
			return err
		}
		eng, err := pimmine.NewEngine(cfg)
		if err != nil {
			return err
		}
		if joiner, err = pimmine.NewJoinerPIM(eng, inner, q, inner.N); err != nil {
			return err
		}
	}
	meter := pimmine.NewMeter()
	if *eps > 0 {
		pairs, err := joiner.Eps(outer, *eps, false, meter)
		if err != nil {
			return err
		}
		fmt.Printf("%d pairs within eps=%.4f\n", len(pairs), *eps)
		for i, p := range pairs {
			if i == 20 {
				fmt.Printf("... (%d more)\n", len(pairs)-20)
				break
			}
			fmt.Printf("  (%d, %d) dist²=%.4f\n", p.R, p.S, p.DistSq)
		}
	} else {
		res, err := joiner.KNN(outer, *k, false, meter)
		if err != nil {
			return err
		}
		for i, nn := range res {
			fmt.Printf("outer %d:", i)
			for _, n := range nn {
				fmt.Printf(" %d(%.4f)", n.Index, n.Dist)
			}
			fmt.Println()
		}
	}
	report(cfg, meter, joiner.Name())
	return nil
}

func runDBSCAN(args []string) error {
	fs := flag.NewFlagSet("dbscan", flag.ExitOnError)
	dataPath := fs.String("data", "", "dataset CSV")
	eps := fs.Float64("eps", 0.3, "neighborhood radius (after [0,1] normalization)")
	minPts := fs.Int("minpts", 4, "density threshold")
	usePIM := fs.Bool("pim", false, "use the PIM-optimized range queries")
	_ = fs.Parse(args)
	if *dataPath == "" {
		return fmt.Errorf("dbscan needs -data")
	}
	data, err := loadCSV(*dataPath)
	if err != nil {
		return err
	}
	normalize(data)
	cfg := pimmine.DefaultConfig()
	c := pimmine.NewDBSCAN(data)
	if *usePIM {
		q, err := pimmine.NewQuantizer(pimmine.DefaultAlpha)
		if err != nil {
			return err
		}
		eng, err := pimmine.NewEngine(cfg)
		if err != nil {
			return err
		}
		if c, err = pimmine.NewDBSCANPIM(eng, data, q, data.N); err != nil {
			return err
		}
	}
	meter := pimmine.NewMeter()
	res, err := c.Run(*eps, *minPts, meter)
	if err != nil {
		return err
	}
	noise := 0
	for _, l := range res.Labels {
		if l < 0 {
			noise++
		}
	}
	fmt.Printf("%s: %d clusters, %d core points, %d noise points\n",
		c.Name(), res.Clusters, res.CorePoints, noise)
	report(cfg, meter, c.Name())
	return nil
}
