package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// printResult prints every metric by name with its unit. Modeled numbers
// are labelled as such on every line they appear: host wall clock and the
// paper's arithmetic are never mixed.
func printResult(w io.Writer, res *result) {
	fmt.Fprintf(w, "\n== %s (N=%d, d=%d, GOMAXPROCS %d) ==\n%s\n", res.Workload, res.N, res.D, res.GOMAXPROCS, res.Why)
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	for _, p := range res.Phases {
		fmt.Fprintf(tw, "  phase %s\tattempted %d\tfailed %d\t%s\n", p.Phase, p.Attempted, p.Failed, p.FirstErr)
	}
	tw.Flush()
	section := func(title string, defs []metricDef, got map[string]value) {
		if len(got) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		for _, d := range defs {
			v, ok := got[d.Name]
			if !ok {
				continue
			}
			label := "wall"
			switch {
			case d.Modeled:
				label = "MODELED"
			case d.Unit == "count" || d.Unit == "ratio" || d.Unit == "bytes" || d.Unit == "MiB":
				label = ""
			}
			extra := fmt.Sprintf("n=%d", v.Samples)
			if d.Bound > 0 || d.Exact {
				extra += fmt.Sprintf("  %s is better, bound %g%%, spread %.1f%%", d.Better, 100*d.Bound, 100*v.Spread)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\t%s\n", d.Name, v.Value, d.Unit, label, extra)
		}
		tw.Flush()
	}
	section("end to end (tracing off):", endToEnd, res.EndToEnd)
	section("per layer (traced pass, one connection, and direct probes):", perLayer, res.PerLayer)
	if len(res.Attribution) > 0 {
		fmt.Fprintf(w, "attribution of the traced request (wall, p50 %.4g ms):\n", res.TracedMs)
		tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
		sum := 0.0
		for _, p := range res.Attribution {
			sum += p.Ms
			fmt.Fprintf(tw, "  %s\t%.4g ms\t%.1f%%\n", p.Name, p.Ms, 100*p.Ms/res.TracedMs)
		}
		fmt.Fprintf(tw, "  sum\t%.4g ms\t%.1f%%\n", sum, 100*sum/res.TracedMs)
		tw.Flush()
	}
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// verdict of one (workload, end-to-end metric) pair.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	missing    = "missing"
)

// judge applies a metric's direction and bound to a baseline and a
// candidate value. worse is the candidate's change for the worse as a
// share of the baseline (negative when it got better). A change larger
// than both the bound and the window-to-window spread of either run is a
// regression or an improvement. A smaller one is unchanged — unless the
// spread is wider than the bound, when the runs cannot tell a change of
// the bound's size from noise and the pair is unresolved.
func judge(d metricDef, base, cand value) (verdict string, worse float64) {
	if base.Value == cand.Value {
		return unchanged, 0
	}
	worse = (cand.Value - base.Value) / base.Value // +Inf from a zero baseline (fail_ratio)
	if d.Better == "higher" {
		worse = -worse
	}
	bound, noise := d.Bound, max(base.Spread, cand.Spread)
	if d.Exact {
		bound, noise = 0, 0
	}
	switch limit := max(bound, noise); {
	case worse > limit:
		return regressed, worse
	case worse < -limit:
		return improved, worse
	case noise > bound:
		return unresolved, worse
	}
	return unchanged, worse
}

// compareFiles prints one row per (workload, end-to-end metric) of the
// baseline and exits non-zero on a regression, a higher fail_ratio, or a
// workload or metric the candidate no longer reports. Reports must share
// seed, seconds and every workload's size: the exact metrics only repeat
// at one seed, and no figure means the same at another N.
func compareFiles(basePath, candPath string, stdout, stderr io.Writer) int {
	base, err := readReport(basePath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cand, err := readReport(candPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if base.Seed != cand.Seed || base.Seconds != cand.Seconds {
		fmt.Fprintf(stderr, "reports differ in seed (%d vs %d) or seconds (%g vs %g): not comparable\n",
			base.Seed, cand.Seed, base.Seconds, cand.Seconds)
		return 2
	}
	byName := map[string]result{}
	for _, r := range cand.Workloads {
		byName[r.Workload] = r
	}
	for _, b := range base.Workloads {
		if c, ok := byName[b.Workload]; ok && (b.N != c.N || b.D != c.D) {
			fmt.Fprintf(stderr, "%s: reports differ in size (N=%d d=%d vs N=%d d=%d): not comparable\n",
				b.Workload, b.N, b.D, c.N, c.D)
			return 2
		}
	}
	tw := tabwriter.NewWriter(stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tunit\tworse by\tbound\tverdict")
	bad := 0
	for _, b := range base.Workloads {
		c, ok := byName[b.Workload]
		if !ok {
			bad++
			fmt.Fprintf(tw, "%s\t(every metric)\t\t\t\t\t\t%s\n", b.Workload, missing)
			continue
		}
		for _, d := range endToEnd {
			bv, ok := b.EndToEnd[d.Name]
			if !ok {
				continue
			}
			cv, ok := c.EndToEnd[d.Name]
			if !ok {
				bad++
				fmt.Fprintf(tw, "%s\t%s\t%.6g\t\t%s\t\t\t%s\n", b.Workload, d.Name, bv.Value, d.Unit, missing)
				continue
			}
			v, worse := judge(d, bv, cv)
			if v == regressed {
				bad++
			}
			bound := d.Bound
			if d.Exact {
				bound = 0
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%g%%\t%s\n",
				b.Workload, d.Name, bv.Value, cv.Value, d.Unit, 100*worse, 100*bound, v)
		}
	}
	tw.Flush()
	if bad > 0 {
		fmt.Fprintf(stdout, "%d regressed or missing\n", bad)
		return 1
	}
	return 0
}
