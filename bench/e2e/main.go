// Command e2e is the repository's end-to-end benchmark: it drives the
// genuine query path — real loopback HTTP → netserve → cluster/serve →
// knn → pim → crossbar, real engines, real searchers, nothing paced —
// over four named workloads, checks every answer, and reports wall-clock
// end-to-end metrics, a per-layer attribution that sums to them, and the
// paper's modeled time beside both, always labelled. See ../README.md.
//
//	go run -C bench ./e2e [-seed N] [-workload name] [-seconds S] [-out file]
//	go run -C bench ./e2e -compare a.json b.json
//
// With -trace 0 or 1 and one -workload it is the command BENCHMARK.json
// names: the last line of standard output is the driver's JSON object.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

var why = map[string]string{
	wireKNN:      "MSD d=420 N=20000, routed FNN-PIM (ModeExact) behind one POST /v1/search: knn filter-and-refine and the pim integer-dot loop do the work, the wire little",
	wireLight:    "Trevi d=4096 N=64, host FNN behind one POST /v1/search: JSON decode and the HTTP stack dominate, knn does little, so kernel changes must not move it",
	clusterXbar:  "MSD N=64 on a 3-node R=2 cluster of FNN-PIM in ModeSimulate, 8-query NDJSON batches: the only workload through cluster and the bit-plane crossbar.DotAllInto",
	churnDurable: "MSD N=20000 MutableEngine (FNN-PIM, WAL SyncAlways, auto-compaction): one wire reader beside a 200/s open-loop writer, so read gains that cost writes show",
}

// report is what -out writes and -compare reads.
type report struct {
	Seed      int64    `json:"seed"`
	Seconds   float64  `json:"seconds"`
	GoVersion string   `json:"go_version"`
	FlushNote string   `json:"flush_policy"`
	Workloads []result `json:"workloads"`
}

const flushNote = "churn-durable: wal.SyncAlways, one fsync per acknowledged write; fsync latency is this sandbox's file system, not a device"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "the only source of randomness: dataset, queries, write mix")
	name := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", ")+"; empty runs all four")
	seconds := fs.Float64("seconds", 20, "measured seconds per phase")
	trace := fs.Int("trace", -1, "0: end-to-end phase only, 1: traced phase only, -1: both")
	out := fs.String("out", "", "write the report here, and the spans beside it as <out>.spans.jsonl")
	compare := fs.Bool("compare", false, "compare two reports: -compare a.json b.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: e2e -compare a.json b.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	names := workloadNames
	if *name != "" {
		if _, ok := workloads[*name]; !ok {
			fmt.Fprintf(stderr, "unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*name}
	}
	if *seconds <= 0 || *trace < -1 || *trace > 1 || fs.NArg() != 0 {
		fs.Usage()
		return 2
	}
	cfg := config{seed: *seed, seconds: *seconds, scale: 1, tmp: os.TempDir()}
	rep := report{Seed: cfg.seed, Seconds: cfg.seconds, GoVersion: runtime.Version(), FlushNote: flushNote}
	fmt.Fprintf(stdout, "e2e: seed %d, %gs per phase, closed loop over C = 1 connection on pinned GOMAXPROCS, then (par_*) over C = %d on all %d CPUs, %s\n",
		cfg.seed, cfg.seconds, min(runtime.NumCPU(), 4), runtime.NumCPU(), rep.GoVersion)
	code := 0
	for _, n := range names {
		res, err := runWorkload(workloads[n], cfg, *trace)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", n, err)
			return 1
		}
		printResult(stdout, res)
		if _, failed := res.totals(); failed > 0 {
			code = 1
		}
		rep.Workloads = append(rep.Workloads, *res)
	}
	if *out != "" {
		if err := writeReport(*out, &rep); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	if len(names) == 1 && *trace >= 0 {
		if err := printDriverLine(stdout, &rep.Workloads[0], *trace); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}

// runWorkload generates the inputs from the seed and runs the phases.
func runWorkload(w workload, cfg config, trace int) (*result, error) {
	in, err := generate(w, cfg)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: w.name, Why: why[w.name], N: in.x.N, D: in.x.D, GOMAXPROCS: w.procs,
		ParConns: w.parConns(), CPUs: runtime.NumCPU()}
	// Inputs and truth are made with every CPU; the system under test runs
	// on w.procs of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	if trace != 1 {
		if err := endToEndPhase(in, cfg, res); err != nil {
			return nil, fmt.Errorf("end-to-end phase: %w", err)
		}
	}
	if trace != 0 {
		if err := tracedPhase(in, cfg, res); err != nil {
			return nil, fmt.Errorf("traced phase: %w", err)
		}
	}
	return res, nil
}

// driverLine is the object BENCHMARK.json's driver reads from the last
// line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printDriverLine emits every driver-facing metric of the phase that
// ran. A per-layer count of a layer the workload bypasses is 0.
func printDriverLine(w io.Writer, res *result, trace int) error {
	defs, got := endToEnd, res.EndToEnd
	if trace == 1 {
		defs, got = perLayer, res.PerLayer
	}
	line := driverLine{Metrics: map[string]driverValue{}}
	line.Attempted, line.Failed = res.totals()
	line.Correct = line.Failed == 0
	for _, d := range defs {
		if !d.Driver {
			continue
		}
		v, ok := got[d.Name]
		if !ok && d.on(res.Workload) {
			return fmt.Errorf("%s: metric %s was not measured", res.Workload, d.Name)
		}
		line.Metrics[d.Name] = driverValue{Value: v.Value, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

func writeReport(path string, rep *report) error {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return err
	}
	f, err := os.Create(path + ".spans.jsonl")
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, r := range rep.Workloads {
		for _, s := range r.spans {
			if err := enc.Encode(struct {
				Workload string `json:"workload"`
				span
			}{r.Workload, s}); err != nil {
				f.Close()
				return err
			}
		}
	}
	return f.Close()
}
