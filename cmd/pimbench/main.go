// Command pimbench regenerates the paper's tables and figures: it runs
// the experiment harness (internal/exp) and prints paper-style rows.
//
// Usage:
//
//	pimbench [-scale N] [-queries Q] [-seed S] [-full] [flags] [ids...]
//
// With no ids, every registered experiment runs. Available ids:
// table1 table5 table6 table7 fig5 fig6 fig7 fig13a-fig13d fig14-fig18,
// plus extensions (ext-*).
// `pimbench ext-fault` sweeps injected crossbar fault severity and prints
// the degradation curve: recall stays exact at every severity while
// faulty/recovered dot counts and modeled latency grow.
// `pimbench ext-durable` crash-recovers a WAL-backed mutable engine after
// every mutation burst and reports replay time vs. log length plus the
// log truncation a checkpoint buys.
// `pimbench ext-route` sweeps shard routing from 2 shards up to -shards,
// and `pimbench ext-cluster` sweeps goodput over 1,2,4,… up to -nodes
// replicated nodes with one node killed mid-run.
// Serving throughput and latency under load are measured wall clock, with
// every answer checked, by the bench/e2e workloads (bench/run.sh).
//
// Flag combinations are validated before anything runs — including
// before the -list early exit: bad -format values, -out without -format
// json, non-positive -scale/-queries, negative sample rates, unknown
// experiment ids and -trace-sample/-hold without -metrics-addr all fail
// fast with exit code 2 and a clear error.
//
// Observability: -metrics-addr starts an HTTP listener serving
// Prometheus text format at /metrics, expvar JSON at /debug/vars and
// sampled query traces at /debug/traces while experiments run;
// -trace-sample R traces one query in R (default 1) and -hold keeps the
// listener up after the experiments finish so the endpoints can be
// scraped interactively.
//
// Machine-readable results: -format json prints JSON tables; -out DIR
// additionally writes one BENCH_<id>.json artifact per experiment (CI
// uploads these from the bench-smoke job).
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pimmine/internal/exp"
	"pimmine/internal/obs"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main minus the process exit, so tests can drive the full flag
// surface and assert exit codes: 0 success, 1 runtime failure, 2 usage
// error. Every usage error — bad flag, bad combination, unknown id —
// must exit non-zero even when combined with -list, so CI scripts can
// trust `pimbench ... && next-step`.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pimbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scale := fs.Int("scale", 2000, "generated rows per dataset (full-scale N still drives Theorem 4)")
	queries := fs.Int("queries", 5, "query batch size for kNN experiments")
	seed := fs.Int64("seed", 1, "generation seed")
	full := fs.Bool("full", false, "run the expensive sweeps (Table 7 k up to 1024)")
	shards := fs.Int("shards", 8, "max shard count for the ext-route sweep (2,4,… up to this)")
	recall := fs.Float64("recall", 0.95, "target recall for the ext-route approximate mode, in (0, 1]")
	nodes := fs.Int("nodes", 8, "max node count for the ext-cluster sweep (1,2,4,… up to this)")
	replicas := fs.Int("replicas", 2, "ext-cluster replication factor (must not exceed -nodes)")
	chaos := fs.Int64("chaos", 42, "seed for the ext-cluster mid-sweep node kill")
	format := fs.String("format", "text", "output format: text|markdown|csv|json")
	outDir := fs.String("out", "", "also write one BENCH_<id>.json artifact per experiment into this directory")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/traces on this address (e.g. :9090)")
	traceSample := fs.Int("trace-sample", 1, "with -metrics-addr: trace one query in N (0 disables tracing)")
	hold := fs.Duration("hold", 0, "with -metrics-addr: keep serving for this long after experiments finish")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	ids := fs.Args()
	if len(ids) == 0 {
		ids = exp.IDs()
	}
	// Validate before the -list early exit: `pimbench -list -scale 0`
	// must fail like any other bad invocation, not silently succeed.
	if err := validateFlags(*scale, *queries, *shards, *recall, *nodes, *replicas, *format, *outDir, *metricsAddr, *traceSample, *hold, ids); err != nil {
		fmt.Fprintln(stderr, "pimbench:", err)
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, strings.Join(exp.IDs(), "\n"))
		return 0
	}

	suite := exp.NewSuite()
	suite.ScaleN = *scale
	suite.Queries = *queries
	suite.Seed = *seed
	suite.Full = *full
	suite.Shards = *shards
	suite.Recall = *recall
	suite.Nodes = *nodes
	suite.Replicas = *replicas
	suite.ChaosSeed = *chaos

	var observer *obs.Observer
	if *metricsAddr != "" {
		observer = obs.New(obs.Config{SampleRate: *traceSample})
		suite.Obs = observer
		srv := &http.Server{Addr: *metricsAddr, Handler: observer.Handler()}
		go func() {
			if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintf(stderr, "pimbench: metrics server: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Fprintf(stderr, "pimbench: observability on http://%s (/metrics /debug/vars /debug/traces)\n", *metricsAddr)
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "pimbench:", err)
			return 1
		}
	}

	for _, id := range ids {
		runner := exp.Registry[id]
		start := time.Now()
		tbl, err := runner(suite)
		if err != nil {
			fmt.Fprintf(stderr, "pimbench: %s: %v\n", id, err)
			return 1
		}
		out, err := tbl.Render(*format)
		if err != nil {
			fmt.Fprintln(stderr, "pimbench:", err)
			return 2
		}
		fmt.Fprint(stdout, out)
		if *format == "text" {
			fmt.Fprintf(stdout, "(wall clock %.1fs)\n", time.Since(start).Seconds())
		}
		fmt.Fprintln(stdout)
		if *outDir != "" {
			js, err := tbl.JSON()
			if err != nil {
				fmt.Fprintln(stderr, "pimbench:", err)
				return 2
			}
			path := filepath.Join(*outDir, "BENCH_"+id+".json")
			if err := os.WriteFile(path, []byte(js), 0o644); err != nil {
				fmt.Fprintln(stderr, "pimbench:", err)
				return 1
			}
			fmt.Fprintf(stderr, "pimbench: wrote %s\n", path)
		}
	}
	if *metricsAddr != "" && *hold > 0 {
		fmt.Fprintf(stderr, "pimbench: holding metrics server for %s\n", *hold)
		time.Sleep(*hold)
	}
	return 0
}

// validateFlags rejects bad flag combinations up front, before any
// experiment spends time running, so a long batch never dies halfway on
// something a startup check could have caught.
func validateFlags(scale, queries, shards int, recall float64, nodes, replicas int, format, outDir, metricsAddr string, traceSample int, hold time.Duration, ids []string) error {
	if scale <= 0 {
		return fmt.Errorf("-scale must be positive, got %d", scale)
	}
	if queries <= 0 {
		return fmt.Errorf("-queries must be positive, got %d", queries)
	}
	if shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", shards)
	}
	if recall <= 0 || recall > 1 {
		return fmt.Errorf("-recall must be in (0, 1], got %v", recall)
	}
	if nodes < 1 {
		return fmt.Errorf("-nodes must be at least 1, got %d", nodes)
	}
	if replicas < 1 {
		return fmt.Errorf("-replicas must be at least 1, got %d", replicas)
	}
	if replicas > nodes {
		return fmt.Errorf("-replicas %d exceeds -nodes %d", replicas, nodes)
	}
	switch format {
	case "text", "markdown", "csv", "json":
	default:
		return fmt.Errorf("unknown -format %q (want text, markdown, csv or json)", format)
	}
	if outDir != "" && format != "json" {
		return fmt.Errorf("-out writes JSON artifacts and requires -format json, got -format %s", format)
	}
	if traceSample < 0 {
		return fmt.Errorf("-trace-sample must be non-negative, got %d", traceSample)
	}
	if metricsAddr == "" {
		if traceSample != 1 {
			return fmt.Errorf("-trace-sample has no effect without -metrics-addr")
		}
		if hold != 0 {
			return fmt.Errorf("-hold has no effect without -metrics-addr")
		}
	}
	if hold < 0 {
		return fmt.Errorf("-hold must be non-negative, got %s", hold)
	}
	for _, id := range ids {
		if _, ok := exp.Registry[id]; !ok {
			return fmt.Errorf("unknown experiment %q (try -list)", id)
		}
	}
	return nil
}
