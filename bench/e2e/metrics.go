package main

import "slices"

// The metric schema: every number the benchmark reports, by name, with
// its unit, which way is better and — for end-to-end metrics — how far the
// median may worsen before it is a regression. bench/README.md is the
// glossary (which call is timed); BENCHMARK.json repeats the driver-facing
// subset and TestSchema keeps the three in step.

// Workload names; later issues cite these.
const (
	wireKNN      = "wire-knn"
	wireLight    = "wire-light"
	clusterXbar  = "cluster-xbar"
	churnDurable = "churn-durable"
)

var workloadNames = []string{wireKNN, wireLight, clusterXbar, churnDurable}

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen (0 for per-layer metrics, which have none).
	Bound float64
	// Exact marks a metric that must repeat exactly at one seed: -compare
	// treats any difference as a change, whatever Bound says about runs at
	// different seeds.
	Exact bool
	// Modeled marks paper-arithmetic time (internal/arch), never wall clock.
	Modeled bool
	// On lists the workloads that emit the metric; nil means all four.
	On []string
	// Driver marks membership of BENCHMARK.json (see README "What the
	// driver sees"): end-to-end metrics every workload emits, and
	// per-layer metrics that are a real measurement on every workload or
	// a count that is honestly 0 where the layer is bypassed.
	Driver bool
}

func (d metricDef) on(workload string) bool {
	return d.On == nil || slices.Contains(d.On, workload)
}

var (
	notLight    = []string{wireKNN, clusterXbar, churnDurable}
	onlyChurn   = []string{churnDurable}
	onlyCluster = []string{clusterXbar}
	serveOnes   = []string{wireKNN, wireLight, churnDurable}
	spanServe   = []string{wireKNN, wireLight}
)

// endToEnd is what a user of pimserve feels (wall clock), the same three
// load figures again in references — each request over the reference work
// that followed it, which is what repeats on a shared box and so what the
// driver gates on — and the one modeled number a reader of the paper
// checks.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "mem_mb", Unit: "MiB", Better: "lower", Bound: 0.05, Driver: true},
	{Name: "qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: onlyChurn},
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Exact: true},
	{Name: "modeled_query_us", Unit: "us", Better: "lower", Bound: 0, Exact: true, Modeled: true},
	{Name: "qps_refs", Unit: "1/kref", Better: "higher", Bound: 0.25, Driver: true},
	{Name: "query_p50_refs", Unit: "refs", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "query_p95_refs", Unit: "refs", Better: "lower", Bound: 0.25, Driver: true},
	// The same six from the pass over min(CPUs, 4) connections on every CPU.
	{Name: "par_qps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "par_query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "par_query_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "par_qps_refs", Unit: "1/kref", Better: "higher", Bound: 0.25, Driver: true},
	{Name: "par_query_p50_refs", Unit: "refs", Better: "lower", Bound: 0.25, Driver: true},
	{Name: "par_query_p95_refs", Unit: "refs", Better: "lower", Bound: 0.25},
}

// perLayer is one line per thing a single module does. engine.* repeats
// serve.* or cluster.*, whichever engine the workload runs, so the driver
// sees one engine row on every workload.
var perLayer = []metricDef{
	{Name: "netserve.decode_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "netserve.handler_ms", Unit: "ms", Better: "lower", Driver: true},
	{Name: "netserve.self_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "netserve.transport_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "netserve.body_bytes", Unit: "bytes", Better: "lower", Driver: true},
	{Name: "netserve.allocs_per_req", Unit: "count", Better: "lower", Driver: true},
	{Name: "resilience.admit_us", Unit: "us", Better: "lower", Driver: true},

	{Name: "cluster.search_ms", Unit: "ms", Better: "lower", On: onlyCluster},
	{Name: "cluster.self_us", Unit: "us", Better: "lower", On: onlyCluster},
	{Name: "cluster.allocs_per_query", Unit: "count", Better: "lower", On: onlyCluster},
	{Name: "cluster.replica_visits_per_query", Unit: "count", Better: "lower", On: onlyCluster, Driver: true},
	{Name: "serve.search_ms", Unit: "ms", Better: "lower", On: serveOnes},
	{Name: "serve.self_us", Unit: "us", Better: "lower", On: spanServe},
	{Name: "serve.allocs_per_query", Unit: "count", Better: "lower", On: serveOnes},
	{Name: "serve.fanout_skew", Unit: "ratio", Better: "lower", On: spanServe, Driver: true},
	{Name: "serve.write_us", Unit: "us", Better: "lower", On: onlyChurn},
	{Name: "serve.recover_s", Unit: "s", Better: "lower", On: onlyChurn},
	{Name: "engine.search_ms", Unit: "ms", Better: "lower", Driver: true},
	{Name: "engine.allocs_per_query", Unit: "count", Better: "lower", Driver: true},
	{Name: "engine.fanout_speedup", Unit: "ratio", Better: "higher", Driver: true},

	{Name: "route.plan_us", Unit: "us", Better: "lower", On: []string{wireKNN}},
	{Name: "route.shards_visited", Unit: "count", Better: "lower", On: []string{wireKNN}, Driver: true},
	{Name: "route.skip_ratio", Unit: "ratio", Better: "higher", On: []string{wireKNN}, Driver: true},

	{Name: "delta.compactions", Unit: "count", Better: "higher", On: onlyChurn, Driver: true},
	{Name: "delta.max_pause_ms", Unit: "ms", Better: "lower", On: onlyChurn},
	{Name: "delta.fill_mean", Unit: "ratio", Better: "lower", On: onlyChurn, Driver: true},

	{Name: "wal.append_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "wal.fsync_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "wal.fsyncs_per_write", Unit: "ratio", Better: "lower", On: onlyChurn, Driver: true},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", On: onlyChurn, Driver: true},
	{Name: "wal.records_replayed", Unit: "count", Better: "lower", On: onlyChurn, Driver: true},

	{Name: "knn.search_ms", Unit: "ms", Better: "lower", Driver: true},
	{Name: "knn.host_ms", Unit: "ms", Better: "lower", Driver: true},
	{Name: "knn.refined_per_query", Unit: "count", Better: "lower", Driver: true},
	{Name: "knn.prune_ratio", Unit: "ratio", Better: "higher", Driver: true},
	{Name: "knn.allocs_per_search", Unit: "count", Better: "lower", Driver: true},

	{Name: "pim.query_all_ms", Unit: "ms", Better: "lower", Driver: true},
	{Name: "pim.program_s", Unit: "s", Better: "lower", Driver: true},
	{Name: "pim.program_modeled_ms", Unit: "ms", Better: "lower", Modeled: true},
	{Name: "pim.dots_per_query", Unit: "count", Better: "lower", On: notLight, Driver: true},
	{Name: "pim.buf_bytes_per_query", Unit: "bytes", Better: "lower", On: notLight, Driver: true},
	{Name: "pim.cycles_per_query", Unit: "cycles", Better: "lower", Modeled: true, On: notLight, Driver: true},

	{Name: "crossbar.dot_all_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "crossbar.tiles_per_query", Unit: "count", Better: "lower", On: onlyCluster, Driver: true},

	{Name: "vec.int_dot_ns", Unit: "ns", Better: "lower", Driver: true},
	{Name: "vec.sq_euclid_ns", Unit: "ns", Better: "lower", Driver: true},
	{Name: "quant.floor_vec_us", Unit: "us", Better: "lower", Driver: true},

	{Name: "arch.modeled_host_us", Unit: "us", Better: "lower", Modeled: true},
	{Name: "arch.modeled_pim_us", Unit: "us", Better: "lower", Modeled: true, On: notLight},
	{Name: "arch.tcache_share", Unit: "ratio", Better: "lower", Modeled: true, Driver: true},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower", Driver: true},
	{Name: "bench.attrib_residual_ratio", Unit: "ratio", Better: "lower", Driver: true},
	{Name: "bench.client_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "bench.gen_s", Unit: "s", Better: "lower", Driver: true},
	{Name: "bench.ref_us", Unit: "us", Better: "lower", Driver: true},
	{Name: "bench.cpu_share", Unit: "ratio", Better: "higher"},
	{Name: "bench.sched_late_ms", Unit: "ms", Better: "lower", On: onlyChurn},
	{Name: "bench.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.xcheck_ratio", Unit: "ratio", Better: "lower", On: []string{wireKNN}},
}

func findDef(defs []metricDef, name string) (metricDef, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}
