package serve

import (
	"fmt"

	"pimmine/internal/arch"
	"pimmine/internal/obs"
	"pimmine/internal/route"
)

// engineObs holds the pipeline's registered metric handles, the same on
// every engine. A nil *engineObs (observability off) keeps the hot path
// at one pointer check.
type engineObs struct {
	o            *obs.Observer
	queries      *obs.Counter
	errors       *obs.Counter
	latency      *obs.Histogram
	inflight     *obs.Gauge
	queueDepth   *obs.Gauge
	shardQueries []*obs.Counter

	// Admission metrics (registered regardless of whether
	// Options.Resilience is set; they just stay zero without it).
	rejected *obs.Counter
	shed     *obs.Counter

	// Routing tier metrics (stay zero without Options.Router).
	routeQueries        *obs.Counter
	routeVisited        *obs.Counter
	routeSkipped        *obs.Counter
	routeAudits         *obs.Counter
	routeLatency        *obs.Histogram
	routeEstRecall      *obs.Histogram
	routeMeasuredRecall *obs.Histogram
}

// recallBuckets resolve estimated/measured recall distributions around
// the targets users actually set.
var recallBuckets = []float64{0.5, 0.8, 0.9, 0.95, 0.99, 1}

// The note* helpers are nil-safe so the resilience pipeline can report
// outcomes without caring whether observability is wired in.

func (eo *engineObs) noteRejected(err error) {
	if eo == nil {
		return
	}
	eo.rejected.Inc()
	eo.o.Event("serve.rejected", obs.A("reason", err.Error()))
}

func (eo *engineObs) noteShed() {
	if eo == nil {
		return
	}
	eo.shed.Inc()
}

// newEngineObs registers a pipeline's metrics over shards shards with the
// observer's registry.
func newEngineObs(o *obs.Observer, shards int) *engineObs {
	reg := o.Registry()
	eo := &engineObs{
		o:       o,
		queries: reg.Counter("pim_serve_queries_total", "Queries answered by the sharded engine."),
		errors:  reg.Counter("pim_serve_query_errors_total", "Queries that returned an error (cancellation, deadline, validation)."),
		latency: reg.Histogram("pim_serve_query_latency_seconds",
			"Wall-clock latency of Engine.Search.", obs.DefLatencyBuckets()),
		inflight:   reg.Gauge("pim_serve_inflight_queries", "Queries currently executing."),
		queueDepth: reg.Gauge("pim_serve_batch_queue_depth", "Batch jobs accepted but not yet started."),
		rejected: reg.Counter("pim_serve_rejected_total",
			"Queries refused by admission control (resilience.ErrOverloaded)."),
		shed: reg.Counter("pim_serve_shed_total",
			"Queries shed because the remaining deadline was below the observed p95 (resilience.ErrShedDeadline)."),
		routeQueries: reg.Counter("pim_route_queries_total",
			"Queries that passed through the shard-routing tier."),
		routeVisited: reg.Counter("pim_route_shards_visited_total",
			"Shards dispatched by routed queries."),
		routeSkipped: reg.Counter("pim_route_shards_skipped_total",
			"Shards routed away (no work at all, not even a host scan)."),
		routeAudits: reg.Counter("pim_route_audits_total",
			"Approximate queries audited against the full fan-out."),
		routeLatency: reg.Histogram("pim_route_decision_seconds",
			"Wall-clock time spent deciding the visit set.", obs.DefLatencyBuckets()),
		routeEstRecall: reg.Histogram("pim_route_est_recall",
			"Router-estimated recall of approximate answers.", recallBuckets),
		routeMeasuredRecall: reg.Histogram("pim_route_measured_recall",
			"Audited (measured) recall of approximate answers.", recallBuckets),
	}
	eo.shardQueries = make([]*obs.Counter, shards)
	for i := range eo.shardQueries {
		eo.shardQueries[i] = reg.Counter("pim_serve_shard_queries_total",
			"Per-shard query fan-out count.", obs.Label{Key: "shard", Value: fmt.Sprint(i)})
	}
	return eo
}

// observe registers what only the store source knows with o (nil-safe):
// its retry and breaker host-scan counters, and the scrape-time
// collectors of shard topology, cumulative meters and resilience state.
func (s *storeSource) observe(o *obs.Observer, router *route.Router, res *engineResilience) {
	reg := o.Registry()
	s.retries = reg.Counter("pim_serve_pim_retries_total",
		"Transient-fault PIM retries spent from the engine retry budget.")
	s.breakerHost = reg.Counter("pim_serve_breaker_host_serves_total",
		"Shard queries served by the exact host scan because the shard's circuit breaker was open.")
	reg.RegisterCollector(func(emit func(obs.Sample)) { collectMetrics(emit, s, router, res) })
	if deg := s.Degraded(); len(deg) > 0 {
		o.Event("serve.degraded-shards", obs.A("shards", fmt.Sprint(deg)))
	}
}

// collectMetrics snapshots scrape-time state: shard topology, the merged
// cumulative arch.Meter (per-function call counts plus aggregate hardware
// activity), and the fault layer's corrected/recovered dot counters.
func collectMetrics(emit func(obs.Sample), src *storeSource, router *route.Router, res *engineResilience) {
	emit(obs.Sample{Name: "pim_serve_shards", Help: "Shard count in effect.",
		Type: obs.TypeGauge, Value: float64(len(src.stores))})
	emit(obs.Sample{Name: "pim_serve_degraded_shards", Help: "Shards serving the host-scan fallback.",
		Type: obs.TypeGauge, Value: float64(len(src.Degraded()))})
	for i, st := range src.stores {
		emit(obs.Sample{Name: "pim_serve_shard_rows", Help: "Rows owned by each shard.",
			Type: obs.TypeGauge, Labels: []obs.Label{{Key: "shard", Value: fmt.Sprint(i)}},
			Value: float64(st.Stats().LiveRows)})
	}

	m := src.cumulative()
	t := m.Total()
	agg := []obs.Sample{
		{Name: "pim_meter_ops_total", Help: "Modeled simple operations (cumulative, all shards)."},
		{Name: "pim_meter_alu_ops_total", Help: "Modeled long-latency ALU operations."},
		{Name: "pim_meter_branches_total", Help: "Modeled data-dependent branches."},
		{Name: "pim_meter_seq_bytes_total", Help: "Modeled bytes streamed sequentially."},
		{Name: "pim_meter_rand_bytes_total", Help: "Modeled bytes fetched randomly."},
		{Name: "pim_meter_pim_cycles_total", Help: "Modeled crossbar compute cycles on the critical path."},
		{Name: "pim_meter_pim_buf_bytes_total", Help: "Modeled PIM buffer-bus traffic bytes."},
		{Name: "pim_faults_total", Help: "PIM dot products corrected through faulty hardware (internal/fault)."},
		{Name: "pim_recovered_total", Help: "PIM dot products lost to dead crossbars and recovered on the host."},
	}
	vals := []int64{t.Ops, t.ALUOps, t.Branches, t.SeqBytes, t.RandBytes,
		t.PIMCycles, t.PIMBufBytes, t.PIMFaults, t.PIMRecovered}
	for i, s := range agg {
		s.Type = obs.TypeCounter
		s.Value = float64(vals[i])
		emit(s)
	}
	for _, fn := range m.Functions() {
		emit(obs.Sample{Name: "pim_meter_calls_total", Help: "Modeled invocations per §IV-B function.",
			Type: obs.TypeCounter, Labels: []obs.Label{{Key: "func", Value: fn}},
			Value: float64(m.Get(fn).Calls)})
	}

	if router != nil {
		emit(obs.Sample{Name: "pim_route_selectivity",
			Help: "Observed lifetime fraction of shards skipped by the routing tier.",
			Type: obs.TypeGauge, Value: router.Selectivity()})
	}

	if res == nil {
		return
	}
	// Resilience state: breaker positions per shard, cumulative trips,
	// limiter occupancy, retry tokens, and the shedder's p95 threshold
	// (in µs — collector values truncate to integers at scrape time).
	for i, st := range src.breakers.States() {
		emit(obs.Sample{Name: "pim_serve_breaker_state",
			Help: "Per-shard circuit breaker state (0 closed, 1 open, 2 half-open).",
			Type: obs.TypeGauge, Labels: []obs.Label{{Key: "shard", Value: fmt.Sprint(i)}},
			Value: float64(st)})
	}
	emit(obs.Sample{Name: "pim_serve_breaker_trips_total",
		Help: "Circuit breaker trips across all shards.",
		Type: obs.TypeCounter, Value: float64(src.breakers.Trips())})
	if lim := res.lim; lim != nil {
		emit(obs.Sample{Name: "pim_serve_admitted_inflight",
			Help: "Queries holding an admission slot.",
			Type: obs.TypeGauge, Value: float64(lim.InFlight())})
		emit(obs.Sample{Name: "pim_serve_admission_queued",
			Help: "Queries waiting in the bounded admission queue.",
			Type: obs.TypeGauge, Value: float64(lim.Queued())})
	}
	if rb := res.retry; rb != nil {
		emit(obs.Sample{Name: "pim_serve_retry_tokens",
			Help: "Retry-budget tokens currently available (floor).",
			Type: obs.TypeGauge, Value: rb.Tokens()})
	}
	if p95, n := res.shed.P95(); n > 0 {
		emit(obs.Sample{Name: "pim_serve_shed_p95_micros",
			Help: "Observed p95 service time the shedder compares deadlines against.",
			Type: obs.TypeGauge, Value: float64(p95.Microseconds())})
	}
}

// annotateFaults attaches fault-recovery events from a query's private
// shard meter to the shard span (nil-safe on both; nothing is attached
// on fault-free queries).
func annotateFaults(sp *obs.Span, m *arch.Meter) {
	if sp == nil || m == nil {
		return
	}
	t := m.Total()
	if t.PIMFaults > 0 || t.PIMRecovered > 0 {
		sp.Annotate("fault-recovery",
			obs.A("corrected_dots", t.PIMFaults),
			obs.A("recovered_dots", t.PIMRecovered))
	}
}
