// Per-tenant observability: tenant-labeled counters, latency
// histograms and scrape-time queue-depth gauges, following the
// engine-side pim_serve_* conventions under a pim_net_* namespace.
package netserve

import (
	"sync"

	"pimmine/internal/obs"
)

// netObs holds the server's registered metric handles. A nil *netObs
// (observability off) keeps the request path at one pointer check; the
// per-tenant handles are registered lazily on each tenant's first
// request.
type netObs struct {
	o *obs.Observer

	mu        sync.Mutex
	perTenant map[string]*tenantMetrics
}

// tenantMetrics is one tenant's handle set.
type tenantMetrics struct {
	requests *obs.Counter
	ok       *obs.Counter
	latency  *obs.Histogram
}

func newNetObs(s *Server, o *obs.Observer) *netObs {
	no := &netObs{
		o:         o,
		perTenant: make(map[string]*tenantMetrics),
	}
	o.Registry().RegisterCollector(s.collectMetrics)
	return no
}

// tenant fetches or registers one tenant's handles.
func (no *netObs) tenant(name string) *tenantMetrics {
	if no == nil {
		return nil
	}
	no.mu.Lock()
	defer no.mu.Unlock()
	tm := no.perTenant[name]
	if tm == nil {
		reg := no.o.Registry()
		lbl := obs.Label{Key: "tenant", Value: name}
		tm = &tenantMetrics{
			requests: reg.Counter("pim_net_requests_total",
				"Wire queries received, per tenant (batch queries count individually).", lbl),
			ok: reg.Counter("pim_net_ok_total",
				"Wire queries answered successfully, per tenant.", lbl),
			latency: reg.Histogram("pim_net_latency_seconds",
				"Wall-clock admission-to-answer latency per wire query.", obs.DefLatencyBuckets(), lbl),
		}
		no.perTenant[name] = tm
	}
	return tm
}

// The note* helpers are nil-safe so the request path never cares
// whether observability is wired in.

func (no *netObs) noteRequest(tenant string) {
	if no == nil {
		return
	}
	no.tenant(tenant).requests.Inc()
}

func (no *netObs) noteOK(tenant string, seconds float64) {
	if no == nil {
		return
	}
	tm := no.tenant(tenant)
	tm.ok.Inc()
	tm.latency.Observe(seconds)
}

// noteRejected counts one refused wire query under its verdict code
// (per-tenant, per-code series registered on first use).
func (no *netObs) noteRejected(tenant, code string) {
	if no == nil {
		return
	}
	no.o.Registry().Counter("pim_net_rejected_total",
		"Wire queries refused, per tenant and verdict code.",
		obs.Label{Key: "tenant", Value: name(tenant)}, obs.Label{Key: "code", Value: code}).Inc()
}

// name guards the label value (empty tenant renders as "default" —
// the same fallback the request path applies).
func name(tenant string) string {
	if tenant == "" {
		return DefaultTenant
	}
	return tenant
}

// collectMetrics emits scrape-time gauges: per-tenant fair-queue depth,
// total in-flight and queued, and the drain flag.
func (s *Server) collectMetrics(emit func(obs.Sample)) {
	for _, n := range s.ten.names() {
		emit(obs.Sample{Name: "pim_net_queued",
			Help: "Requests waiting in the tenant's fair-queue backlog.",
			Type: obs.TypeGauge, Labels: []obs.Label{{Key: "tenant", Value: n}},
			Value: float64(s.ten.fq.Queued(n))})
	}
	emit(obs.Sample{Name: "pim_net_inflight",
		Help: "Wire queries holding a fair-queue slot.",
		Type: obs.TypeGauge, Value: float64(s.ten.fq.InFlight())})
	emit(obs.Sample{Name: "pim_net_queued_total",
		Help: "Requests waiting across all tenant backlogs.",
		Type: obs.TypeGauge, Value: float64(s.ten.fq.QueuedTotal())})
	var draining float64
	if s.isDraining() {
		draining = 1
	}
	emit(obs.Sample{Name: "pim_net_draining",
		Help: "1 while graceful drain is in progress or complete.",
		Type: obs.TypeGauge, Value: draining})
}
