// Typed-sentinel → HTTP status mapping. Every error the serving stack
// can produce has a deliberate wire verdict; anything unmapped is a 500
// so a future sentinel added without a mapping is loudly visible (the
// table-driven status test walks MappedSentinels for exactly that).
package netserve

import (
	"context"
	"errors"
	"net/http"

	"pimmine/internal/cluster"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/serve"
	"pimmine/internal/standing"
)

// ErrDraining reports a request that arrived after graceful drain
// began: in-flight work completes, new arrivals get an immediate 503 so
// load balancers fail over instead of queueing into a dying process.
var ErrDraining = errors.New("netserve: server draining")

// ErrBodyTooLarge reports a request body over Options.MaxBodyBytes,
// declared by Content-Length or found while reading. It maps to HTTP
// 413: the body's size is what is wrong, whatever is in it.
var ErrBodyTooLarge = errors.New("netserve: request body too large")

// StatusClientClosed is nginx's non-standard 499 "client closed
// request": the caller canceled, nothing to retry.
const StatusClientClosed = 499

// Verdict is one error's wire mapping.
type Verdict struct {
	// Status is the HTTP status code.
	Status int
	// Code is the machine-readable error name in the JSON body.
	Code string
	// RetryAfter reports whether the response carries a Retry-After
	// computed from the retry budget's jittered backoff.
	RetryAfter bool
}

// mapping is one sentinel's row; order matters — more specific chains
// first (serve.ErrQueryTimeout unwraps to context.DeadlineExceeded, so
// it must be matched before the generic deadline row).
type mapping struct {
	sentinel error
	verdict  Verdict
}

// orderedMappings is the wire contract. 4xx/5xx semantics:
//
//	400  the request itself is malformed (bad JSON, dims, k, NaN/Inf)
//	413  the request body is over the size cap
//	429  the request was fine but refused by quota, admission or shed —
//	     retryable after backing off (Retry-After is set)
//	499  the client went away first
//	503  the server is going away (drain, closed engine) — fail over
//	504  the query was admitted but its deadline elapsed mid-flight
var orderedMappings = []mapping{
	{ErrBadRequest, Verdict{http.StatusBadRequest, "bad_request", false}},
	{quant.ErrNotFinite, Verdict{http.StatusBadRequest, "bad_request", false}},
	{quant.ErrOutOfRange, Verdict{http.StatusBadRequest, "bad_request", false}},
	{ErrBodyTooLarge, Verdict{http.StatusRequestEntityTooLarge, "body_too_large", false}},
	// An explicit routing mode against an engine without a router is a
	// client error: the client asked for a capability this deployment
	// does not have (GET /v1/info advertises it).
	{serve.ErrNoRouter, Verdict{http.StatusBadRequest, "no_router", false}},
	{standing.ErrBadSubscription, Verdict{http.StatusBadRequest, "bad_subscription", false}},
	{resilience.ErrQuotaExceeded, Verdict{http.StatusTooManyRequests, "quota_exceeded", true}},
	{resilience.ErrOverloaded, Verdict{http.StatusTooManyRequests, "overloaded", true}},
	{resilience.ErrShedDeadline, Verdict{http.StatusTooManyRequests, "shed_deadline", true}},
	{resilience.ErrCircuitOpen, Verdict{http.StatusServiceUnavailable, "circuit_open", true}},
	// Cluster degradation: no-quorum and rebalancing heal via
	// anti-entropy repair, so retrying is honest advice; a node the
	// operator addressed directly being down is not something a
	// client retry fixes, so no Retry-After there.
	{cluster.ErrNoQuorum, Verdict{http.StatusServiceUnavailable, "no_quorum", true}},
	{cluster.ErrRebalancing, Verdict{http.StatusServiceUnavailable, "rebalancing", true}},
	{cluster.ErrNodeDown, Verdict{http.StatusServiceUnavailable, "node_down", false}},
	{ErrDraining, Verdict{http.StatusServiceUnavailable, "draining", false}},
	{serve.ErrClosed, Verdict{http.StatusServiceUnavailable, "engine_closed", false}},
	{standing.ErrClosed, Verdict{http.StatusServiceUnavailable, "standing_closed", false}},
	// ErrQueryTimeout unwraps to context.DeadlineExceeded; its row must
	// come first or every engine timeout would report as the generic
	// caller deadline.
	{serve.ErrQueryTimeout, Verdict{http.StatusGatewayTimeout, "query_timeout", false}},
	{context.DeadlineExceeded, Verdict{http.StatusGatewayTimeout, "deadline_exceeded", false}},
	{context.Canceled, Verdict{StatusClientClosed, "client_closed", false}},
}

// MappedSentinels returns every sentinel with an explicit wire verdict,
// in matching order. The status-mapping test walks this list against
// the serving packages' exported sentinels so a sentinel added without a wire
// mapping fails loudly instead of silently becoming a 500.
func MappedSentinels() []error {
	out := make([]error, len(orderedMappings))
	for i, m := range orderedMappings {
		out[i] = m.sentinel
	}
	return out
}

// VerdictFor maps an error chain to its wire verdict via errors.Is in
// declaration order; unmapped errors are a 500 "internal".
func VerdictFor(err error) Verdict {
	for _, m := range orderedMappings {
		if errors.Is(err, m.sentinel) {
			return m.verdict
		}
	}
	return Verdict{http.StatusInternalServerError, "internal", false}
}
