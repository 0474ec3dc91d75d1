package netserve_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"testing"

	"pimmine/internal/cluster"
	"pimmine/internal/netserve"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/serve"
	"pimmine/internal/standing"
)

// TestStatusMapping pins the full error-chain → status-code contract,
// matching through wrapped chains exactly as the server does. Every
// exported serving sentinel appears; the engine-timeout vs caller-deadline
// distinction (both match context.DeadlineExceeded, only one is the
// engine's fault) is the row most worth guarding.
func TestStatusMapping(t *testing.T) {
	t.Parallel()
	wrap := func(err error) error { return fmt.Errorf("handler: %w", err) }
	cases := []struct {
		name   string
		err    error
		status int
		code   string
		retry  bool
	}{
		{"bad request", wrap(netserve.ErrBadRequest), http.StatusBadRequest, "bad_request", false},
		{"NaN query", wrap(quant.ErrNotFinite), http.StatusBadRequest, "bad_request", false},
		{"out-of-range query", wrap(quant.ErrOutOfRange), http.StatusBadRequest, "bad_request", false},
		{"oversize body", wrap(netserve.ErrBodyTooLarge), http.StatusRequestEntityTooLarge, "body_too_large", false},
		{"mode without router", wrap(serve.ErrNoRouter), http.StatusBadRequest, "no_router", false},
		{"bad subscription", wrap(standing.ErrBadSubscription), http.StatusBadRequest, "bad_subscription", false},
		{"standing closed", wrap(standing.ErrClosed), http.StatusServiceUnavailable, "standing_closed", false},
		{"quota", wrap(resilience.ErrQuotaExceeded), http.StatusTooManyRequests, "quota_exceeded", true},
		{"admission reject", wrap(resilience.ErrOverloaded), http.StatusTooManyRequests, "overloaded", true},
		{"deadline shed", wrap(resilience.ErrShedDeadline), http.StatusTooManyRequests, "shed_deadline", true},
		{"circuit open", wrap(resilience.ErrCircuitOpen), http.StatusServiceUnavailable, "circuit_open", true},
		{"cluster no quorum", wrap(cluster.ErrNoQuorum), http.StatusServiceUnavailable, "no_quorum", true},
		{"cluster rebalancing", wrap(cluster.ErrRebalancing), http.StatusServiceUnavailable, "rebalancing", true},
		{"cluster node down", wrap(cluster.ErrNodeDown), http.StatusServiceUnavailable, "node_down", false},
		{"draining", wrap(netserve.ErrDraining), http.StatusServiceUnavailable, "draining", false},
		{"engine closed", wrap(serve.ErrClosed), http.StatusServiceUnavailable, "engine_closed", false},
		// serve.ErrQueryTimeout unwraps to context.DeadlineExceeded; the
		// mapping must still call it the engine's timeout, not the
		// caller's.
		{"engine query timeout", wrap(serve.ErrQueryTimeout), http.StatusGatewayTimeout, "query_timeout", false},
		{"caller deadline", wrap(context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline_exceeded", false},
		{"client canceled", wrap(context.Canceled), netserve.StatusClientClosed, "client_closed", false},
		{"unmapped error", errors.New("novel failure"), http.StatusInternalServerError, "internal", false},
		{"nil-adjacent unknown", wrap(errors.New("wrapped novel")), http.StatusInternalServerError, "internal", false},
	}
	for _, tc := range cases {
		v := netserve.VerdictFor(tc.err)
		if v.Status != tc.status || v.Code != tc.code || v.RetryAfter != tc.retry {
			t.Errorf("%s: VerdictFor = {%d %q retry=%v}, want {%d %q retry=%v}",
				tc.name, v.Status, v.Code, v.RetryAfter, tc.status, tc.code, tc.retry)
		}
	}

	// The engine timeout must also keep matching the generic deadline —
	// callers with pre-existing errors.Is(err, context.DeadlineExceeded)
	// checks rely on it — while mapping to its own wire verdict.
	if !errors.Is(serve.ErrQueryTimeout, context.DeadlineExceeded) {
		t.Fatal("serve.ErrQueryTimeout no longer matches context.DeadlineExceeded")
	}
}

// TestMappedSentinelsComplete guards the mapping against sentinels added
// without a wire verdict: every sentinel the serving stack exports must
// be present in MappedSentinels, and each must map to itself (not fall
// through to a broader row first).
func TestMappedSentinelsComplete(t *testing.T) {
	t.Parallel()
	// The serving stack's full rejection surface. A new sentinel added to
	// resilience/serve/netserve must be added here AND to the mapping in
	// status.go; forgetting the latter fails the have-check below.
	want := []error{
		netserve.ErrBadRequest,
		quant.ErrNotFinite,
		quant.ErrOutOfRange,
		netserve.ErrBodyTooLarge,
		serve.ErrNoRouter,
		standing.ErrBadSubscription,
		resilience.ErrQuotaExceeded,
		resilience.ErrOverloaded,
		resilience.ErrShedDeadline,
		resilience.ErrCircuitOpen,
		cluster.ErrNoQuorum,
		cluster.ErrRebalancing,
		cluster.ErrNodeDown,
		netserve.ErrDraining,
		serve.ErrClosed,
		standing.ErrClosed,
		serve.ErrQueryTimeout,
		context.DeadlineExceeded,
		context.Canceled,
	}
	have := netserve.MappedSentinels()
	for _, w := range want {
		found := false
		for _, h := range have {
			if errors.Is(w, h) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("sentinel %v has no wire mapping", w)
		}
	}
	if len(have) != len(want) {
		t.Errorf("MappedSentinels has %d rows, this test covers %d — keep them in lockstep", len(have), len(want))
	}
	// No sentinel may be shadowed into a 500.
	for _, h := range have {
		if v := netserve.VerdictFor(fmt.Errorf("deep: %w", h)); v.Status == http.StatusInternalServerError {
			t.Errorf("mapped sentinel %v still renders 500", h)
		}
	}
}
