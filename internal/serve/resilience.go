// Overload protection: the serve-side wiring of internal/resilience.
// Admission control and deadline-aware shedding are stages of the query
// pipeline (their order and the reasons for it are in pipeline.go); this
// file holds their engine-wide handles and what sits inside a static
// shard's visit — the PIM path behind a circuit breaker with a
// transient-fault retry budget. A breaker refusal merely reroutes the
// shard to its exact host scan, so every admitted query still returns
// exact results.
package serve

import (
	"context"

	"pimmine/internal/arch"
	"pimmine/internal/knn"
	"pimmine/internal/resilience"
	"pimmine/internal/vec"
)

// ErrQueryTimeout marks a query that exceeded the engine-applied
// Options.QueryTimeout, as opposed to the caller's own deadline or
// cancellation. It unwraps to context.DeadlineExceeded, so existing
// errors.Is(err, context.DeadlineExceeded) checks keep holding.
var ErrQueryTimeout error = queryTimeoutError{}

type queryTimeoutError struct{}

func (queryTimeoutError) Error() string { return "serve: engine query timeout exceeded" }
func (queryTimeoutError) Unwrap() error { return context.DeadlineExceeded }
func (queryTimeoutError) Timeout() bool { return true }

// engineResilience holds one engine's overload-protection state. A nil
// *engineResilience (resilience off) keeps the hot path at one pointer
// check per stage; each inner handle is itself nil when its knob is
// disabled.
type engineResilience struct {
	lim   *resilience.Limiter
	shed  *resilience.Shedder
	retry *resilience.RetryBudget
}

// newEngineResilience validates the config and builds the engine-wide
// handles (per-shard breakers are attached by the caller, which owns the
// shards).
func newEngineResilience(cfg *resilience.Config) (*engineResilience, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &engineResilience{
		shed:  resilience.NewShedder(cfg.ShedFactor, cfg.MinShedSamples, cfg.ShedBuckets),
		retry: resilience.NewRetryBudget(cfg.Retry),
	}
	if cfg.MaxConcurrent > 0 {
		r.lim = resilience.NewLimiter(cfg.MaxConcurrent, cfg.MaxQueue)
	}
	return r, nil
}

// admit runs admission control; the returned release is non-nil exactly
// when a slot must be given back.
func (r *engineResilience) admit(ctx context.Context) (release func(), err error) {
	if r == nil || r.lim == nil {
		return nil, nil
	}
	return r.lim.Acquire(ctx)
}

// checkShed sheds a doomed query (nil-safe).
func (r *engineResilience) checkShed(ctx context.Context) error {
	if r == nil {
		return nil
	}
	return r.shed.Check(ctx)
}

// classifyFaults reads a shard attempt's fault/recovery meters
// (internal/fault): the attempt failed if its PIM path hit injected
// faults at all, and the failure is transient — worth a retry — only
// when no dots were lost to dead crossbars (dead hardware does not come
// back; corrected-cell and read-noise envelopes can).
func classifyFaults(m *arch.Meter) (fail, transient bool) {
	t := m.Total()
	fail = t.PIMFaults > 0 || t.PIMRecovered > 0
	transient = t.PIMRecovered == 0
	return fail, transient
}

// search runs one query on the shard through its breaker and retry
// budget, and reports how many transient-fault retries it spent. The
// flow generalizes the one-shot DeadDot fallback of internal/fault into
// a stateful loop: an open breaker serves the exact host scan; a closed
// (or probing) breaker runs the PIM path, retries once on a transient
// fault if the engine-wide budget allows, and reports the final outcome
// back to the breaker.
func (sh *shard) search(ctx context.Context, q []float64, k int) (ans ShardAnswer, retries int) {
	var done func(ok bool)
	if sh.breaker != nil {
		var err error
		done, err = sh.breaker.Allow()
		if err != nil { // resilience.ErrCircuitOpen: reroute, never fail
			nn, m := sh.searchOnce(ctx, q, k, true)
			return ShardAnswer{Neighbors: nn, Meter: m, BreakerOpen: true}, 0
		}
	}
	nn, m := sh.searchOnce(ctx, q, k, false)
	fail, transient := classifyFaults(m)
	if fail && transient && sh.retry.Allow() {
		if resilience.Sleep(ctx, sh.retry.Backoff(0)) == nil {
			retries = 1
			nn2, m2 := sh.searchOnce(ctx, q, k, false)
			fail, _ = classifyFaults(m2)
			m.Merge(m2) // the query really did both attempts' work
			nn = nn2
		}
	}
	if done != nil {
		done(!fail)
	}
	if !fail {
		sh.retry.OnSuccess()
	}
	return ShardAnswer{Neighbors: nn, Meter: m}, retries
}

// searchOnce is one attempt on one path: the shard's configured searcher
// or, when host is set, its exact host-scan fallback. Neighbors come
// back translated to global indices.
func (sh *shard) searchOnce(ctx context.Context, q []float64, k int, host bool) ([]vec.Neighbor, *arch.Meter) {
	m := arch.NewMeter()
	sh.mu.Lock()
	s := sh.searcher
	if host {
		s = sh.host
	}
	nn := knn.SearchTraced(ctx, s, q, k, m)
	sh.meter.Merge(m)
	sh.mu.Unlock()
	for i := range nn {
		nn[i].Index += sh.offset
	}
	return nn, m
}

// BreakerStates returns every shard's breaker state (StateClosed where
// breakers are off or the shard is build-time degraded).
func (e *Engine) BreakerStates() []resilience.State {
	states := make([]resilience.State, len(e.shards))
	for i, sh := range e.shards {
		states[i] = sh.breaker.State()
	}
	return states
}

// BreakerTrips returns the cumulative trip count across all shards.
func (e *Engine) BreakerTrips() int64 {
	var n int64
	for _, sh := range e.shards {
		n += sh.breaker.Trips()
	}
	return n
}
