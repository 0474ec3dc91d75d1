// Overload protection: the serve-side wiring of internal/resilience.
// Admission control and deadline-aware shedding are stages of the query
// pipeline (their order and the reasons for it are in pipeline.go); this
// file holds their engine-wide handles and what sits inside a shard's
// visit, on every engine — Attempt, the PIM path behind a circuit breaker
// with a transient-fault retry budget. A breaker refusal merely reroutes
// the shard (to its exact host scan, or to another replica), so every
// admitted query still returns exact results.
package serve

import (
	"context"

	"pimmine/internal/arch"
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
// handles (per-shard breakers belong to the storeSource).
func newEngineResilience(cfg *resilience.Config) (*engineResilience, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &engineResilience{
		shed:  resilience.NewShedder(cfg.ShedFactor, cfg.MinShedSamples),
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

// Attempt is the one store attempt of every shard visit on every engine:
// storeSource makes it once per shard, cluster.Engine once per replica
// it tries. search — a delta.Store's Search or SearchHost, or a caller's
// wrapper around one — runs with the visit's ceiling (ShardSource.Visit)
// under a private meter behind br (nil admits every call); a refusal
// returns an error matching
// resilience.ErrCircuitOpen before any work. The flow generalizes the
// one-shot DeadDot fallback of internal/fault into a stateful loop: an
// admitted attempt that hits a transient fault is retried once if retry
// allows (nil: never), and the final outcome — ok only without an error
// or a fault meter — goes back to br. retries counts the retries spent.
func Attempt(ctx context.Context, search func(context.Context, []float64, int, float64, *arch.Meter) ([]vec.Neighbor, error),
	br *resilience.Breaker, retry *resilience.RetryBudget, q []float64, k int, ceiling float64) (ans ShardAnswer, retries int, err error) {
	done, err := br.Allow()
	if err != nil {
		return ans, 0, err
	}
	ans.Meter = arch.NewMeter()
	ans.Neighbors, err = search(ctx, q, k, ceiling, ans.Meter)
	fail, transient := classifyFaults(ans.Meter)
	if err == nil && fail && transient && retry.Allow() {
		if resilience.Sleep(ctx, retry.Backoff(0)) == nil {
			retries = 1
			m2 := arch.NewMeter()
			ans.Neighbors, err = search(ctx, q, k, ceiling, m2)
			fail, _ = classifyFaults(m2)
			ans.Meter.Merge(m2) // the query really did both attempts' work
		}
	}
	ok := err == nil && !fail
	done(ok)
	if ok {
		retry.OnSuccess()
	}
	return ans, retries, err
}

// BreakerStates returns every shard's breaker state (StateClosed where
// breakers are off or the shard is build-time degraded).
func (e *Engine) BreakerStates() []resilience.State { return e.src.breakers.States() }

// BreakerTrips returns the cumulative trip count across all shards.
func (e *Engine) BreakerTrips() int64 { return e.src.breakers.Trips() }
