package resilience

import (
	"context"
	"fmt"
	"time"

	"pimmine/internal/obs"
)

// Shedder is the deadline-aware load shedder: it keeps a latency
// histogram of completed-query service times (the same fixed-bucket
// obs.Histogram the metrics endpoint exposes) and, before any shard work
// is dispatched, compares a query's remaining deadline against the
// histogram's interpolated p95. A query whose remaining budget is below
// factor × p95 cannot realistically finish; shedding it up front returns
// a typed error in microseconds and spends none of the PIM transfer
// budget (Eq. 13's Tcost) on doomed work. Safe for concurrent use.
type Shedder struct {
	hist       *obs.Histogram
	factor     float64
	minSamples int64
}

// NewShedder builds a shedder over obs.DefLatencyBuckets; nil is returned
// for a disabled factor (≤ 0), and a nil *Shedder never sheds. minSamples
// defaults to 32.
func NewShedder(factor float64, minSamples int) *Shedder {
	if factor <= 0 {
		return nil
	}
	if minSamples <= 0 {
		minSamples = 32
	}
	return &Shedder{
		hist:       obs.NewHistogram(obs.DefLatencyBuckets()),
		factor:     factor,
		minSamples: int64(minSamples),
	}
}

// Observe records one successful query's service time. Only completed
// queries feed the estimate — shed and rejected queries never ran, and
// folding timeouts in would make the estimator chase its own ceiling.
func (s *Shedder) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.hist.Observe(d.Seconds())
}

// Check sheds a doomed query: with a deadline on ctx and enough samples
// observed, it returns an error matching ErrShedDeadline when the
// remaining deadline is below factor × p95 service time. Queries without
// a deadline, and all queries during warm-up, pass.
func (s *Shedder) Check(ctx context.Context) error {
	if s == nil {
		return nil
	}
	deadline, ok := ctx.Deadline()
	if !ok {
		return nil
	}
	if s.hist.Count() < s.minSamples {
		return nil
	}
	p95 := s.hist.Quantile(0.95)
	need := time.Duration(s.factor * p95 * float64(time.Second))
	if remaining := time.Until(deadline); remaining < need {
		return fmt.Errorf("%w (%s remaining < %.2g×p95 %s)",
			ErrShedDeadline, remaining.Round(time.Microsecond), s.factor,
			time.Duration(p95*float64(time.Second)).Round(time.Microsecond))
	}
	return nil
}

// P95 returns the current p95 service-time estimate and the sample
// count behind it (0, 0 for a nil or empty shedder).
func (s *Shedder) P95() (time.Duration, int64) {
	if s == nil {
		return 0, 0
	}
	n := s.hist.Count()
	if n == 0 {
		return 0, 0
	}
	return time.Duration(s.hist.Quantile(0.95) * float64(time.Second)), n
}
