// Package resilience is the overload-protection layer for the serving
// engines: the mechanisms that keep a PIM-backed kNN service delivering
// useful goodput when offered load or hardware fault rates exceed what
// the substrate can absorb.
//
// Real PIM evaluations stress that near-data throughput collapses
// ungracefully once host↔PIM transfer queues saturate: every admitted
// query still pays the crossbar transfer cost (§V-D's Tcost) whether or
// not it finishes in time, so an engine that accepts everything under
// overload burns its whole transfer budget on queries that time out —
// classic congestion collapse. This package provides four cooperating
// defenses, each orthogonal and individually disableable:
//
//   - Limiter: admission control. A concurrency cap with a bounded wait
//     queue; when both are full, the query is rejected immediately with
//     ErrOverloaded instead of queueing into certain timeout.
//   - Shedder: deadline-aware load shedding. Before any shard work, the
//     query's remaining deadline is compared against the observed p95
//     service time (an obs latency histogram); a query that cannot meet
//     its deadline is shed up front with ErrShedDeadline, spending zero
//     PIM transfer budget on doomed work.
//   - Breaker: a per-shard circuit breaker generalizing the one-shot
//     DeadDot host-scan fallback (internal/fault) into a stateful
//     closed → open → half-open machine driven by the fault/recovery
//     meters. While open, the shard serves the exact host-scan path;
//     half-open probes re-admit PIM traffic once faults subside.
//   - RetryBudget: a token bucket bounding transient-fault retries with
//     jittered backoff, so a fault storm degrades toward the host path
//     instead of amplifying load through retry traffic.
//
// Exactness is never at stake: every admitted query returns exact
// results (an open breaker only reroutes a shard to the host scan); only
// admission is lossy, and a lost query is always a typed error.
package resilience

import (
	"errors"
	"fmt"
	"time"
)

// The typed sentinels. Callers match them with errors.Is.
var (
	// ErrOverloaded reports a query rejected by admission control: the
	// concurrency limit and its wait queue were both full.
	ErrOverloaded = errors.New("resilience: overloaded, query rejected by admission control")
	// ErrCircuitOpen reports a request refused by an open circuit
	// breaker (inside the serving engine this reroutes the shard to the
	// exact host scan rather than surfacing to the caller).
	ErrCircuitOpen = errors.New("resilience: circuit breaker open")
	// ErrShedDeadline reports a query shed before dispatch because its
	// remaining deadline was below the observed service time.
	ErrShedDeadline = errors.New("resilience: deadline too tight, query shed")
)

// Config bundles the four defenses for one serving engine. The zero
// value disables everything; each knob engages independently.
type Config struct {
	// MaxConcurrent caps queries executing at once. 0 disables
	// admission control (and with it MaxQueue).
	MaxConcurrent int
	// MaxQueue bounds queries waiting for a concurrency slot beyond
	// MaxConcurrent. 0 means no waiting: reject as soon as the
	// concurrency cap is reached.
	MaxQueue int
	// ShedFactor engages deadline-aware shedding: a query is shed when
	// its remaining deadline is below ShedFactor × p95 observed service
	// time. 0 disables shedding; 1 is the natural setting.
	ShedFactor float64
	// MinShedSamples is the number of completed queries the latency
	// histogram must hold before shedding engages (default 32) — the
	// p95 of a cold histogram is noise, not a service-time estimate.
	MinShedSamples int
	// Breaker configures the per-shard circuit breakers; the zero value
	// (FailureThreshold 0) disables them.
	Breaker BreakerConfig
	// Retry configures the transient-fault retry budget; the zero value
	// (Ratio 0) disables retries.
	Retry RetryConfig
}

// Default returns a production-shaped config sized to a worker count:
// admission at the batch workers' width with an equal wait queue,
// shedding at 1×p95, breakers tripping after 8 consecutive fault-hit
// queries with a 1s cool-down, and a 5% retry budget.
func Default(workers int) Config {
	if workers < 1 {
		workers = 1
	}
	return Config{
		MaxConcurrent:  workers,
		MaxQueue:       workers,
		ShedFactor:     1,
		MinShedSamples: 32,
		Breaker: BreakerConfig{
			FailureThreshold: 8,
			CoolDown:         time.Second,
			HalfOpenProbes:   3,
		},
		Retry: RetryConfig{
			Ratio:       0.05,
			Burst:       10,
			BaseBackoff: 500 * time.Microsecond,
			MaxBackoff:  8 * time.Millisecond,
		},
	}
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.MaxConcurrent < 0 {
		return fmt.Errorf("resilience: negative MaxConcurrent %d", c.MaxConcurrent)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("resilience: negative MaxQueue %d", c.MaxQueue)
	}
	if c.MaxQueue > 0 && c.MaxConcurrent == 0 {
		return fmt.Errorf("resilience: MaxQueue %d without MaxConcurrent", c.MaxQueue)
	}
	if c.ShedFactor < 0 || c.ShedFactor != c.ShedFactor {
		return fmt.Errorf("resilience: ShedFactor %v outside [0, +inf)", c.ShedFactor)
	}
	if c.MinShedSamples < 0 {
		return fmt.Errorf("resilience: negative MinShedSamples %d", c.MinShedSamples)
	}
	if err := c.Breaker.Validate(); err != nil {
		return err
	}
	return c.Retry.Validate()
}
