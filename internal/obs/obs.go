// Package obs is the observability subsystem for the serving engine: a
// concurrency-safe metrics registry (atomic counters, gauges, fixed-bucket
// latency histograms with interpolated quantiles) with Prometheus
// text-format and expvar JSON exposition, plus request-scoped tracing — a
// lightweight span tree recorded per sampled query and kept in a ring
// buffer of recent traces, renderable as a text flame view.
//
// The paper's methodology is measurement-first: §IV profiles algorithms by
// hardware component and §V-D picks execution plans from measured transfer
// costs and pruning ratios. This package extends that philosophy from
// offline profiling to a live system: the serving layer (internal/serve)
// threads a context-carried trace through engine → shard → bound-eval →
// PIM-dot → refine, and the registry wraps the cumulative arch.Meter,
// fault counters and per-shard serve state behind scrape endpoints
// (/metrics, /debug/vars, /debug/traces — see Handler).
//
// Everything is nil-safe: a nil *Observer (and the nil *Span it hands out)
// turns every call into a no-op, so instrumented code pays only a nil
// check when observability is off.
package obs

import (
	"sync"
	"time"
)

// Config configures an Observer.
type Config struct {
	// SampleRate enables head-based trace sampling: 1 traces every query,
	// R > 1 traces one query in R, 0 disables tracing entirely.
	SampleRate int
	// TraceBuffer is the ring-buffer capacity for recent completed traces
	// (default 64).
	TraceBuffer int
}

// Observer bundles a metrics registry with a tracer; it is the single
// handle instrumented layers share. The zero Config yields metrics with
// tracing off.
type Observer struct {
	reg        *Registry
	tracer     *Tracer
	events     *eventRing
	expvarOnce sync.Once
}

// New builds an Observer. Nil-safe consumers may also pass a nil
// *Observer around freely.
func New(cfg Config) *Observer {
	if cfg.TraceBuffer <= 0 {
		cfg.TraceBuffer = 64
	}
	return &Observer{
		reg:    NewRegistry(),
		tracer: NewTracer(cfg.SampleRate, cfg.TraceBuffer),
		events: newEventRing(cfg.TraceBuffer),
	}
}

// Registry returns the metrics registry (nil when o is nil).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// Tracer returns the tracer (nil when o is nil).
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.tracer
}

// Event records a timestamped out-of-band event (plan decisions, shard
// degradations) in a ring shown by the /debug/traces endpoint. No-op on a
// nil Observer.
func (o *Observer) Event(name string, attrs ...Attr) {
	if o == nil {
		return
	}
	o.events.add(Event{Time: time.Now(), Name: name, Attrs: attrs})
}

// Events returns the recent out-of-band events, oldest first.
func (o *Observer) Events() []Event {
	if o == nil {
		return nil
	}
	return o.events.snapshot()
}

// DefLatencyBuckets returns the default query-latency bounds: exponential
// from 50µs to ~6.5s (seconds).
func DefLatencyBuckets() []float64 {
	return ExpBuckets(50e-6, 2, 18)
}

// ExpBuckets returns n ascending bounds start, start·factor, … .
func ExpBuckets(start, factor float64, n int) []float64 {
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n ascending bounds start, start+width, … .
func LinearBuckets(start, width float64, n int) []float64 {
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}
