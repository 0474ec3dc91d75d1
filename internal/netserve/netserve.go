// Package netserve is the network serving front-end: an HTTP/1.1 +
// cleartext-HTTP/2 (h2c) JSON server over the sharded query engine of
// internal/serve, adding the things a wire boundary owes its callers —
// per-tenant token-bucket quotas and weighted-fair queueing (one hot
// tenant cannot starve the host↔PIM transfer budget), a typed-sentinel
// → status-code contract with honest Retry-After hints, streaming NDJSON
// batch responses, per-tenant metrics, and graceful drain (in-flight
// requests complete; new arrivals get an immediate 503).
//
// The wire adds no approximation: a served result is byte-identical to
// the same call against the in-process engine (pinned by the
// differential suite in netserve_test.go — JSON float64 round-trips are
// bit-exact).
package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"time"

	"pimmine/internal/cluster"
	"pimmine/internal/obs"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/standing"
)

// engine is the engine surface the wire layer consumes — satisfied by
// *serve.Engine and *cluster.Engine, so one server fronts the
// single-node (static or mutable) or the multi-node deployment shape.
type engine interface {
	SearchMode(ctx context.Context, q []float64, k int, mode route.Mode) (*serve.Result, error)
	Dims() int
	Rows() int
	NumShards() int
	Router() *route.Router
	Workers() int
	Close() error
}

// subscriber is the standing-query surface of an engine passed as
// Options.Mutable or Options.Cluster.
type subscriber interface {
	SubscribeKNN(q []float64, k int) (*standing.Subscription, error)
	SubscribeRadius(q []float64, radius float64) (*standing.Subscription, error)
	Unsubscribe(id int)
}

// DefaultTenant is the accounting identity of requests that carry no
// tenant (wire field or X-Tenant header).
const DefaultTenant = "default"

// Defaults for the knobs Options leaves zero.
const (
	DefaultMaxK         = 128
	DefaultMaxBatch     = 1024
	DefaultMaxQueue     = 16
	DefaultMaxBodyBytes = 8 << 20
)

// Options configures New.
type Options struct {
	// Engine is the sharded query engine to serve, queries only. The
	// server takes ownership of its shutdown: Drain closes it. Exactly
	// one of Engine, Mutable and Cluster must be set.
	Engine *serve.Engine
	// Mutable serves the same engine type with its subscriptions: the
	// query surface plus POST /v1/subscribe standing-query event streams
	// and "mutable": true in /v1/info (and, when the engine was built
	// with Durability, its WAL semantics — Drain's close flushes the log).
	Mutable *serve.MutableEngine
	// Cluster serves a multi-node placement engine: the same query and
	// subscription surface, with R-way replicated shards failing over
	// behind the wire. Its typed degradation sentinels (no quorum,
	// rebalancing, node down) map to honest 503 verdicts.
	Cluster *cluster.Engine
	// Tenants provisions quotas and fair-queue weights; tenants not
	// listed are admitted with defaults (weight 1, no quota).
	Tenants []TenantConfig
	// Slots is the fair-queue concurrency — how many wire queries may be
	// in the engine at once; defaults to the engine's worker width.
	Slots int
	// MaxQueue bounds each tenant's fair-queue backlog (default 16);
	// beyond it requests are rejected with 429 instead of queueing.
	MaxQueue int
	// MaxK and MaxBatch cap the per-request k and batch size (defaults
	// 128 and 1024); larger requests are 400s.
	MaxK     int
	MaxBatch int
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Obs, when non-nil, registers per-tenant wire metrics with its
	// registry (pim_net_*).
	Obs *obs.Observer
	// Retry shapes the jittered backoff behind Retry-After on 429/503
	// responses; zero values take the resilience defaults.
	Retry resilience.RetryConfig
	// Now is the quota clock (injectable for tests); nil uses time.Now.
	Now func() time.Time
}

// Server serves the engine over HTTP. It implements http.Handler;
// NewHTTPServer wraps it for h2c. Safe for concurrent use.
type Server struct {
	eng   engine
	sub   subscriber      // non-nil when serving Options.Mutable or Options.Cluster
	clu   *cluster.Engine // non-nil when serving Options.Cluster
	opts  Options
	ten   *tenants
	nobs  *netObs
	retry *resilience.RetryBudget // Retry-After backoff source
	mux   *http.ServeMux

	// drainMu gates request starts against Drain: requests hold the read
	// side while registering in wg, so Drain observes every in-flight
	// request and no request starts after the flag flips. drainCh is the
	// broadcast that ends open subscription streams — unlike a search, a
	// stream never finishes on its own, so drain must cancel it.
	drainMu  sync.RWMutex
	draining bool
	drainCh  chan struct{}
	wg       sync.WaitGroup

	closeOnce sync.Once
	closeErr  error
}

// New builds a server over the configured engine.
func New(opts Options) (*Server, error) {
	var eng engine
	var sub subscriber
	set := 0
	if opts.Engine != nil {
		eng = opts.Engine
		set++
	}
	if opts.Mutable != nil {
		eng, sub = opts.Mutable, opts.Mutable
		set++
	}
	if opts.Cluster != nil {
		eng, sub = opts.Cluster, opts.Cluster
		set++
	}
	if set != 1 {
		return nil, fmt.Errorf("netserve: set exactly one of Options.Engine, Options.Mutable and Options.Cluster (%d set)", set)
	}
	if opts.Slots <= 0 {
		opts.Slots = eng.Workers()
	}
	if opts.MaxQueue <= 0 {
		opts.MaxQueue = DefaultMaxQueue
	}
	if opts.MaxK <= 0 {
		opts.MaxK = DefaultMaxK
	}
	if opts.MaxBatch <= 0 {
		opts.MaxBatch = DefaultMaxBatch
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = DefaultMaxBodyBytes
	}
	retryCfg := opts.Retry
	if retryCfg.Ratio <= 0 {
		retryCfg.Ratio = 1 // the budget only shapes backoff here, never gates
	}
	ten, err := newTenants(opts.Slots, opts.MaxQueue, opts.Tenants, opts.Now)
	if err != nil {
		return nil, err
	}
	s := &Server{
		eng:     eng,
		sub:     sub,
		clu:     opts.Cluster,
		opts:    opts,
		ten:     ten,
		retry:   resilience.NewRetryBudget(retryCfg),
		drainCh: make(chan struct{}),
	}
	if opts.Obs != nil {
		s.nobs = newNetObs(s, opts.Obs)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/search", s.handleSearch)
	mux.HandleFunc("POST /v1/search/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.sub != nil {
		mux.HandleFunc("POST /v1/subscribe", s.handleSubscribe)
	}
	s.mux = mux
	return s, nil
}

// ServeHTTP dispatches to the server's routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// NewHTTPServer wraps the server for a listener speaking both HTTP/1.1
// and cleartext HTTP/2 (h2c) — HTTP/2 multiplexes many tenants' streams
// over one connection, which is the shape a fronting proxy speaks.
func (s *Server) NewHTTPServer(addr string) *http.Server {
	p := new(http.Protocols)
	p.SetHTTP1(true)
	p.SetUnencryptedHTTP2(true)
	return &http.Server{Addr: addr, Handler: s, Protocols: p}
}

// Drain begins graceful shutdown: new requests are refused with 503
// immediately, in-flight requests (including open batch streams) run to
// completion, and the engine is closed once the last one finishes.
// Idempotent and safe to call concurrently — every caller returns after
// the same drain completes.
func (s *Server) Drain() error {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		close(s.drainCh) // ends open subscription streams
	}
	s.drainMu.Unlock()
	s.wg.Wait()
	// Close exactly once: a durable mutable engine's Close is where the
	// WAL flush happens, and its second call reports ErrClosed by
	// design — every Drain caller should see the first (real) outcome.
	s.closeOnce.Do(func() { s.closeErr = s.eng.Close() })
	return s.closeErr
}

// isDraining reports whether Drain has begun.
func (s *Server) isDraining() bool {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	return s.draining
}

// begin registers one in-flight request against drain. ok is false —
// and the request must be refused — once drain has begun.
func (s *Server) begin() (done func(), ok bool) {
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining {
		return nil, false
	}
	s.wg.Add(1)
	return s.wg.Done, true
}

// tenantOf resolves the request's accounting identity.
func tenantOf(r *http.Request, field string) string {
	if field != "" {
		return field
	}
	if h := r.Header.Get("X-Tenant"); h != "" {
		return h
	}
	return DefaultTenant
}

// retryAfter computes the client's backoff hint: the quota bucket's
// time-to-next-token when that is the binding constraint, otherwise the
// retry budget's jittered backoff (jitter de-synchronizes a thundering
// herd of 429'd clients).
func (s *Server) retryAfter(wait time.Duration) time.Duration {
	if b := s.retry.Backoff(0); b > wait {
		return b
	}
	return wait
}

// writeError renders err's wire verdict.
func (s *Server) writeError(w http.ResponseWriter, err error, wait time.Duration) {
	v := VerdictFor(err)
	body := ErrorBody{Error: err.Error(), Code: v.Code}
	if v.RetryAfter {
		ra := s.retryAfter(wait)
		body.RetryAfterMs = ra.Milliseconds()
		// Retry-After is whole seconds; round up so the hint never
		// undershoots the bucket refill.
		secs := int64((ra + time.Second - 1) / time.Second)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, v.Status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// readBody slurps the size-capped request body into a buffer sized
// from a declared Content-Length (an undeclared one grows as it
// arrives). A declared length over the cap is refused before a byte is
// read.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > s.opts.MaxBodyBytes {
		return nil, fmt.Errorf("%w: %d bytes declared, limit %d", ErrBodyTooLarge, r.ContentLength, s.opts.MaxBodyBytes)
	}
	var buf bytes.Buffer
	if r.ContentLength > 0 {
		// MinRead spare bytes let ReadFrom see EOF without regrowing.
		buf.Grow(int(r.ContentLength) + bytes.MinRead)
	}
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, fmt.Errorf("%w: limit %d", ErrBodyTooLarge, tooLarge.Limit)
		}
		return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return buf.Bytes(), nil
}

// searchOne is the admission-to-answer path shared by the single and
// batch endpoints: quota → weighted-fair queue → engine. wait is the
// quota's Retry-After hint when err is a quota rejection. mode is the
// already-validated wire routing mode (empty = engine default).
func (s *Server) searchOne(r *http.Request, tenant string, q []float64, k int, mode route.Mode) (resp *QueryResponse, wait time.Duration, err error) {
	s.nobs.noteRequest(tenant)
	start := time.Now()
	release, wait, err := s.ten.admit(r.Context(), tenant)
	if err != nil {
		return nil, wait, err
	}
	res, err := s.eng.SearchMode(r.Context(), q, k, mode)
	release()
	if err != nil {
		return nil, 0, err
	}
	s.nobs.noteOK(tenant, time.Since(start).Seconds())
	return &QueryResponse{
		Neighbors:   toWire(res.Neighbors),
		Degraded:    res.Degraded,
		BreakerOpen: res.BreakerOpen,
		Routed:      routedWire(res.Routed),
	}, 0, nil
}

// handleSearch answers POST /v1/search.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	done, ok := s.begin()
	if !ok {
		s.writeError(w, ErrDraining, 0)
		return
	}
	defer done()
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	req, err := DecodeQueryRequest(body, s.eng.Dims(), s.opts.MaxK)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	tenant := tenantOf(r, req.Tenant)
	resp, wait, err := s.searchOne(r, tenant, req.Query, req.K, route.Mode(req.Mode))
	if err != nil {
		s.nobs.noteRejected(tenant, VerdictFor(err).Code)
		s.writeError(w, err, wait)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleBatch answers POST /v1/search/batch with a streaming NDJSON
// response: one BatchLine per query, written strictly in query order
// and flushed as computed, so a client reads early results while late
// ones are still in the engine. Queries run concurrently up to the
// fair-queue window; admission is per query, so one line can be a typed
// 429 verdict while its neighbors succeed.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	done, ok := s.begin()
	if !ok {
		s.writeError(w, ErrDraining, 0)
		return
	}
	defer done()
	body, err := s.readBody(w, r)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	req, err := DecodeBatchRequest(body, s.eng.Dims(), s.opts.MaxK, s.opts.MaxBatch)
	if err != nil {
		s.writeError(w, err, 0)
		return
	}
	tenant := tenantOf(r, req.Tenant)

	// The in-batch window: enough concurrency to keep the engine busy,
	// never more than the tenant's own backlog bound (a batch must not
	// 429 itself).
	window := s.opts.Slots
	if window > s.opts.MaxQueue {
		window = s.opts.MaxQueue
	}
	if window < 1 {
		window = 1
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	n := len(req.Queries)
	lines := make([]chan BatchLine, n)
	for i := range lines {
		lines[i] = make(chan BatchLine, 1)
	}
	// A client that goes away stops the dispatch: every query launched
	// takes a quota token, so an abandoned batch must not launch the rest.
	ctx := r.Context()
	sem := make(chan struct{}, window)
	go func() {
		for i := 0; i < n; i++ {
			sem <- struct{}{} // a launched query ends soon once ctx is done
			if ctx.Err() != nil {
				return
			}
			go func(i int) {
				defer func() { <-sem }()
				resp, wait, err := s.searchOne(r, tenant, req.Queries[i], req.K, route.Mode(req.Mode))
				if err != nil {
					v := VerdictFor(err)
					s.nobs.noteRejected(tenant, v.Code)
					eb := &ErrorBody{Error: err.Error(), Code: v.Code}
					if v.RetryAfter {
						eb.RetryAfterMs = s.retryAfter(wait).Milliseconds()
					}
					lines[i] <- BatchLine{Index: i, Error: eb}
					return
				}
				lines[i] <- BatchLine{Index: i, Result: resp}
			}(i)
		}
	}()
	enc := json.NewEncoder(w)
	for i := 0; i < n; i++ {
		var line BatchLine
		select {
		case line = <-lines[i]:
		case <-ctx.Done():
			return // client went away; line i may never be launched
		}
		if err := enc.Encode(line); err != nil {
			return // client went away; workers drain into buffered channels
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// handleInfo answers GET /v1/info with the engine's static shape — what
// a client needs to build valid requests.
func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	info := map[string]any{
		"dims":      s.eng.Dims(),
		"rows":      s.eng.Rows(),
		"shards":    s.eng.NumShards(),
		"max_k":     s.opts.MaxK,
		"max_batch": s.opts.MaxBatch,
		"proto":     r.Proto,
		"mutable":   s.sub != nil,
	}
	if s.clu != nil {
		info["cluster"] = map[string]any{
			"nodes":    s.clu.NumNodes(),
			"replicas": s.clu.Replicas(),
			"nodes_up": s.clu.NodesUp(),
		}
	}
	if rt := s.eng.Router(); rt != nil {
		info["routing"] = map[string]any{
			"default_mode":  string(rt.DefaultMode()),
			"modes":         []string{string(route.ModeExact), string(route.ModeApprox)},
			"recall_target": rt.RecallTarget(),
		}
	}
	writeJSON(w, http.StatusOK, info)
}

// handleHealth answers GET /healthz: 200 while serving, the draining
// verdict (503) once Drain has begun.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		s.writeError(w, ErrDraining, 0)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "proto": r.Proto})
}
