// Wire format: the JSON request/response types of the network serving
// front-end, and the strict decoders that gate what reaches the engine.
// Decoding is deliberately a pure function of the request bytes plus the
// engine's static shape (dims, caps) so it can be fuzzed in isolation
// (FuzzDecode{Query,Batch,Subscribe}Request) and so a malformed request
// is rejected with a typed error before it costs any admission or
// crossbar budget.
//
// The decoders run on the scanner in wirescan.go. Against the
// encoding/json decoding they replaced (kept in oracle_test.go as the
// fuzz targets' reference) they accept nothing new, give every field of
// an accepted body the same value, and refuse four things it took:
// trailing ']' or '}' after the body, null as a vector element (it was
// served as 0.0), keys that differ from the field name in case
// ("Query", "K"), and a repeated key (the last one won).
package netserve

import (
	"errors"
	"fmt"

	"pimmine/internal/quant"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// ErrBadRequest marks a request rejected at the wire boundary —
// malformed JSON, missing or mis-shaped fields, out-of-cap k or batch
// size, or query values the quantization contract refuses
// (quant.ErrNotFinite / quant.ErrOutOfRange wrap it alongside). It maps
// to HTTP 400.
var ErrBadRequest = errors.New("netserve: bad request")

// QueryRequest is the body of POST /v1/search.
type QueryRequest struct {
	// Tenant identifies the caller for quota and fairness accounting;
	// empty falls back to the X-Tenant header, then to "default".
	Tenant string `json:"tenant,omitempty"`
	// Query is the kNN query vector, normalized into [0,1] like every
	// dataset this engine serves (the §V-B quantization contract).
	Query []float64 `json:"query"`
	// K is the neighbor count, 1..MaxK.
	K int `json:"k"`
	// Mode selects the shard-routing mode: "exact", "approx", or empty
	// for the engine's default. Anything else is a 400; an explicit mode
	// against an engine without a router is a 400 too.
	Mode string `json:"mode,omitempty"`
}

// BatchRequest is the body of POST /v1/search/batch.
type BatchRequest struct {
	Tenant  string      `json:"tenant,omitempty"`
	Queries [][]float64 `json:"queries"`
	K       int         `json:"k"`
	Mode    string      `json:"mode,omitempty"`
}

// NeighborWire is one kNN result on the wire. Dist round-trips through
// JSON bit-exactly: encoding/json renders float64 in shortest form,
// which strconv parses back to the identical bits — the property the
// differential suite pins.
type NeighborWire struct {
	Index int     `json:"index"`
	Dist  float64 `json:"dist"`
}

// QueryResponse is one query's answer on the wire.
type QueryResponse struct {
	Neighbors []NeighborWire `json:"neighbors"`
	// Degraded and BreakerOpen surface the engine's exactness-preserving
	// fallbacks (results are still exact; only throughput modeling
	// degrades).
	Degraded    []int `json:"degraded,omitempty"`
	BreakerOpen []int `json:"breaker_open,omitempty"`
	// Routed surfaces the routing tier's annotation on routed engines
	// (absent when the engine has no router).
	Routed *RoutedWire `json:"routed,omitempty"`
}

// RoutedWire is serve.RouteInfo on the wire.
type RoutedWire struct {
	Mode          string  `json:"mode"`
	Visited       int     `json:"visited"`
	Skipped       int     `json:"skipped"`
	SkippedShards []int   `json:"skipped_shards,omitempty"`
	EstRecall     float64 `json:"est_recall"`
	// Audited/MeasuredRecall report the periodic recall audit of
	// approximate queries (Config.AuditEvery).
	Audited        bool    `json:"audited,omitempty"`
	MeasuredRecall float64 `json:"measured_recall,omitempty"`
}

// routedWire converts the engine annotation to the wire form.
func routedWire(ri *serve.RouteInfo) *RoutedWire {
	if ri == nil {
		return nil
	}
	return &RoutedWire{
		Mode: string(ri.Mode), Visited: ri.Visited, Skipped: ri.Skipped,
		SkippedShards: ri.SkippedShards, EstRecall: ri.EstRecall,
		Audited: ri.Audited, MeasuredRecall: ri.MeasuredRecall,
	}
}

// BatchLine is one NDJSON line of the streaming batch response: either
// a result or a per-query error, tagged with the query's index so the
// stream stays self-describing even though lines are written in order.
type BatchLine struct {
	Index  int            `json:"index"`
	Result *QueryResponse `json:"result,omitempty"`
	Error  *ErrorBody     `json:"error,omitempty"`
}

// ErrorBody is the JSON error envelope (also the non-200 response
// body). Code is the machine-readable name from the sentinel mapping in
// status.go.
type ErrorBody struct {
	Error        string `json:"error"`
	Code         string `json:"code"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// checkQuery validates one query vector against the engine shape: the
// dimensionality must match and every value must satisfy the
// quantization contract (finite, in [0,1]) — quant.Check's typed errors
// ride along so callers can distinguish NaN/Inf from out-of-range.
func checkQuery(q []float64, dims int) error {
	if len(q) != dims {
		return fmt.Errorf("%w: query has %d dims, dataset has %d", ErrBadRequest, len(q), dims)
	}
	if err := quant.CheckVec(q); err != nil {
		return fmt.Errorf("%w: %w", ErrBadRequest, err)
	}
	return nil
}

func checkK(k, maxK int) error {
	if k < 1 || k > maxK {
		return fmt.Errorf("%w: k %d outside 1..%d", ErrBadRequest, k, maxK)
	}
	return nil
}

// checkMode validates a wire routing-mode string strictly: only "",
// "exact" and "approx" pass (route.ParseMode owns the vocabulary).
func checkMode(mode string) (route.Mode, error) {
	m, err := route.ParseMode(mode)
	if err != nil {
		return route.ModeAuto, fmt.Errorf("%w: %v", ErrBadRequest, err)
	}
	return m, nil
}

// DecodeQueryRequest parses and validates a single-query body. It is a
// pure function of (data, dims, maxK) — the fuzz target.
func DecodeQueryRequest(data []byte, dims, maxK int) (*QueryRequest, error) {
	var req QueryRequest
	s := scanner{data: data, dims: dims}
	err := s.object(field{"tenant", &req.Tenant}, field{"query", &req.Query}, field{"k", &req.K}, field{"mode", &req.Mode})
	if err == nil {
		err = req.validate(dims, maxK)
	}
	if err != nil {
		return nil, err
	}
	return &req, nil
}

func (req *QueryRequest) validate(dims, maxK int) error {
	if err := checkK(req.K, maxK); err != nil {
		return err
	}
	if _, err := checkMode(req.Mode); err != nil {
		return err
	}
	return checkQuery(req.Query, dims)
}

// DecodeBatchRequest parses and validates a batch body.
func DecodeBatchRequest(data []byte, dims, maxK, maxBatch int) (*BatchRequest, error) {
	var req BatchRequest
	s := scanner{data: data, dims: dims, maxRows: maxBatch}
	err := s.object(field{"tenant", &req.Tenant}, field{"queries", &req.Queries}, field{"k", &req.K}, field{"mode", &req.Mode})
	if err == nil {
		err = req.validate(dims, maxK, maxBatch)
	}
	if err != nil {
		return nil, err
	}
	return &req, nil
}

func (req *BatchRequest) validate(dims, maxK, maxBatch int) error {
	if err := checkK(req.K, maxK); err != nil {
		return err
	}
	if _, err := checkMode(req.Mode); err != nil {
		return err
	}
	if len(req.Queries) == 0 || len(req.Queries) > maxBatch {
		return fmt.Errorf("%w: batch of %d queries outside 1..%d", ErrBadRequest, len(req.Queries), maxBatch)
	}
	for i, q := range req.Queries {
		if err := checkQuery(q, dims); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
	}
	return nil
}

// toWire converts engine neighbors to the wire form.
func toWire(nn []vec.Neighbor) []NeighborWire {
	out := make([]NeighborWire, len(nn))
	for i, n := range nn {
		out[i] = NeighborWire{Index: n.Index, Dist: n.Dist}
	}
	return out
}
