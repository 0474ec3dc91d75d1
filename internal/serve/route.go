// Shard routing: the serve-side types of internal/route. The routing
// stage itself — two-wave exact, approximate, audit — and the argument
// for why its skips are safe live in pipeline.go.
package serve

import (
	"fmt"

	"pimmine/internal/route"
)

// ErrNoRouter reports an explicit routing mode on an engine built
// without Options.Router.
var ErrNoRouter = fmt.Errorf("serve: explicit routing mode on an engine without a router")

// RouteInfo annotates a routed query's Result.
type RouteInfo struct {
	// Mode is the routing mode that served the query.
	Mode route.Mode
	// Visited and Skipped count shards dispatched and routed away.
	Visited, Skipped int
	// SkippedShards lists the routed-away shard ids (ascending).
	SkippedShards []int
	// EstRecall is the router's estimate of the answer's recall (always
	// 1 in exact mode).
	EstRecall float64
	// Audited marks an approximate query that also searched the skipped
	// shards to measure its true recall; MeasuredRecall is the audited
	// |routed top-k ∩ full top-k| / k (0 when not audited).
	Audited        bool
	MeasuredRecall float64
}

// checkRouter validates a router against the engine shape it is being
// attached to (satellite of the routing tier: disagreement is a typed
// construction-time error, never a query-time failure).
func checkRouter(r *route.Router, shards, dims int) error {
	if r == nil {
		return nil
	}
	if r.NumShards() != shards {
		return fmt.Errorf("serve: %w: router has %d, engine has %d",
			route.ErrShardMismatch, r.NumShards(), shards)
	}
	if r.Dims() != dims {
		return fmt.Errorf("serve: router built over %d dims, dataset has %d", r.Dims(), dims)
	}
	return nil
}
