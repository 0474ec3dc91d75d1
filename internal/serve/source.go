package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/vec"
)

// storeSource is the ShardSource of Engine: shard i is
// the delta.Store stores[i]. A visit is one Attempt behind the shard's
// breaker and the retry budget (resilience.go), under the shard span the
// pipeline opened, and lands in the cumulative meter behind
// Engine.Meter. Stores are lock-free against mutations and compaction,
// so churn never blocks a visit.
type storeSource struct {
	stores []*delta.Store
	// build constructs shard id's searcher for each epoch; factory wraps
	// it into the store's delta.Factory.
	build    buildFunc
	degraded []atomic.Bool // the shard's current epoch serves the host scan

	// Overload protection: one breaker per shard (nil breakers, which
	// admit everything, unless Options.Resilience configures them) and
	// the engine-wide transient-fault retry budget (nil when off).
	breakers *resilience.BreakerSet
	retry    *resilience.RetryBudget

	// Registered by observe; nil (and no-op) when Options.Obs is nil.
	retries, breakerHost *obs.Counter

	mu    sync.Mutex
	meter *arch.Meter // cumulative activity of every shard
}

// newStoreSource makes o.Shards empty shard slots; the engine's builders
// fill them (partition, or RecoverMutable's restore).
func newStoreSource(o *Options, res *engineResilience, build buildFunc) *storeSource {
	s := &storeSource{
		stores:   make([]*delta.Store, o.Shards),
		build:    build,
		degraded: make([]atomic.Bool, o.Shards),
		meter:    arch.NewMeter(),
	}
	var breaker resilience.BreakerConfig
	if res != nil {
		breaker, s.retry = o.Resilience.Breaker, res.retry
	}
	s.breakers = resilience.NewBreakerSet(o.Shards, breaker)
	return s
}

// factory is shard id's delta.Factory. Graceful degradation: a failed
// build (e.g. dead crossbars after fault injection) serves the exact
// host scan for that epoch and is reported, never fatal; the next
// healthy build clears the report.
func (s *storeSource) factory(id int) delta.Factory {
	return func(m *vec.Matrix, capacityN int) (knn.Searcher, error) {
		srch, err := s.build(m, id, capacityN)
		s.degraded[id].Store(err != nil)
		if err != nil {
			return knn.NewStandard(m), nil
		}
		return srch, nil
	}
}

// partition builds every shard's store over the rows route.Partition
// places on it — the router's placement, or contiguous ranges when
// unrouted — as a view of data's rows (vec.Matrix.Rows: no copy) whose id
// directory is the shard's ascending id list, with the options dopts gives
// shard id. It returns the placement.
func (s *storeSource) partition(data *vec.Matrix, router *route.Router, dopts func(id int) delta.Options) ([][]int, error) {
	place, err := route.Partition(router, data.N, len(s.stores))
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	for id, ids := range place {
		opts := dopts(id)
		opts.IDs = ids
		if s.stores[id], err = delta.New(data.Rows(ids), opts); err != nil {
			return nil, fmt.Errorf("serve: shard %d: %w", id, err)
		}
	}
	return place, nil
}

func (s *storeSource) NumShards() int     { return len(s.stores) }
func (s *storeSource) Available(int) bool { return true }

// Degraded lists the shards whose current epoch serves the host scan
// (nil when none does).
func (s *storeSource) Degraded() []int {
	var out []int
	for i := range s.degraded {
		if s.degraded[i].Load() {
			out = append(out, i)
		}
	}
	return out
}

// Visit is one Attempt on shard id's store behind its breaker and the
// retry budget. A breaker refusal reroutes the shard to its exact host
// scan, never to an error; a degraded epoch already serves the host scan,
// so it takes neither.
func (s *storeSource) Visit(ctx context.Context, id int, q []float64, k int, ceiling float64) (ShardAnswer, error) {
	st := s.stores[id]
	br, retry := s.breakers.Get(id), s.retry
	if s.degraded[id].Load() {
		br, retry = nil, nil
	}
	ans, retries, err := Attempt(ctx, st.Search, br, retry, q, k, ceiling)
	if errors.Is(err, resilience.ErrCircuitOpen) {
		ans, _, err = Attempt(ctx, st.SearchHost, nil, nil, q, k, ceiling)
		ans.BreakerOpen = true
		s.breakerHost.Inc()
	}
	if retries > 0 {
		obs.SpanFromContext(ctx).Annotate("pim-retry", obs.A("retries", retries))
		s.retries.Add(int64(retries))
	}
	s.mu.Lock()
	s.meter.Merge(ans.Meter)
	s.mu.Unlock()
	return ans, err
}

// cumulative snapshots every shard's activity since the engine was built.
func (s *storeSource) cumulative() *arch.Meter {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.meter.Clone()
}

func closeStores(stores []*delta.Store) {
	for _, st := range stores {
		st.Close()
	}
}
