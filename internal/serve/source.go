package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"pimmine/internal/arch"
	"pimmine/internal/delta"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/resilience"
	"pimmine/internal/vec"
)

// storeSource is the one ShardSource of both serve engines: shard i is
// the delta.Store stores[i]. A visit runs under its shard span, behind
// the shard's breaker and the retry budget (resilience.go), and lands in
// the cumulative meter behind Engine.Meter. Stores are lock-free against
// mutations and compaction, so the mutable engine's churn never blocks a
// visit.
type storeSource struct {
	stores []*delta.Store
	names  []string // span labels, precomputed off the query hot path
	// build constructs shard id's searcher for each epoch; factory wraps
	// it into the store's delta.Factory.
	build    buildFunc
	degraded []atomic.Bool // the shard's current epoch serves the host scan

	// Overload protection: one breaker per shard (nil breakers, which
	// admit everything, unless Options.Resilience configures them) and
	// the engine-wide transient-fault retry budget (nil when off).
	breakers *resilience.BreakerSet
	retry    *resilience.RetryBudget
	eobs     *engineObs // nil when Options.Obs is nil

	mu    sync.Mutex
	meter *arch.Meter // cumulative activity of every shard
}

// newStoreSource makes o.Shards empty shard slots; the engines' builders
// fill them (partition, or RecoverMutable's restore).
func newStoreSource(o *Options, res *engineResilience, build buildFunc) *storeSource {
	s := &storeSource{
		stores:   make([]*delta.Store, o.Shards),
		names:    make([]string, o.Shards),
		build:    build,
		degraded: make([]atomic.Bool, o.Shards),
		meter:    arch.NewMeter(),
	}
	for i := range s.names {
		s.names[i] = fmt.Sprintf("shard %d", i)
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
// healthy build clears the report. A ledger charge stands — the
// programming attempt happened.
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

// partition splits data row-wise into one contiguous range per slot and
// builds each shard's store over its range, aliasing data's rows, with
// the options dopts gives shard id whose first row is global row lo.
func (s *storeSource) partition(data *vec.Matrix, dopts func(id, lo int) (delta.Options, error)) error {
	base, rem := data.N/len(s.stores), data.N%len(s.stores)
	lo := 0
	for id := range s.stores {
		rows := base
		if id < rem {
			rows++
		}
		opts, err := dopts(id, lo)
		if err != nil {
			return err
		}
		if s.stores[id], err = delta.New(data.Slice(lo, lo+rows), opts); err != nil {
			return fmt.Errorf("serve: shard %d: %w", id, err)
		}
		lo += rows
	}
	return nil
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

func (s *storeSource) Visit(ctx context.Context, root *obs.Span, id int, q []float64, k int) (ShardAnswer, error) {
	sp := root.StartChild(s.names[id])
	if s.eobs != nil {
		s.eobs.shardQueries[id].Inc()
	}
	ans, retries, err := s.search(obs.ContextWithSpan(ctx, sp), id, q, k)
	annotateFaults(sp, ans.Meter)
	if ans.BreakerOpen {
		sp.Annotate("breaker-open", obs.A("path", "host-scan"))
		s.eobs.noteBreakerHostServe()
	}
	if retries > 0 {
		sp.Annotate("pim-retry", obs.A("retries", retries))
		s.eobs.noteRetries(retries)
	}
	sp.End()
	return ans, err
}

// once is one attempt on one path of shard id's store — its searcher or,
// when host is set, its exact host scan — metered privately and into the
// cumulative meter.
func (s *storeSource) once(ctx context.Context, id int, q []float64, k int, host bool) ([]vec.Neighbor, *arch.Meter, error) {
	search := (*delta.Store).Search
	if host {
		search = (*delta.Store).SearchHost
	}
	m := arch.NewMeter()
	nn, err := search(s.stores[id], ctx, q, k, m)
	s.mu.Lock()
	s.meter.Merge(m)
	s.mu.Unlock()
	return nn, m, err
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
