// Package route is the shard-routing tier of the serving engine: a
// per-shard sketch/summary index consulted *before* the fan-out, so a
// query is dispatched only to shards that can contribute to its top-k —
// skipping whole shards (whole crossbar groups) is the cheapest prune
// available, one level above the paper's within-array filter-and-refine.
// NCAM (Lee et al., arXiv:1606.03742) makes the same argument for
// near-data similarity search: the win is in never moving data out of
// arrays that cannot contain results.
//
// Each shard carries two summaries:
//
//   - An admissible geometric summary — per-dimension min/max bounds and
//     the norm range — from which Summary.LowerBound derives a proven
//     lower bound on the squared Euclidean distance from a query to any
//     row the shard holds. This powers *exact* routing: a shard whose
//     lower bound exceeds the current k-th candidate distance is skipped
//     with the same discipline as the paper's Theorems 1–2 bounds, and
//     routed results stay bit-identical to the unrouted engine.
//   - A KMV/SimHash sketch (internal/lsh) — a content-addressed sample
//     of the shard's rows with their binary codes. This powers
//     *approximate* routing: shards are scored by estimated angular
//     similarity mass and visited in descending order until the
//     estimated share of the query's top-k reaches a recall target —
//     the LSH Ensemble move (Zhu et al., PVLDB 2016) of query-time
//     tuned per-partition sketches, trading exactness for latency.
//
// A summary can only skip what placement lets it: contiguous row ranges of
// one distribution give every shard the whole dataset's box and norm
// range. So placement belongs to the router. NewEven places rows by Place,
// an equi-depth split on the norm, and every engine with a router
// partitions by Router.Placement (Partition); an unrouted engine keeps
// contiguous ranges. Ids stay global, so answers and ties do not depend on
// where a row lives.
//
// Summaries stay sound under churn by being conservative: inserts and
// updates only expand a summary (Router.Observe), deletions leave it a
// superset of the live rows (still admissible, merely less tight), and
// compaction rebuilds it tight from the fresh base image
// (Router.Refresh — internal/delta invokes it through Options.OnCompact).
package route

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pimmine/internal/lsh"
	"pimmine/internal/plan"
	"pimmine/internal/vec"
)

// Mode selects how the router treats a query.
type Mode string

const (
	// ModeAuto defers to the router's configured default mode (callers
	// that pass an explicit mode never send it on the wire).
	ModeAuto Mode = ""
	// ModeExact routes with admissible lower bounds only: skipped shards
	// provably cannot contribute, results are bit-identical to the
	// unrouted engine.
	ModeExact Mode = "exact"
	// ModeApprox routes by sketch similarity toward a recall target:
	// lower latency, typed Result annotation, no exactness guarantee.
	ModeApprox Mode = "approx"
)

// ParseMode validates a wire mode string ("", "exact", "approx").
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case ModeAuto, ModeExact, ModeApprox:
		return Mode(s), nil
	default:
		return ModeAuto, fmt.Errorf("route: unknown mode %q (want \"exact\" or \"approx\")", s)
	}
}

// ErrShardMismatch reports a router whose shard count, dimensionality or
// placed rows disagree with the engine it is being attached to. Serving engines reject this at
// construction time (errors.Is-matchable) instead of failing at query
// time.
var ErrShardMismatch = errors.New("route: router shard count disagrees with engine")

// sketchSample is the KMV sample size of each shard's sketch.
const sketchSample = 32

// Config shapes a Router. The zero value takes every default.
type Config struct {
	// Bits is the SimHash code width of the approximate-routing sketches
	// (default 64).
	Bits int
	// Seed drives sketch hashing; explicit so routed results are
	// reproducible across runs (default 1).
	Seed int64
	// Recall is the approximate mode's target recall knob in (0, 1]
	// (default 0.95): shards are visited until the estimated share of
	// the top-k reaches it.
	Recall float64
	// SizePrior blends the sketch-mass estimate with a shard-size prior
	// in [0, 1] (default 0.3): a hedge against sketch misses, it floors
	// how wrong the mass estimate can be on out-of-distribution queries.
	SizePrior float64
	// Mode is the default routing mode Search applies when the caller
	// passes ModeAuto (default ModeExact).
	Mode Mode
	// AuditEvery, when positive, makes every n-th approximate query an
	// audit: the engine also searches the skipped shards and reports the
	// *measured* recall of the approximate answer alongside the
	// estimate (pim_route_measured_recall). 0 disables auditing.
	AuditEvery int
}

// withDefaults resolves the zero-value knobs.
func (c Config) withDefaults() (Config, error) {
	if c.Bits <= 0 {
		c.Bits = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Recall == 0 {
		c.Recall = 0.95
	}
	if c.Recall < 0 || c.Recall > 1 {
		return c, fmt.Errorf("route: recall target %v outside (0, 1]", c.Recall)
	}
	if c.SizePrior == 0 {
		c.SizePrior = 0.3
	}
	if c.SizePrior < 0 || c.SizePrior > 1 {
		return c, fmt.Errorf("route: size prior %v outside [0, 1]", c.SizePrior)
	}
	switch c.Mode {
	case ModeAuto:
		c.Mode = ModeExact
	case ModeExact, ModeApprox:
	default:
		return c, fmt.Errorf("route: unknown default mode %q", c.Mode)
	}
	if c.AuditEvery < 0 {
		return c, fmt.Errorf("route: negative AuditEvery %d", c.AuditEvery)
	}
	return c, nil
}

// Router maintains one summary per shard and decides, per query, which
// shards to visit. It is safe for concurrent use: summaries are
// published copy-on-write behind atomic pointers, so query-time reads
// never lock, and Observe/Refresh serialize per shard.
type Router struct {
	cfg    Config
	d      int
	hasher *lsh.Hasher
	// center is the grand mean of the initial rows, subtracted from
	// every vector before SimHash. SimHash measures angles, and the
	// engines' [0,1]-normalized data lives in the positive orthant where
	// all pairwise angles are small — hashing relative to the mean
	// restores the angular contrast between clusters that the
	// approximate mode's similarity mass depends on. The pivot is fixed
	// at construction (a drifting pivot would make old and new sketch
	// codes incomparable); exactness never depends on it.
	center []float64

	mu     []sync.Mutex // per-shard writer lock (COW updates)
	shards []atomic.Pointer[Summary]

	// place lists the ascending ids of the initial rows each shard holds:
	// what the summaries were built over, and so what an engine must
	// partition by (Partition).
	place [][]int
	rows  int // initial rows placed

	// Cumulative routing outcomes, feeding PlanBound and pim_route_*.
	visited atomic.Int64
	skipped atomic.Int64
	audits  atomic.Int64 // approximate queries observed (audit cadence)
}

// New builds a router over explicit shard slices (one matrix per shard,
// in shard-id order). Every shard must share the dimensionality. The
// placement it records is consecutive ranges of the matrices' sizes: shard
// 0 holds the first rows of the dataset they were cut from, shard 1 the
// next, and so on.
func New(cfg Config, shards []*vec.Matrix) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if len(shards) == 0 {
		return nil, fmt.Errorf("route: no shards")
	}
	d := 0
	for i, m := range shards {
		if m == nil || m.N == 0 {
			return nil, fmt.Errorf("route: shard %d is empty", i)
		}
		if d == 0 {
			d = m.D
		} else if m.D != d {
			return nil, fmt.Errorf("route: shard %d has %d dims, shard 0 has %d", i, m.D, d)
		}
	}
	starts := make([]int, len(shards)+1)
	for i, m := range shards {
		starts[i+1] = starts[i] + m.N
	}
	return newRouter(cfg, shards, ranges(starts), grandMean(shards, d)), nil
}

// newRouter builds the summaries of parts under a validated cfg, shard i
// holding the initial rows place[i], with center as the sketch pivot.
func newRouter(cfg Config, parts []*vec.Matrix, place [][]int, center []float64) *Router {
	d := parts[0].D
	r := &Router{
		cfg:    cfg,
		d:      d,
		hasher: lsh.NewHasher(d, cfg.Bits, cfg.Seed),
		center: center,
		mu:     make([]sync.Mutex, len(parts)),
		shards: make([]atomic.Pointer[Summary], len(parts)),
		place:  place,
	}
	for i, m := range parts {
		r.shards[i].Store(r.build(m))
		r.rows += m.N
	}
	return r
}

// grandMean is the mean row over every shard — the sketch pivot.
func grandMean(shards []*vec.Matrix, d int) []float64 {
	c := make([]float64, d)
	rows := 0
	for _, m := range shards {
		for i := 0; i < m.N; i++ {
			for j, x := range m.Row(i) {
				c[j] += x
			}
		}
		rows += m.N
	}
	for j := range c {
		c[j] /= float64(rows)
	}
	return c
}

// EvenSplit is the shard sizes of every partition: shard i gets
// starts[i+1]−starts[i] rows, n/shards of them plus one for each of the
// first n%shards shards. starts has shards+1 entries, the last being n.
// An unrouted engine holds rows starts[i] up to starts[i+1] on shard i.
func EvenSplit(n, shards int) []int {
	starts := make([]int, shards+1)
	for id := range shards {
		starts[id+1] = starts[id] + n/shards
		if id < n%shards {
			starts[id+1]++
		}
	}
	return starts
}

// ranges lists the ids of the contiguous ranges starts delimits, one
// backing array for all of them.
func ranges(starts []int) [][]int {
	n := len(starts) - 1
	ids := make([]int, starts[n])
	for i := range ids {
		ids[i] = i
	}
	out := make([][]int, n)
	for s := range out {
		out[s] = ids[starts[s]:starts[s+1]:starts[s+1]]
	}
	return out
}

// Place is the placement exact routing is built for: an equi-depth split of
// data's rows on their Euclidean norm. Ranked by (‖v‖, id), shard i takes
// the i-th run of EvenSplit's sizes, as an ascending id list. A shard then
// covers a narrow band of norms, which Summary.LowerBound's norm-range
// bound reads with no new summary code: contiguous ranges of one
// distribution give every shard the whole dataset's box and norm range,
// and nothing can be skipped. LSH Ensemble partitions its domains the same
// way, equi-depth on the quantity its per-partition parameters read.
func Place(data *vec.Matrix, shards int) [][]int { return place(data, shards, nil) }

// place is Place, adding every row into sum when it is non-nil: NewEven's
// sketch pivot, summed in row order in the one pass that reads the norms.
func place(data *vec.Matrix, shards int, sum []float64) [][]int {
	// A squared norm is never negative, so its bits rank as ‖v‖ does and
	// two integer compares order a pair of keys.
	type key struct{ norm, id uint64 }
	keys := make([]key, data.N)
	for i := range keys {
		row := data.Row(i)
		keys[i] = key{math.Float64bits(vec.SqNorm(row)), uint64(i)}
		if sum != nil {
			for j, x := range row {
				sum[j] += x
			}
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		if a.norm != b.norm {
			return cmp.Compare(a.norm, b.norm)
		}
		return cmp.Compare(a.id, b.id)
	})
	// Deal the ids out in id order, so every list comes out ascending.
	starts := EvenSplit(data.N, shards)
	owner := make([]int32, data.N)
	for s := range shards {
		for _, k := range keys[starts[s]:starts[s+1]] {
			owner[k.id] = int32(s)
		}
	}
	place := ranges(starts)
	filled := make([]int, shards)
	for id, s := range owner {
		place[s][filled[s]] = id
		filled[s]++
	}
	return place
}

// NewEven builds the router exact routing is built for: over data split by
// Place into shards. An engine built from the same dataset with this
// router and Options.Shards = shards partitions by its placement
// (Partition), so each shard holds the rows its summary describes.
func NewEven(cfg Config, data *vec.Matrix, shards int) (*Router, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if data == nil || data.N == 0 {
		return nil, fmt.Errorf("route: empty dataset")
	}
	if shards <= 0 || shards > data.N {
		return nil, fmt.Errorf("route: shard count %d outside 1..%d", shards, data.N)
	}
	// The sketch pivot is the mean in row order, whatever the placement.
	center := make([]float64, data.D)
	place := place(data, shards, center)
	for j := range center {
		center[j] /= float64(data.N)
	}
	parts := make([]*vec.Matrix, shards)
	for id, ids := range place {
		parts[id] = data.Rows(ids)
	}
	return newRouter(cfg, parts, place, center), nil
}

// Partition is the one rule every engine places its n initial rows on
// shards by: the router's placement when r is non-nil — the rows its
// summaries describe — and EvenSplit's contiguous ranges when unrouted,
// where nothing is skipped and placing buys nothing. Each list is
// ascending; an engine hands it to its shard's store as the store's id
// directory. A router that placed other than n rows is ErrShardMismatch.
func Partition(r *Router, n, shards int) ([][]int, error) {
	if r == nil {
		return ranges(EvenSplit(n, shards)), nil
	}
	if r.rows != n {
		return nil, fmt.Errorf("route: %w: router placed %d rows, engine has %d", ErrShardMismatch, r.rows, n)
	}
	return r.place, nil
}

// Placement returns the ascending ids of the initial rows each shard
// holds, shard by shard (Place's split for NewEven, consecutive ranges for
// New). The lists are the router's own: callers must not modify them.
func (r *Router) Placement() [][]int { return r.place }

// build constructs one shard's summary (tight bounds + fresh sketch).
func (r *Router) build(m *vec.Matrix) *Summary {
	sk := lsh.NewSketch(r.hasher, sketchSample, r.cfg.Seed)
	return buildSummary(m, sk, r.center)
}

// NumShards returns the shard count the router was built for.
func (r *Router) NumShards() int { return len(r.shards) }

// Dims returns the dimensionality summaries were built over.
func (r *Router) Dims() int { return r.d }

// DefaultMode resolves ModeAuto to the configured default.
func (r *Router) DefaultMode() Mode { return r.cfg.Mode }

// RecallTarget returns the approximate mode's configured recall knob.
func (r *Router) RecallTarget() float64 { return r.cfg.Recall }

// Audit reports whether this approximate query should be audited
// (measured recall against the full fan-out); it advances the cadence.
func (r *Router) Audit() bool {
	if r.cfg.AuditEvery <= 0 {
		return false
	}
	return r.audits.Add(1)%int64(r.cfg.AuditEvery) == 0
}

// LowerBounds appends per-shard admissible lower bounds on the squared
// distance from q to any row of each shard (dst is reused when it has
// capacity). The bounds are what exact routing prunes with.
func (r *Router) LowerBounds(q []float64, dst []float64) []float64 {
	if len(q) != r.d {
		panic(fmt.Sprintf("route: query has %d dims, router has %d", len(q), r.d))
	}
	dst = dst[:0]
	qNorm := math.Sqrt(vec.SqNorm(q))
	for i := range r.shards {
		dst = append(dst, r.shards[i].Load().LowerBound(q, qNorm))
	}
	return dst
}

// ExactOrder returns the shard visit order of exact mode — ascending by
// (lower bound, shard id) — together with the bounds themselves. The
// engine seeds its k-th candidate distance from the first shard, then
// skips every later shard whose bound exceeds it.
func (r *Router) ExactOrder(q []float64) (order []int, lbs []float64) {
	lbs = r.LowerBounds(q, nil)
	order = make([]int, len(lbs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if lbs[order[a]] != lbs[order[b]] {
			return lbs[order[a]] < lbs[order[b]]
		}
		return order[a] < order[b]
	})
	return order, lbs
}

// ExactOrderAvail is the node-aware variant of ExactOrder: it rotates
// the lowest-bound shard for which avail returns true to the front of
// the visit order, leaving the rest in ascending (lower bound, id)
// order. The multi-node placement layer seeds its τ wave from the
// first element, so an unavailable best shard (all replicas down)
// cannot stall wave 1 — and a dead shard is only fatal if its
// admissible bound survives the seeded kth distance; otherwise routing
// proves it out of the answer and the query succeeds without it. With a
// nil avail (or no available shard) this is exactly ExactOrder.
func (r *Router) ExactOrderAvail(q []float64, avail func(shard int) bool) (order []int, lbs []float64) {
	order, lbs = r.ExactOrder(q)
	if avail == nil {
		return order, lbs
	}
	for i, id := range order {
		if avail(id) {
			seed := order[i]
			copy(order[1:i+1], order[:i])
			order[0] = seed
			break
		}
	}
	return order, lbs
}

// ApproxPlan scores every shard by sketch-similarity mass blended with
// the shard-size prior and returns the visit set of approximate mode:
// the smallest prefix (in descending score) whose cumulative weight
// reaches the recall target, plus the estimated recall of stopping
// there. target ≤ 0 takes the configured default.
func (r *Router) ApproxPlan(q []float64, target float64) (visit []int, estRecall float64) {
	if len(q) != r.d {
		panic(fmt.Sprintf("route: query has %d dims, router has %d", len(q), r.d))
	}
	if target <= 0 {
		target = r.cfg.Recall
	}
	code := r.hasher.Hash(shifted(q, r.center, make([]float64, r.d)))

	// Sharpened similarity mass: each sampled code contributes sim^16,
	// scaled from sample to shard cardinality. The exponent concentrates
	// the mass on near-parallel samples, which is where top-k members
	// live; it is computed by squaring (the decision is on the query hot
	// path — math.Pow would dominate the routing cost it is meant to
	// save).
	n := len(r.shards)
	mass := make([]float64, n)
	rows := make([]float64, n)
	var totalMass, totalRows float64
	for i := range r.shards {
		s := r.shards[i].Load()
		sk := s.sketch
		rows[i] = float64(s.rows)
		totalRows += rows[i]
		if sk == nil || sk.Len() == 0 {
			continue
		}
		var m float64
		for j := 0; j < sk.Len(); j++ {
			x := sk.Sim(code, j)
			x *= x // sim^2
			x *= x // sim^4
			x *= x // sim^8
			x *= x // sim^16
			m += x
		}
		mass[i] = m * rows[i] / float64(sk.Len())
		totalMass += mass[i]
	}

	// Blend with the size prior; with no sketch signal at all the prior
	// is everything (uniform-by-rows routing).
	w := make([]float64, n)
	lambda := r.cfg.SizePrior
	if totalMass == 0 {
		lambda = 1
	}
	for i := range w {
		var m float64
		if totalMass > 0 {
			m = mass[i] / totalMass
		}
		w[i] = (1-lambda)*m + lambda*rows[i]/totalRows
	}

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if w[order[a]] != w[order[b]] {
			return w[order[a]] > w[order[b]]
		}
		return order[a] < order[b]
	})
	cum := 0.0
	for _, i := range order {
		visit = append(visit, i)
		cum += w[i]
		if cum >= target {
			break
		}
	}
	sort.Ints(visit)
	return visit, math.Min(1, cum)
}

// Observe expands a shard's summary with a row that joined it (insert or
// update). Expansion is conservative — the summary stays a superset of
// the shard's live rows, so exact routing stays admissible through
// churn; compaction re-tightens via Refresh.
func (r *Router) Observe(shard int, v []float64) {
	if shard < 0 || shard >= len(r.shards) || len(v) != r.d {
		panic(fmt.Sprintf("route: Observe(%d, %d dims) on %d-shard %d-dim router", shard, len(v), len(r.shards), r.d))
	}
	r.mu[shard].Lock()
	r.shards[shard].Store(r.shards[shard].Load().grown(v, r.center))
	r.mu[shard].Unlock()
}

// Refresh rebuilds a shard's summary tight from its current rows (the
// compaction hook: the delta layer calls it with the freshly compacted
// base image, which is exactly the shard's live row set).
func (r *Router) Refresh(shard int, m *vec.Matrix) {
	if shard < 0 || shard >= len(r.shards) || m == nil || m.N == 0 || m.D != r.d {
		panic(fmt.Sprintf("route: Refresh(%d) with bad matrix on %d-shard router", shard, len(r.shards)))
	}
	r.mu[shard].Lock()
	r.shards[shard].Store(r.build(m))
	r.mu[shard].Unlock()
}

// NoteOutcome records one routed query's visit/skip split (feeds the
// observed selectivity behind PlanBound and the pim_route_* metrics).
func (r *Router) NoteOutcome(visited, skipped int) {
	r.visited.Add(int64(visited))
	r.skipped.Add(int64(skipped))
}

// Stats returns the cumulative shards visited and skipped.
func (r *Router) Stats() (visited, skipped int64) {
	return r.visited.Load(), r.skipped.Load()
}

// Selectivity is the observed fraction of shards skipped over the
// router's lifetime (0 before any routed query).
func (r *Router) Selectivity() float64 {
	v, s := r.visited.Load(), r.skipped.Load()
	if v+s == 0 {
		return 0
	}
	return float64(s) / float64(v+s)
}

// PlanBound prices the routing filter for the Eq. 13 plan optimizer
// from the observed selectivity: routing is just another bound, one
// whose per-object probe cost is the summary evaluation amortized over
// the shard's rows (≈ 0 operands per object at serving shard sizes).
func (r *Router) PlanBound() plan.Bound {
	return plan.RoutingBound("ROUTE", r.Selectivity(), 0)
}
