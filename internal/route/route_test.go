package route

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"pimmine/internal/dataset"
	"pimmine/internal/measure"
	"pimmine/internal/vec"
)

// clustered returns a dataset with rows grouped by mixture component, so
// contiguous shards are content-local — the regime where routing skips
// shards. (dataset.Generate interleaves clusters row by row; a router
// over interleaved shards sees near-identical summaries everywhere.)
func clustered(n, d, clusters int, seed int64) *vec.Matrix {
	prof := dataset.Profile{Name: "route", FullN: n, D: d, Clusters: clusters, Correlation: 0.4, Spread: 0.08}
	ds := dataset.Generate(prof, n, seed)
	m := vec.NewMatrix(n, d)
	i := 0
	for c := 0; c < clusters; c++ {
		for r := 0; r < n; r++ {
			if ds.Labels[r] == c {
				copy(m.Row(i), ds.X.Row(r))
				i++
			}
		}
	}
	return m
}

func TestParseMode(t *testing.T) {
	t.Parallel()
	for _, ok := range []string{"", "exact", "approx"} {
		if _, err := ParseMode(ok); err != nil {
			t.Fatalf("ParseMode(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"EXACT", "fuzzy", "approximate", " exact"} {
		if _, err := ParseMode(bad); err == nil {
			t.Fatalf("ParseMode(%q) accepted", bad)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	t.Parallel()
	data := clustered(64, 8, 4, 1)
	for _, cfg := range []Config{
		{Recall: 1.5},
		{Recall: -0.1},
		{SizePrior: 2},
		{Mode: "fuzzy"},
		{AuditEvery: -1},
	} {
		if _, err := NewEven(cfg, data, 4); err == nil {
			t.Fatalf("config %+v accepted", cfg)
		}
	}
	r, err := NewEven(Config{}, data, 4)
	if err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	if r.DefaultMode() != ModeExact || r.RecallTarget() != 0.95 || r.NumShards() != 4 {
		t.Fatalf("defaults not applied: mode=%q recall=%v shards=%d", r.DefaultMode(), r.RecallTarget(), r.NumShards())
	}
}

// Admissibility on a real dataset: no shard's lower bound may exceed the
// true minimum squared distance from the query to that shard's rows.
func TestLowerBoundsAdmissible(t *testing.T) {
	t.Parallel()
	data := clustered(240, 12, 6, 7)
	const shards = 6
	r, err := NewEven(Config{}, data, shards)
	if err != nil {
		t.Fatal(err)
	}
	prof := dataset.Profile{Name: "route", FullN: 240, D: 12, Clusters: 6, Correlation: 0.4, Spread: 0.08}
	qs := dataset.Generate(prof, 240, 7).Queries(20, 3)
	for qi := 0; qi < qs.N; qi++ {
		q := qs.Row(qi)
		lbs := r.LowerBounds(q, nil)
		for id, ids := range r.Placement() {
			truth := math.Inf(1)
			for _, i := range ids {
				if d := measure.SqEuclidean(data.Row(i), q); d < truth {
					truth = d
				}
			}
			if lbs[id] > truth {
				t.Fatalf("query %d shard %d: LB %v exceeds true min %v", qi, id, lbs[id], truth)
			}
		}
	}
}

// TestPlaceIsEquiDepth pins Place: shard sizes differ by at most one, every
// id lands on exactly one shard in an ascending list, and the shards are
// norm bands — every norm of shard i is at most every norm of shard i+1,
// with tied norms split by id. The data repeats rows, so norms tie.
func TestPlaceIsEquiDepth(t *testing.T) {
	t.Parallel()
	base := clustered(50, 6, 5, 3)
	data := vec.NewMatrix(203, base.D)
	for i := 0; i < data.N; i++ {
		copy(data.Row(i), base.Row(i%base.N))
	}
	norm := func(i int) float64 { return vec.SqNorm(data.Row(i)) }
	for _, shards := range []int{1, 2, 5, 7, data.N} {
		place := Place(data, shards)
		if len(place) != shards {
			t.Fatalf("%d shards: %d lists", shards, len(place))
		}
		seen := make([]bool, data.N)
		for s, ids := range place {
			if n := len(ids); n < data.N/shards || n > data.N/shards+1 {
				t.Fatalf("%d shards: shard %d holds %d rows", shards, s, n)
			}
			for j, id := range ids {
				if seen[id] {
					t.Fatalf("%d shards: id %d placed twice", shards, id)
				}
				seen[id] = true
				if j > 0 && ids[j-1] >= id {
					t.Fatalf("%d shards: shard %d list not ascending at %d", shards, s, j)
				}
			}
			if s == 0 {
				continue
			}
			for _, a := range place[s-1] {
				for _, b := range ids {
					if na, nb := norm(a), norm(b); na > nb || (na == nb && a > b) {
						t.Fatalf("%d shards: row %d of shard %d ranks after row %d of shard %d", shards, a, s-1, b, s)
					}
				}
			}
		}
		for id, ok := range seen {
			if !ok {
				t.Fatalf("%d shards: id %d placed nowhere", shards, id)
			}
		}
	}
	// New records consecutive ranges of its matrices' sizes.
	r, err := New(Config{}, []*vec.Matrix{data.Slice(0, 3), data.Slice(3, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Placement(); !reflect.DeepEqual(got, [][]int{{0, 1, 2}, {3, 4, 5, 6, 7, 8, 9}}) {
		t.Fatalf("New placement %v", got)
	}
	if _, err := Partition(r, 11, 2); !errors.Is(err, ErrShardMismatch) {
		t.Fatalf("Partition of a 10-row router over 11 rows: %v", err)
	}
}

// On cluster-aligned shards the bounds must actually separate shards —
// otherwise exact routing never skips anything and the tier is inert.
func TestExactOrderSeparatesClusteredShards(t *testing.T) {
	t.Parallel()
	data := clustered(300, 16, 6, 11)
	r, err := NewEven(Config{}, data, 6)
	if err != nil {
		t.Fatal(err)
	}
	separated := 0
	for qi := 0; qi < 12; qi++ {
		q := data.Row(qi * 25) // in-shard queries
		order, lbs := r.ExactOrder(q)
		if len(order) != 6 {
			t.Fatalf("order has %d shards", len(order))
		}
		for i := 1; i < len(order); i++ {
			if lbs[order[i-1]] > lbs[order[i]] {
				t.Fatalf("ExactOrder not ascending: %v / %v", order, lbs)
			}
		}
		if lbs[order[0]] < lbs[order[len(order)-1]] {
			separated++
		}
	}
	if separated == 0 {
		t.Fatal("no query separated any pair of cluster-aligned shards")
	}
}

func TestApproxPlanCoversTargetAndOrders(t *testing.T) {
	t.Parallel()
	data := clustered(300, 16, 6, 13)
	r, err := NewEven(Config{Recall: 0.9}, data, 6)
	if err != nil {
		t.Fatal(err)
	}
	q := data.Row(10)
	visit, est := r.ApproxPlan(q, 0)
	if len(visit) == 0 || len(visit) > 6 {
		t.Fatalf("visit set %v", visit)
	}
	if est < 0.9-1e-12 && len(visit) < 6 {
		t.Fatalf("stopped at estimated recall %v below target with shards left", est)
	}
	for i := 1; i < len(visit); i++ {
		if visit[i] <= visit[i-1] {
			t.Fatalf("visit set not sorted: %v", visit)
		}
	}
	// recall 1.0 must visit everything.
	all, est1 := r.ApproxPlan(q, 1)
	if len(all) != 6 || est1 > 1 {
		t.Fatalf("target 1.0 visited %d shards (est %v)", len(all), est1)
	}
}

// Observe must keep bounds admissible for the grown content and Refresh
// must re-tighten them.
func TestObserveGrowsAndRefreshTightens(t *testing.T) {
	t.Parallel()
	data := clustered(120, 8, 4, 5)
	r, err := NewEven(Config{}, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A far outlier joins shard 0: its bound for a query at the outlier
	// must drop to (near) zero after Observe.
	out := make([]float64, 8)
	for j := range out {
		out[j] = 9.5
	}
	before := r.LowerBounds(out, nil)[0]
	if before == 0 {
		t.Fatal("outlier query not separated before Observe")
	}
	r.Observe(0, out)
	if after := r.LowerBounds(out, nil)[0]; after != 0 {
		t.Fatalf("LB for observed row = %v, want 0", after)
	}
	// Refresh from the original rows restores the tight bound.
	r.Refresh(0, data.Rows(r.Placement()[0]))
	if again := r.LowerBounds(out, nil)[0]; again != before {
		t.Fatalf("refreshed LB %v, want original %v", again, before)
	}
}

func TestStatsAndPlanBound(t *testing.T) {
	t.Parallel()
	data := clustered(64, 8, 4, 1)
	r, err := NewEven(Config{}, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.Selectivity() != 0 {
		t.Fatal("selectivity nonzero before any query")
	}
	r.NoteOutcome(1, 3)
	r.NoteOutcome(2, 2)
	v, s := r.Stats()
	if v != 3 || s != 5 {
		t.Fatalf("stats = (%d, %d), want (3, 5)", v, s)
	}
	b := r.PlanBound()
	if b.Family != "route" || math.Abs(b.PruneRatio-5.0/8.0) > 1e-15 {
		t.Fatalf("plan bound %+v", b)
	}
}

func TestAuditCadence(t *testing.T) {
	t.Parallel()
	data := clustered(64, 8, 4, 1)
	r, err := NewEven(Config{AuditEvery: 3}, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	for i := 0; i < 9; i++ {
		if r.Audit() {
			hits++
		}
	}
	if hits != 3 {
		t.Fatalf("AuditEvery=3 audited %d of 9", hits)
	}
	r2, _ := NewEven(Config{}, data, 4)
	for i := 0; i < 5; i++ {
		if r2.Audit() {
			t.Fatal("AuditEvery=0 audited")
		}
	}
}

// Concurrent Observe/Refresh against LowerBounds must stay race-free and
// conservative (run with -race; the churn invariant itself is asserted
// by the serve-layer churn suite).
func TestRouterConcurrentChurn(t *testing.T) {
	t.Parallel()
	data := clustered(160, 8, 4, 9)
	r, err := NewEven(Config{}, data, 4)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 400; i++ {
			v := make([]float64, 8)
			for j := range v {
				v[j] = rng.Float64()
			}
			sh := i % 4
			r.Observe(sh, v)
			if i%50 == 49 {
				r.Refresh(sh, data.Slice(0, 40))
			}
		}
	}()
	q := data.Row(0)
	for i := 0; i < 400; i++ {
		lbs := r.LowerBounds(q, nil)
		for sh, lb := range lbs {
			if lb < 0 || math.IsNaN(lb) {
				t.Fatalf("shard %d produced bound %v under churn", sh, lb)
			}
		}
	}
	<-done
}

// TestExactOrderAvail checks the availability-aware ordering used by
// the placement layer: the seed shard (order[0], which anchors the
// kNN bound tau) must be the best *available* shard, unavailable
// shards keep their positions later in the walk so the bound can still
// prove them out, and a nil filter degrades to plain ExactOrder.
func TestExactOrderAvail(t *testing.T) {
	t.Parallel()
	data := clustered(300, 16, 6, 11)
	r, err := NewEven(Config{}, data, 6)
	if err != nil {
		t.Fatal(err)
	}
	for qi := 0; qi < 12; qi++ {
		q := data.Row(qi * 25)
		base, baseLBs := r.ExactOrder(q)

		order, lbs := r.ExactOrderAvail(q, nil)
		if !reflect.DeepEqual(order, base) || !reflect.DeepEqual(lbs, baseLBs) {
			t.Fatalf("nil avail diverged from ExactOrder: %v vs %v", order, base)
		}

		// Knock out the two best shards: the third-best must be
		// promoted to seed, everything else keeps relative order.
		down := map[int]bool{base[0]: true, base[1]: true}
		order, lbs = r.ExactOrderAvail(q, func(id int) bool { return !down[id] })
		if order[0] != base[2] {
			t.Fatalf("seed %d, want best available %d (base %v)", order[0], base[2], base)
		}
		if order[1] != base[0] || order[2] != base[1] {
			t.Fatalf("displaced prefix reordered: got %v, base %v", order, base)
		}
		if !reflect.DeepEqual(order[3:], base[3:]) {
			t.Fatalf("tail reordered: got %v, base %v", order, base)
		}
		seen := map[int]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("shard %d appears twice in %v", id, order)
			}
			seen[id] = true
		}
		if len(order) != 6 {
			t.Fatalf("order has %d shards, want all 6", len(order))
		}
		if !reflect.DeepEqual(lbs, baseLBs) {
			t.Fatal("availability filter changed lower bounds")
		}

		// Nothing available: order is untouched (caller will fail with
		// its own quorum error).
		order, _ = r.ExactOrderAvail(q, func(int) bool { return false })
		if !reflect.DeepEqual(order, base) {
			t.Fatalf("all-unavailable order %v, want base %v", order, base)
		}
	}
}
