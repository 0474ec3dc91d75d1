package knn

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"pimmine/internal/arch"
	"pimmine/internal/dataset"
	"pimmine/internal/measure"
	"pimmine/internal/obs"
	"pimmine/internal/plan"
)

// The moved searchers whose query is a []float64 get the cascade's span
// tree with no span code of their own: a pim-dot span per PIM stage, then
// bound-eval with the seed event and one event per stage carrying
// in/out/transfer_dims, then refine. On their hand-written loops
// SearchTraced fell back to a plain Search and the trace stayed empty;
// Dynamic-PIM had no LastStages either.
func TestMovedSearchersTraced(t *testing.T) {
	data, queries := testData(t, 300, 64)
	q := defaultQuant(t)
	csPIM, err := NewSimPIM(newEngine(t), data, q, measure.CS, data.N)
	if err != nil {
		t.Fatal(err)
	}
	lemp, err := NewSimLEMP(data, data.D/2)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewDynamicPIM(newEngine(t), data, q, data.N)
	if err != nil {
		t.Fatal(err)
	}
	stage := `[├└]─ %s  \[in=300 out=\d+ pruned=[\d.]+%% transfer_dims=%s\]`
	seed := `seed  \[k=10 tau=-?[\d.]+ column_us=[\d.]+ loose=%s tightened=%s tighten_us=[\d.]+ exit=%s\]`
	eagerSeed := fmt.Sprintf(seed, "0", "0", "eager")
	for _, tc := range []struct {
		s     Searcher
		lines []string // one pattern per rendered line under the root
	}{
		{csPIM, []string{`knn\.Standard-PIM`, `pim-dot  \[func=UBPIM-CS dots=300 lazy=false\]`, `bound-eval`, eagerSeed,
			fmt.Sprintf(stage, "UBPIM-CS", "3"), `refine  \[in=\d+ out=10 transfer_dims=64\]`}},
		{lemp, []string{`knn\.LEMP`, `bound-eval`, eagerSeed,
			fmt.Sprintf(stage, "UBpart", "34"), `refine  \[in=\d+ out=10 transfer_dims=64\]`}},
		{dyn, []string{`knn\.Dynamic-PIM`, `pim-dot  \[func=LBPIM-ED dots=300 lazy=true\]`, `bound-eval`, fmt.Sprintf(seed, `\d+`, `\d+`, "lazy"),
			fmt.Sprintf(stage, "LBPIM-ED", "2"), `refine  \[in=\d+ out=10 transfer_dims=64\]`}},
	} {
		tr := obs.NewTracer(1, 1)
		ctx, root := tr.Start(context.Background(), "root")
		traced := SearchTraced(ctx, tc.s, queries.Row(0), 10, arch.NewMeter())
		root.End()
		if plain := tc.s.Search(queries.Row(0), 10, arch.NewMeter()); !reflect.DeepEqual(traced, plain) {
			t.Fatalf("%s: traced search returned %v, untraced %v", tc.s.Name(), traced, plain)
		}
		durations := regexp.MustCompile(` \([^)]*\)`)
		got := strings.Split(strings.TrimSpace(durations.ReplaceAllString(tr.Recent(1)[0].Render(), "")), "\n")[2:]
		if len(got) != len(tc.lines) {
			t.Fatalf("%s: span tree has %d lines under the root, want %d:\n%s", tc.s.Name(), len(got), len(tc.lines), strings.Join(got, "\n"))
		}
		for i, pat := range tc.lines {
			if !regexp.MustCompile(pat + `$`).MatchString(got[i]) {
				t.Fatalf("%s: span line %d is %q, want it to end in /%s/", tc.s.Name(), i, got[i], pat)
			}
		}
		if stages := tc.s.(Stager).LastStages(); len(stages) != 2 || stages[1].Out != 10 {
			t.Fatalf("%s: LastStages = %+v, want the bound and the refinement", tc.s.Name(), stages)
		}
	}
}

// DynamicPIM.Add used to build a fresh N+rows matrix and copy the index
// into it on every call, and EDIndex.AppendRows a floor slice per row:
// O(N) per insert, O(N²) over a stream. Both now grow in place. A stream
// of one-row inserts must allocate a small multiple of what it ends up
// holding, and every search along the way must equal a freshly built index
// over the same rows to the bit.
func TestDynamicPIMAddGrowsInPlace(t *testing.T) {
	const initialN, adds, d = 1024, 256, 32
	prof := dataset.Profile{Name: "grow", FullN: initialN + adds, D: d, Clusters: 8, Correlation: 0.8, Spread: 0.1}
	all := dataset.Generate(prof, initialN+adds, 55)
	query := all.Queries(1, 56).Row(0)
	q := defaultQuant(t)
	dyn, err := NewDynamicPIM(newEngine(t), all.X.Slice(0, initialN), q, initialN+adds)
	if err != nil {
		t.Fatal(err)
	}
	var allocated uint64
	var before, after runtime.MemStats
	for n := initialN; n < initialN+adds; n++ {
		runtime.ReadMemStats(&before)
		if err := dyn.Add(all.X.Slice(n, n+1)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		allocated += after.TotalAlloc - before.TotalAlloc

		fresh, err := NewDynamicPIM(newEngine(t), all.X.Slice(0, n+1), q, n+1)
		if err != nil {
			t.Fatal(err)
		}
		mGot, mWant := arch.NewMeter(), arch.NewMeter()
		got, want := dyn.Search(query, 10, mGot), fresh.Search(query, 10, mWant)
		for i := range want {
			if got[i].Index != want[i].Index || math.Float64bits(got[i].Dist) != math.Float64bits(want[i].Dist) {
				t.Fatalf("after %d rows: neighbour %d is %+v, a fresh index gives %+v", n+1, i, got[i], want[i])
			}
		}
		if !reflect.DeepEqual(mGot, mWant) {
			t.Fatalf("after %d rows: meter %+v, a fresh index records %+v", n+1, mGot.Total(), mWant.Total())
		}
	}
	final := uint64(dyn.Len() * d * 8)
	if allocated >= 4*final {
		t.Fatalf("%d one-row Adds allocated %d bytes, want under 4× the final %d-byte matrix", adds, allocated, final)
	}
}

// FromPlan builds exactly the plan it is given, stage for stage, and
// refuses a plan it cannot build — where the framework used to map chosen
// bound names back to granularities through a side table, dropping (and
// before that, mis-parsing) what it did not recognise.
func TestFromPlan(t *testing.T) {
	data, queries := testData(t, 300, 64)
	q := defaultQuant(t)
	pimBound := plan.Bound{Name: "LBPIM-FNN-8", Family: "FNN", TransferDims: 3, PIM: true, Segs: 8}
	host := func(segs int) plan.Bound {
		return plan.Bound{Name: fmt.Sprintf("LBFNN-%d", segs), Family: "FNN", TransferDims: 2 * segs, Segs: segs}
	}
	std := NewStandard(data)
	for _, tc := range []struct {
		bounds []plan.Bound
		names  []string
		s      int
	}{
		{[]plan.Bound{pimBound, host(4)}, []string{"LBPIM-FNN-8", "LBFNN-4", "ED"}, 8},
		{[]plan.Bound{pimBound}, []string{"LBPIM-FNN-8", "ED"}, 8},
		// A plan Eq. 13 left without its PIM bound runs none.
		{[]plan.Bound{host(2), host(8)}, []string{"LBFNN-2", "LBFNN-8", "ED"}, 0},
		{nil, []string{"ED"}, 0},
	} {
		p := plan.Plan{Bounds: tc.bounds}
		c, err := FromPlan(p, newEngine(t), data, q)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		got := c.Search(queries.Row(0), 10, arch.NewMeter())
		if want := std.Search(queries.Row(0), 10, arch.NewMeter()); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cascade returned %v, exact scan %v", p, got, want)
		}
		var names []string
		for _, st := range c.LastStages() {
			names = append(names, st.Name)
		}
		if !reflect.DeepEqual(names, tc.names) || c.S() != tc.s {
			t.Fatalf("%s compiled to stages %v with S=%d, want %v with S=%d", p, names, c.S(), tc.names, tc.s)
		}
	}
	for _, bad := range []plan.Bound{
		plan.RoutingBound("route-sketch", 0.5, 0),                   // not an LB_FNN bound
		{Name: "LBFNN-?", Family: "FNN", TransferDims: 8},           // no granularity
		{Name: "LBSM-16", Family: "SM", TransferDims: 16, Segs: 16}, // another family
	} {
		_, err := FromPlan(plan.Plan{Bounds: []plan.Bound{pimBound, bad}}, newEngine(t), data, q)
		if err == nil || !strings.Contains(err.Error(), `"`+bad.Name+`"`) {
			t.Fatalf("a plan with a bound the cascade cannot build must be an error naming %q, got %v", bad.Name, err)
		}
	}
}
