package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// smokeConfig is the -short-sized run: N÷20, a quarter of the query pool
// and a fraction of a second per phase, so `go test -short` stays within
// 15 s.
func smokeConfig(t *testing.T, seed int64) config {
	poolSize = 64
	return config{seed: seed, seconds: 0.5, scale: 20, tmp: t.TempDir()}
}

// TestSmoke runs every workload through both phases at smoke size and
// pins the schema: every named metric is emitted exactly where it
// applies, with its unit, nothing fails, and the driver line carries
// exactly BENCHMARK.json's metrics.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := runWorkload(workloads[name], smokeConfig(t, 1), -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Phases {
				if p.Failed != 0 || p.Attempted == 0 {
					t.Errorf("phase %s: attempted %d, failed %d (%s)", p.Phase, p.Attempted, p.Failed, p.FirstErr)
				}
			}
			if fr := res.EndToEnd["fail_ratio"]; fr.Value != 0 {
				t.Errorf("fail_ratio = %v, want 0", fr.Value)
			}
			check := func(kind string, defs []metricDef, got map[string]value) {
				for _, d := range defs {
					v, ok := got[d.Name]
					switch {
					case ok != d.on(name):
						t.Errorf("%s metric %s: emitted %v, applies %v", kind, d.Name, ok, d.on(name))
					case ok && v.Unit != d.Unit:
						t.Errorf("%s metric %s: unit %q, want %q", kind, d.Name, v.Unit, d.Unit)
					case ok && (math.IsNaN(v.Value) || math.IsInf(v.Value, 0)):
						t.Errorf("%s metric %s = %v", kind, d.Name, v.Value)
					}
				}
				if len(got) > len(defs) {
					t.Errorf("%d %s metrics emitted, schema has %d", len(got), kind, len(defs))
				}
			}
			check("end-to-end", endToEnd, res.EndToEnd)
			check("per-layer", perLayer, res.PerLayer)
			if r := res.PerLayer["bench.attrib_residual_ratio"].Value; r < 0 {
				t.Errorf("attribution residual %v is negative", r)
			}
			if len(res.Attribution) < 4 || res.TracedMs <= 0 {
				t.Errorf("attribution %v against %v ms", res.Attribution, res.TracedMs)
			}
			for trace, defs := range [][]metricDef{endToEnd, perLayer} {
				var buf bytes.Buffer
				if err := printDriverLine(&buf, res, trace); err != nil {
					t.Fatal(err)
				}
				var line driverLine
				if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
					t.Fatal(err)
				}
				want := 0
				for _, d := range defs {
					if d.Driver {
						want++
						if _, ok := line.Metrics[d.Name]; !ok {
							t.Errorf("driver line (trace %d) lacks %s", trace, d.Name)
						}
					}
				}
				if len(line.Metrics) != want || !line.Correct || line.Attempted < 1 || line.Failed != 0 {
					t.Errorf("driver line (trace %d): %d metrics (want %d), %+v", trace, len(line.Metrics), want, line)
				}
			}
		})
	}
}

// TestDeterminism: -seed is the only source of randomness, so everything
// counted or modeled repeats bit for bit at one seed, and a second seed
// runs clean.
func TestDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("three runs of two workloads; -short keeps to the smoke test")
	}
	exact := []string{"arch.modeled_host_us", "arch.modeled_pim_us", "arch.tcache_share",
		"pim.dots_per_query", "pim.buf_bytes_per_query", "pim.cycles_per_query",
		"route.shards_visited", "route.skip_ratio", "knn.refined_per_query", "knn.prune_ratio"}
	for _, name := range []string{wireKNN, clusterXbar} {
		t.Run(name, func(t *testing.T) {
			run := func(seed int64) *result {
				res, err := runWorkload(workloads[name], smokeConfig(t, seed), -1)
				if err != nil {
					t.Fatal(err)
				}
				if _, failed := res.totals(); failed != 0 {
					t.Fatalf("seed %d: %d failures: %+v", seed, failed, res.Phases)
				}
				return res
			}
			a, b, other := run(1), run(1), run(2)
			bits := func(v value) uint64 { return math.Float64bits(v.Value) }
			if bits(a.EndToEnd["modeled_query_us"]) != bits(b.EndToEnd["modeled_query_us"]) {
				t.Errorf("modeled_query_us: %v then %v at one seed", a.EndToEnd["modeled_query_us"].Value, b.EndToEnd["modeled_query_us"].Value)
			}
			for _, m := range exact {
				va, ok := a.PerLayer[m]
				if !ok {
					continue // not on this workload
				}
				if bits(va) != bits(b.PerLayer[m]) {
					t.Errorf("%s: %v then %v at one seed", m, va.Value, b.PerLayer[m].Value)
				}
			}
			if bits(a.EndToEnd["modeled_query_us"]) == bits(other.EndToEnd["modeled_query_us"]) {
				t.Errorf("modeled_query_us is %v at seeds 1 and 2: the seed does not reach the inputs", a.EndToEnd["modeled_query_us"].Value)
			}
		})
	}
}

// TestCompare pins -compare's verdicts and exit codes.
func TestCompare(t *testing.T) {
	mk := func(qps, p50, spread, fail, modeled float64) report {
		return report{Seed: 1, Seconds: 15, Workloads: []result{{Workload: wireKNN, N: 20000, D: 420, EndToEnd: map[string]value{
			"qps":              {Value: qps, Unit: "1/s", Spread: spread},
			"query_p50_ms":     {Value: p50, Unit: "ms", Spread: spread},
			"fail_ratio":       {Value: fail, Unit: "ratio"},
			"modeled_query_us": {Value: modeled, Unit: "us"},
		}}}}
	}
	dir := t.TempDir()
	write := func(name string, r report) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", mk(200, 8, 0.02, 0, 275.5))
	cases := []struct {
		name string
		cand report
		code int
		want []string
	}{
		{"same", mk(200, 8, 0.02, 0, 275.5), 0, []string{"qps", unchanged}},
		{"within-bound", mk(190, 8.5, 0.02, 0, 275.5), 0, []string{unchanged}},
		{"faster", mk(260, 6, 0.02, 0, 275.5), 0, []string{improved}},
		{"slower", mk(140, 8, 0.02, 0, 275.5), 1, []string{regressed, "1 regressed or missing"}},
		{"noisy", mk(160, 8, 0.30, 0, 275.5), 0, []string{unresolved}},
		{"noisy-yet-far-slower", mk(60, 8, 0.30, 0, 275.5), 1, []string{regressed}},
		{"noisy-yet-far-faster", mk(600, 8, 0.30, 0, 275.5), 0, []string{improved}},
		{"failing", mk(200, 8, 0.02, 0.001, 275.5), 1, []string{"fail_ratio", regressed}},
		{"modeled-moved", mk(200, 8, 0.02, 0, 275.6), 1, []string{"modeled_query_us", regressed}},
	}
	for _, c := range cases {
		var out, errb bytes.Buffer
		code := run([]string{"-compare", base, write(c.name+".json", c.cand)}, &out, &errb)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
		for _, w := range c.want {
			if !strings.Contains(out.String(), w) {
				t.Errorf("%s: output lacks %q:\n%s", c.name, w, out.String())
			}
		}
	}
	// A candidate that lost a metric or a workload fails; one of another
	// seed or size is not comparable.
	lostMetric := mk(200, 8, 0.02, 0, 275.5)
	delete(lostMetric.Workloads[0].EndToEnd, "query_p50_ms")
	lostWorkload := mk(200, 8, 0.02, 0, 275.5)
	lostWorkload.Workloads[0].Workload = wireLight
	otherSeed := mk(200, 8, 0.02, 0, 275.5)
	otherSeed.Seed = 2
	otherSize := mk(200, 8, 0.02, 0, 275.5)
	otherSize.Workloads[0].N = 1000
	for _, c := range []struct {
		name string
		cand report
		code int
	}{{"lost-metric", lostMetric, 1}, {"lost-workload", lostWorkload, 1}, {"other-seed", otherSeed, 2}, {"other-size", otherSize, 2}} {
		var out, errb bytes.Buffer
		code := run([]string{"-compare", base, write(c.name+".json", c.cand)}, &out, &errb)
		if code != c.code || (code == 1 && !strings.Contains(out.String(), missing)) {
			t.Errorf("%s: exit %d, want %d\n%s%s", c.name, code, c.code, out.String(), errb.String())
		}
	}
}

// benchmarkJSON renders the driver's contract file from the metric table.
func benchmarkJSON(t *testing.T) []byte {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	out := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []named  `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: 20}
	for _, n := range workloadNames {
		if len(why[n]) > 200 {
			t.Errorf("why[%s] is %d characters, the contract allows 200", n, len(why[n]))
		}
		out.Workloads = append(out.Workloads, named{n, why[n]})
	}
	maxBound := 0.0
	for _, d := range endToEnd {
		if d.Driver {
			bound := d.Bound
			out.EndToEnd = append(out.EndToEnd, metric{d.Name, d.Unit, d.Better, &bound})
			maxBound = math.Max(maxBound, bound)
		}
	}
	if d, _ := findDef(endToEnd, "setup_s"); d.Bound != maxBound || maxBound > 0.25 {
		t.Errorf("setup_s bound %v must be the largest (%v) and at most 0.25", d.Bound, maxBound)
	}
	for _, d := range perLayer {
		if d.Driver {
			out.PerLayer = append(out.PerLayer, metric{Name: d.Name, Unit: d.Unit, Better: d.Better})
		}
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestSchema keeps BENCHMARK.json, the metric table and the README
// glossary in step. E2E_WRITE_BENCHMARK_JSON=1 rewrites the file from
// the table instead of comparing.
func TestSchema(t *testing.T) {
	const path = "../../BENCHMARK.json"
	want := benchmarkJSON(t)
	if os.Getenv("E2E_WRITE_BENCHMARK_JSON") != "" {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal("no BENCHMARK.json above the bench module: ", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the metric table (E2E_WRITE_BENCHMARK_JSON=1 go test -run TestSchema rewrites it):\n%s", want)
	}
	readme, err := os.ReadFile("../README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !bytes.Contains(readme, []byte("`"+d.Name+"`")) {
			t.Errorf("README.md glossary lacks `%s`", d.Name)
		}
	}
}

func TestNestAndCover(t *testing.T) {
	spans := []span{
		{Name: spanKNN, Start: 30, End: 60},
		{Name: spanRequest, Start: 0, End: 100},
		{Name: spanHandler, Start: 10, End: 90},
		{Name: spanKNN, Start: 20, End: 40},
		{Name: spanKNN, Start: 70, End: 80},
		{Name: spanRequest, Start: 110, End: 120},
	}
	nest(spans)
	ts := trees(spans)
	if len(ts) != 2 || ts[0].handler == nil || len(ts[0].visits) != 3 || ts[1].handler != nil {
		t.Fatalf("trees = %+v", ts)
	}
	for _, s := range spans[:5] {
		if s.Req != 0 {
			t.Errorf("span %+v not in request 0", s)
		}
	}
	if got := cover(ts[0].visits); got != 50*time.Nanosecond {
		t.Errorf("cover = %v, want 50ns (20–60 and 70–80)", got)
	}
	if sk := fanoutSkew(ts[0].visits); math.Abs(sk-1.5) > 1e-9 {
		t.Errorf("skew = %v, want 30 / mean(30,20,10) = 1.5", sk)
	}
}
