// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (§IV profiling figures and §VI results). Each
// runner builds the workload on the synthetic Table 6 datasets, executes
// the real algorithms with activity metering, and renders a Table whose
// rows mirror what the paper reports (modeled milliseconds, speedups,
// pruning ratios, component shares).
//
// Dataset cardinalities are scaled down so a run completes on a laptop;
// Theorem 4 capacity decisions always use the full Table 6 cardinalities,
// so compressed dimensionalities match the paper (s=105 on MSD, s=50 on
// ImageNet). EXPERIMENTS.md records paper-vs-measured for every runner.
package exp

import (
	"fmt"
	"sort"
	"strings"

	"pimmine/internal/arch"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
)

// Suite holds the shared configuration of an experiment run.
type Suite struct {
	Cfg   arch.Config
	Quant quant.Quantizer
	// ScaleN caps generated dataset cardinality (rows); very
	// high-dimensional profiles (d ≥ 2048) are further reduced 4×.
	ScaleN int
	// Queries is the pilot/query batch size for kNN experiments.
	Queries int
	// Seed drives all generation and initialization.
	Seed int64
	// Full enables the expensive sweeps (k up to 1024 in Table 7);
	// default runs keep k ≤ 64 so the whole suite stays fast.
	Full bool
	// Shards caps the ext-route shard sweep (2,4,… up to Shards;
	// pimbench -shards, default 8).
	Shards int
	// Recall is the ext-route approximate mode's target recall
	// (pimbench -recall, default 0.95).
	Recall float64
	// Nodes caps the ext-cluster node sweep (1,2,4,… up to Nodes;
	// pimbench -nodes, default 8).
	Nodes int
	// Replicas is the ext-cluster replication factor (pimbench
	// -replicas, default 2; clamped to each cell's node count).
	Replicas int
	// ChaosSeed seeds the ext-cluster mid-sweep node kill (pimbench
	// -chaos).
	ChaosSeed int64
	// Obs, when non-nil, wires the serving experiments into the
	// observability subsystem (pimbench -metrics-addr).
	Obs *obs.Observer

	cache map[string]*dataset.Dataset
}

// NewSuite builds a suite with the paper's hardware and α=10⁶.
func NewSuite() *Suite {
	q, err := quant.New(quant.DefaultAlpha)
	if err != nil {
		panic(err) // DefaultAlpha is a valid constant
	}
	return &Suite{
		Cfg:       arch.Default(),
		Quant:     q,
		ScaleN:    2000,
		Queries:   5,
		Seed:      1,
		Shards:    8,
		Recall:    0.95,
		Nodes:     8,
		Replicas:  2,
		ChaosSeed: 42,
		cache:     make(map[string]*dataset.Dataset),
	}
}

// Data returns the (cached) scaled dataset for a Table 6 profile name.
func (s *Suite) Data(name string) (*dataset.Dataset, error) {
	if ds, ok := s.cache[name]; ok {
		return ds, nil
	}
	prof, err := dataset.ByName(name)
	if err != nil {
		return nil, err
	}
	n := s.ScaleN
	if prof.D >= 2048 {
		n = s.ScaleN / 4
	}
	if n > prof.FullN {
		n = prof.FullN
	}
	ds := dataset.Generate(prof, n, s.Seed)
	s.cache[name] = ds
	return ds, nil
}

// engine builds a fresh PIM array.
func (s *Suite) engine() (*pim.Engine, error) {
	return pim.NewEngine(s.Cfg, pim.ModeExact)
}

// newFramework wires the §III-B framework with the suite's settings.
func newFramework(s *Suite) (*core.Framework, error) {
	return core.New(s.Cfg, s.Quant.Alpha, pim.ModeExact)
}

// coreKNNOptions builds framework options for a workload, sizing Theorem 4
// against the full-scale cardinality.
func coreKNNOptions(w *knnWorkload, s *Suite) core.KNNOptions {
	return core.KNNOptions{CapacityN: w.fullN, K: 10, Pilot: w.queries}
}

// modeledMs converts a meter to total modeled milliseconds.
func (s *Suite) modeledMs(m *arch.Meter) float64 {
	_, total := s.Cfg.TimeMeter(m)
	return total.Total() / 1e6
}

// ---------------------------------------------------------------------------
// Table rendering
// ---------------------------------------------------------------------------

// Table is one experiment's result in paper-style rows.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteString("\n")
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Runner is one experiment entry point.
type Runner func(*Suite) (*Table, error)

// Registry maps experiment ids (fig5 … table7) to runners; cmd/pimbench
// drives it.
var Registry = map[string]Runner{}

func register(id string, r Runner) { Registry[id] = r }

// IDs returns the registered experiment ids in sorted order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// ms formats a modeled millisecond value.
func ms(v float64) string { return fmt.Sprintf("%.3f", v) }

// speedup formats a ratio.
func speedup(base, v float64) string {
	if v == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.1fx", base/v)
}

// pct formats a fraction as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }
