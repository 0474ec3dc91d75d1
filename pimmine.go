// Package pimmine accelerates similarity-based mining tasks (kNN
// classification, k-means clustering) on high-dimensional data with a
// simulated ReRAM processing-in-memory (PIM) substrate, reproducing
// Wang, Yiu & Shao, "Accelerating Similarity-based Mining Tasks on
// High-dimensional Data by Processing-in-memory" (ICDE 2021).
//
// The package is a thin facade over the internal packages, holding the
// names that examples/ and cmd/pimmine call (TestFacadeExportsAreCalled
// keeps it that way) for the paper's user journey:
//
//	cfg  := pimmine.DefaultConfig()            // Table 5 hardware model
//	fw,_ := pimmine.NewFramework(cfg, 1e6)     // §III-B framework, α=10⁶
//	ds   := pimmine.GenerateDataset(prof, n, seed)
//	acc,_ := fw.AccelerateKNN(ds.X, pimmine.KNNOptions{Pilot: ...})
//	nn   := acc.Optimized.Search(q, 10, pimmine.NewMeter())
//
// Everything runs for real — results are exact, verified against plain
// linear scans — while activity meters feed the architecture timing model
// that reproduces the paper's evaluation (see bench_test.go and
// EXPERIMENTS.md). Everything else — routing, resilience, mutation and
// durability, the cluster, the network front-end, fault injection — is
// internal, used from inside the module by cmd/pimserve, cmd/pimbench and
// bench/.
package pimmine

import (
	"pimmine/internal/arch"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/dbscan"
	"pimmine/internal/join"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/motif"
	"pimmine/internal/obs"
	"pimmine/internal/outlier"
	"pimmine/internal/pim"
	"pimmine/internal/quant"
	"pimmine/internal/serve"
	"pimmine/internal/vec"
)

// Hardware model and data containers.
type (
	// Config is the Table 5 hardware description (host + ReRAM PIM).
	Config = arch.Config
	// Meter accumulates modeled activity per function.
	Meter = arch.Meter
	// Matrix is a dense row-major dataset (one row per object).
	Matrix = vec.Matrix
	// BitVector is a packed binary code for Hamming workloads.
	BitVector = measure.BitVector
	// DatasetProfile describes one synthetic Table 6 dataset family.
	DatasetProfile = dataset.Profile
	// Dataset is a generated dataset with labels and query sampling.
	Dataset = dataset.Dataset
)

// The framework (§III-B) and the PIM pieces it is built from.
type (
	// Framework wires profiling, Theorem 4 sizing, PIM-aware bounds and
	// plan optimization for a given hardware model.
	Framework = core.Framework
	// KNNOptions configures Framework.AccelerateKNN.
	KNNOptions = core.KNNOptions
	// KMeansOptions configures Framework.AccelerateKMeans.
	KMeansOptions = core.KMeansOptions
	// KMeansVariant names a base k-means algorithm.
	KMeansVariant = core.KMeansVariant
	// Quantizer is the §V-B float→integer pipeline.
	Quantizer = quant.Quantizer
	// Engine is the PIM array (programming + batched dot products).
	Engine = pim.Engine
)

// The k-means variants accepted by AccelerateKMeans (the paper's four
// plus Hamerly).
const (
	Standard = core.VariantStandard
	Elkan    = core.VariantElkan
	Hamerly  = core.VariantHamerly
	Drake    = core.VariantDrake
	Yinyang  = core.VariantYinyang
)

// DefaultAlpha is the paper's quantization scaling factor (10⁶).
const DefaultAlpha = quant.DefaultAlpha

// DefaultConfig returns the paper's Table 5 hardware configuration.
func DefaultConfig() Config { return arch.Default() }

// NewMeter returns an empty activity meter.
func NewMeter() *Meter { return arch.NewMeter() }

// NewFramework builds the §III-B framework over a hardware model with
// scaling factor alpha (use DefaultAlpha for the paper's setting).
func NewFramework(cfg Config, alpha float64) (*Framework, error) {
	return core.New(cfg, alpha, pim.ModeExact)
}

// DatasetByName returns a Table 6 profile by name (e.g. "MSD").
func DatasetByName(name string) (DatasetProfile, error) { return dataset.ByName(name) }

// GenerateDataset draws n rows from a profile's mixture (seeded,
// deterministic) normalized into [0,1].
func GenerateDataset(p DatasetProfile, n int, seed int64) *Dataset {
	return dataset.Generate(p, n, seed)
}

// NewEngine builds a PIM array for direct (non-framework) use.
func NewEngine(cfg Config) (*Engine, error) { return pim.NewEngine(cfg, pim.ModeExact) }

// NewQuantizer builds the §V-B quantizer.
func NewQuantizer(alpha float64) (Quantizer, error) { return quant.New(alpha) }

// kNN searchers for direct use (the framework builds these internally).
type (
	// KNNSearcher is any kNN algorithm bound to a dataset.
	KNNSearcher = knn.Searcher
	// HDSearcher is a kNN algorithm over binary codes.
	HDSearcher = knn.HDSearcher
)

// NewExactKNN builds the exact ED linear scan baseline.
func NewExactKNN(data *Matrix) KNNSearcher { return knn.NewStandard(data) }

// NewHDExact builds the exact Hamming-scan baseline over binary codes.
func NewHDExact(codes []BitVector) HDSearcher { return knn.NewHDStandard(codes) }

// NewHDPIM builds the PIM-accelerated exact Hamming scan. capacityN is
// the full-scale code count for the capacity check.
func NewHDPIM(eng *Engine, codes []BitVector, capacityN int) (HDSearcher, error) {
	return knn.NewHDPIM(eng, codes, capacityN)
}

// SimHash returns bits-length random-hyperplane binary codes for every
// row of m (Charikar's LSH, used by the Hamming workloads).
func SimHash(m *Matrix, bits int, seed int64) []BitVector {
	return lsh.NewHasher(m.D, bits, seed).HashAll(m)
}

// KMeansInitCenters picks k distinct rows as shared initial centers.
func KMeansInitCenters(data *Matrix, k int, seed int64) (*Matrix, error) {
	return kmeans.InitCenters(data, k, seed)
}

// ---------------------------------------------------------------------------
// Extension tasks: the other similarity-based mining workloads the
// paper's introduction names (outlier detection, motif discovery,
// density-based clustering) plus similarity joins, each with a
// PIM-optimized variant.
// ---------------------------------------------------------------------------

type (
	// OutlierDetector finds distance-based outliers (Knorr–Ng DB
	// outliers and top-n kNN-distance).
	OutlierDetector = outlier.Detector
	// Outlier is one top-n kNN-distance result.
	Outlier = outlier.Outlier
	// MotifFinder locates the closest non-overlapping subsequence pair.
	MotifFinder = motif.Finder
	// DBSCANClusterer runs DBSCAN with host or PIM range queries.
	DBSCANClusterer = dbscan.Clusterer
	// Joiner joins an outer relation against a fixed inner relation
	// (kNN join and ε range join).
	Joiner = join.Joiner
)

// NewOutlierDetector builds the host-only detector.
func NewOutlierDetector(data *Matrix) *OutlierDetector { return outlier.NewDetector(data) }

// NewOutlierDetectorPIM builds the PIM-optimized detector.
func NewOutlierDetectorPIM(eng *Engine, data *Matrix, q Quantizer, capacityN int) (*OutlierDetector, error) {
	return outlier.NewDetectorPIM(eng, data, q, capacityN)
}

// MotifWindows expands a series into normalized sliding windows.
func MotifWindows(series []float64, w int) (*Matrix, float64, error) {
	return motif.Windows(series, w)
}

// NewMotifFinder builds the host-only finder.
func NewMotifFinder(windows *Matrix) *MotifFinder { return motif.NewFinder(windows) }

// NewMotifFinderPIM builds the PIM-optimized finder.
func NewMotifFinderPIM(eng *Engine, windows *Matrix, q Quantizer, capacityN int) (*MotifFinder, error) {
	return motif.NewFinderPIM(eng, windows, q, capacityN)
}

// NewDBSCAN builds the host-only clusterer.
func NewDBSCAN(data *Matrix) *DBSCANClusterer { return dbscan.New(data) }

// NewDBSCANPIM builds the PIM-optimized clusterer.
func NewDBSCANPIM(eng *Engine, data *Matrix, q Quantizer, capacityN int) (*DBSCANClusterer, error) {
	return dbscan.NewPIM(eng, data, q, capacityN)
}

// NewJoiner builds the host-only joiner over the inner relation.
func NewJoiner(s *Matrix) *Joiner { return join.NewJoiner(s) }

// NewJoinerPIM builds the PIM-optimized joiner.
func NewJoinerPIM(eng *Engine, s *Matrix, q Quantizer, capacityN int) (*Joiner, error) {
	return join.NewJoinerPIM(eng, s, q, capacityN)
}

// The sharded concurrent query engine (internal/serve): the dataset is
// partitioned row-wise across shards, each shard owns an independent
// (PIM-accelerated) searcher, and queries fan out and merge into the
// exact global top-k.
type (
	// QueryEngine serves concurrent kNN queries over a sharded dataset.
	QueryEngine = serve.Engine
	// QueryEngineOptions configures NewQueryEngine; set Obs to an
	// Observer for metrics and traces.
	QueryEngineOptions = serve.Options
	// Observer bundles a metrics registry and a tracer (internal/obs).
	Observer = obs.Observer
	// ObserverConfig configures NewObserver (sampling rate, buffers).
	ObserverConfig = obs.Config
)

// The per-shard searcher variants accepted by QueryEngineOptions.Variant.
const (
	ServeStandard    = serve.VariantStandard
	ServeOST         = serve.VariantOST
	ServeSM          = serve.VariantSM
	ServeFNN         = serve.VariantFNN
	ServeStandardPIM = serve.VariantStandardPIM
	ServeOSTPIM      = serve.VariantOSTPIM
	ServeSMPIM       = serve.VariantSMPIM
	ServeFNNPIM      = serve.VariantFNNPIM
)

// NewQueryEngine partitions data across shards and builds one searcher
// per shard. PIM variants need Options.Framework; a shard whose searcher
// construction fails degrades to the exact host scan and is reported by
// the engine (results stay exact).
func NewQueryEngine(data *Matrix, opts QueryEngineOptions) (*QueryEngine, error) {
	return serve.New(data, opts)
}

// NewObserver builds an observability handle. SampleRate 1 traces every
// query, R traces one in R, 0 disables tracing (metrics stay on).
// Observer.Handler() serves /metrics, /debug/vars and /debug/traces.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }
