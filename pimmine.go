// Package pimmine accelerates similarity-based mining tasks (kNN
// classification, k-means clustering) on high-dimensional data with a
// simulated ReRAM processing-in-memory (PIM) substrate, reproducing
// Wang, Yiu & Shao, "Accelerating Similarity-based Mining Tasks on
// High-dimensional Data by Processing-in-memory" (ICDE 2021).
//
// The package is a facade over the focused internal packages; the types
// exposed here cover the full user journey:
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
// EXPERIMENTS.md).
package pimmine

import (
	"pimmine/internal/arch"
	"pimmine/internal/cluster"
	"pimmine/internal/core"
	"pimmine/internal/dataset"
	"pimmine/internal/dbscan"
	"pimmine/internal/delta"
	"pimmine/internal/fault"
	"pimmine/internal/join"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/lsh"
	"pimmine/internal/measure"
	"pimmine/internal/motif"
	"pimmine/internal/netserve"
	"pimmine/internal/obs"
	"pimmine/internal/outlier"
	"pimmine/internal/pim"
	"pimmine/internal/plan"
	"pimmine/internal/profile"
	"pimmine/internal/quant"
	"pimmine/internal/resilience"
	"pimmine/internal/route"
	"pimmine/internal/serve"
	"pimmine/internal/standing"
	"pimmine/internal/vec"
	"pimmine/internal/wal"
)

// Hardware model and activity accounting.
type (
	// Config is the Table 5 hardware description (host + ReRAM PIM).
	Config = arch.Config
	// Meter accumulates modeled activity per function.
	Meter = arch.Meter
	// Breakdown is Eq. 1's time decomposition plus the PIM component.
	Breakdown = arch.Breakdown
)

// Data containers.
type (
	// Matrix is a dense row-major dataset (one row per object).
	Matrix = vec.Matrix
	// Neighbor is one kNN result.
	Neighbor = vec.Neighbor
	// BitVector is a packed binary code for Hamming workloads.
	BitVector = measure.BitVector
	// DatasetProfile describes one synthetic Table 6 dataset family.
	DatasetProfile = dataset.Profile
	// Dataset is a generated dataset with labels and query sampling.
	Dataset = dataset.Dataset
)

// The framework (§III-B) and its outputs.
type (
	// Framework wires profiling, Theorem 4 sizing, PIM-aware bounds and
	// plan optimization for a given hardware model.
	Framework = core.Framework
	// KNNOptions configures Framework.AccelerateKNN.
	KNNOptions = core.KNNOptions
	// KNNAcceleration is AccelerateKNN's result bundle.
	KNNAcceleration = core.KNNAcceleration
	// KMeansOptions configures Framework.AccelerateKMeans.
	KMeansOptions = core.KMeansOptions
	// KMeansAcceleration is AccelerateKMeans's result bundle.
	KMeansAcceleration = core.KMeansAcceleration
	// KMeansVariant names a base k-means algorithm.
	KMeansVariant = core.KMeansVariant
	// Profile is a §IV profiling report.
	Profile = profile.Report
	// Plan is a §V-D execution plan.
	Plan = plan.Plan
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

// NewSimulatedFramework is NewFramework with every PIM dot product routed
// through the bit-sliced functional crossbar simulator — slow, intended
// for demos and verification.
func NewSimulatedFramework(cfg Config, alpha float64) (*Framework, error) {
	return core.New(cfg, alpha, pim.ModeSimulate)
}

// FaultModel configures injected PIM hardware faults (internal/fault):
// stuck-at-0/1 cells, bounded conductance drift, transient read noise,
// and whole-crossbar failure, all deterministic per seed.
type FaultModel = fault.Model

// NewFaultyFramework is NewFramework with every PIM array suffering the
// given injected faults. Mining results remain bit-identical to the
// fault-free (and host-exact) path: cell-level errors are absorbed by
// widening the PIM bounds with the injected error envelope, and vectors
// behind dead crossbars are never pruned and refined exactly on the host
// (the serve layer degrades whole shards with dead crossbars to host
// scans). Fault activity is reported through Meter counters (PIMFaults,
// PIMRecovered) and Engine.FaultCounts.
func NewFaultyFramework(cfg Config, alpha float64, model FaultModel) (*Framework, error) {
	return core.NewFaulty(cfg, alpha, pim.ModeExact, &model)
}

// DatasetProfiles lists the eight Table 6 synthetic dataset families.
func DatasetProfiles() []DatasetProfile { return dataset.Profiles }

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

// NewProfile profiles a meter under a hardware configuration (§IV).
func NewProfile(algorithm string, cfg Config, m *Meter) *Profile {
	return profile.New(algorithm, cfg, m)
}

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

// k-means algorithms for direct use.
type KMeansAlgorithm = kmeans.Algorithm

// KMeansInitCenters picks k distinct rows as shared initial centers.
func KMeansInitCenters(data *Matrix, k int, seed int64) (*Matrix, error) {
	return kmeans.InitCenters(data, k, seed)
}

// KMeansInitPlusPlus picks k initial centers with k-means++ seeding
// (Arthur & Vassilvitskii), deterministic per seed.
func KMeansInitPlusPlus(data *Matrix, k int, seed int64) (*Matrix, error) {
	return kmeans.InitCentersPlusPlus(data, k, seed)
}

// NewLloyd builds the Standard (Lloyd) baseline.
func NewLloyd(data *Matrix) KMeansAlgorithm { return kmeans.NewLloyd(data) }

// ErrorBound returns Theorem 3's bound on the LB_PIM-ED quantization gap
// for d dimensions under quantizer q.
func ErrorBound(q Quantizer, d int) float64 { return q.ErrorBound(d) }

// ---------------------------------------------------------------------------
// Extension tasks: the other similarity-based mining workloads the
// paper's introduction names (outlier detection, motif discovery) plus
// similarity joins, each with a PIM-optimized variant.
// ---------------------------------------------------------------------------

// Outlier detection (Knorr–Ng DB outliers and top-n kNN-distance).
type (
	// OutlierDetector finds distance-based outliers.
	OutlierDetector = outlier.Detector
	// Outlier is one top-n kNN-distance result.
	Outlier = outlier.Outlier
)

// NewOutlierDetector builds the host-only detector.
func NewOutlierDetector(data *Matrix) *OutlierDetector { return outlier.NewDetector(data) }

// NewOutlierDetectorPIM builds the PIM-optimized detector.
func NewOutlierDetectorPIM(eng *Engine, data *Matrix, q Quantizer, capacityN int) (*OutlierDetector, error) {
	return outlier.NewDetectorPIM(eng, data, q, capacityN)
}

// Time-series motif discovery.
type (
	// MotifFinder locates the closest non-overlapping subsequence pair.
	MotifFinder = motif.Finder
	// Motif is one discovered pair.
	Motif = motif.Motif
)

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

// Density-based clustering (DBSCAN; §II-C names density-based
// clustering among the framework's target tasks).
type (
	// DBSCANClusterer runs DBSCAN with host or PIM range queries.
	DBSCANClusterer = dbscan.Clusterer
	// DBSCANResult is one clustering outcome.
	DBSCANResult = dbscan.Result
)

// NewDBSCAN builds the host-only clusterer.
func NewDBSCAN(data *Matrix) *DBSCANClusterer { return dbscan.New(data) }

// NewDBSCANPIM builds the PIM-optimized clusterer.
func NewDBSCANPIM(eng *Engine, data *Matrix, q Quantizer, capacityN int) (*DBSCANClusterer, error) {
	return dbscan.NewPIM(eng, data, q, capacityN)
}

// Similarity joins (kNN join and ε range join).
type (
	// Joiner joins an outer relation against a fixed inner relation.
	Joiner = join.Joiner
	// JoinPair is one ε-join result.
	JoinPair = join.Pair
)

// NewJoiner builds the host-only joiner over the inner relation.
func NewJoiner(s *Matrix) *Joiner { return join.NewJoiner(s) }

// NewJoinerPIM builds the PIM-optimized joiner.
func NewJoinerPIM(eng *Engine, s *Matrix, q Quantizer, capacityN int) (*Joiner, error) {
	return join.NewJoinerPIM(eng, s, q, capacityN)
}

// KNNClassifier turns any searcher into a majority-vote classifier.
type KNNClassifier = knn.Classifier

// NewKNNClassifier builds a classifier over a labeled dataset.
func NewKNNClassifier(s KNNSearcher, labels []int, k int) (*KNNClassifier, error) {
	return knn.NewClassifier(s, labels, k)
}

// DynamicKNN is the insert-capable PIM index (§VII future-work
// exploration): crossbar headroom is reserved up front, inserts program
// only fresh cells (endurance-free), and searches stay exact.
type DynamicKNN = knn.DynamicPIM

// NewDynamicKNN indexes initial rows and reserves headroom for
// reserveRows total rows.
func NewDynamicKNN(eng *Engine, initial *Matrix, q Quantizer, reserveRows int) (*DynamicKNN, error) {
	return knn.NewDynamicPIM(eng, initial, q, reserveRows)
}

// KNNBatchResult is the outcome of a concurrent batch search.
type KNNBatchResult = knn.BatchResult

// SearchKNNBatch answers a query matrix concurrently with per-worker
// searchers (see knn.SearchBatch).
func SearchKNNBatch(newSearcher func() (KNNSearcher, error), queries *Matrix, k, workers int) (*KNNBatchResult, error) {
	return knn.SearchBatch(newSearcher, queries, k, workers)
}

// The sharded concurrent query engine (internal/serve): the serving layer
// for sustained multi-tenant traffic. The dataset is partitioned row-wise
// across shards, each shard owns an independent (PIM-accelerated)
// searcher, and queries fan out and merge into the exact global top-k.
type (
	// QueryEngine serves concurrent kNN queries over a sharded dataset.
	QueryEngine = serve.Engine
	// QueryEngineOptions configures NewQueryEngine.
	QueryEngineOptions = serve.Options
	// QueryResult is one query's neighbors plus merged activity.
	QueryResult = serve.Result
	// QueryBatchResult is a batch submission's outcome.
	QueryBatchResult = serve.BatchResult
	// SearcherVariant names the per-shard searcher algorithm.
	SearcherVariant = serve.Variant
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

// SearcherVariants lists every supported per-shard variant.
func SearcherVariants() []SearcherVariant { return serve.Variants() }

// NewQueryEngine partitions data across shards and builds one searcher
// per shard. PIM variants need Options.Framework; a shard whose searcher
// construction fails degrades to the exact host scan and is reported by
// the engine (results stay exact).
func NewQueryEngine(data *Matrix, opts QueryEngineOptions) (*QueryEngine, error) {
	return serve.New(data, opts)
}

// Overload-resilient serving (internal/resilience): set
// QueryEngineOptions.Resilience (or MutableEngineOptions.Options
// .Resilience) to engage admission control, deadline-aware shedding,
// per-shard circuit breakers and a transient-fault retry budget. Only
// admission is lossy — a rejected or shed query is one of the typed
// errors below — and every admitted query still returns exact results.
type (
	// ResilienceConfig bundles the overload-protection knobs for one
	// serving engine; the zero value disables everything.
	ResilienceConfig = resilience.Config
	// CircuitBreakerConfig configures the per-shard breakers.
	CircuitBreakerConfig = resilience.BreakerConfig
	// RetryBudgetConfig configures the transient-fault retry budget.
	RetryBudgetConfig = resilience.RetryConfig
	// CircuitState is a breaker position (closed / open / half-open).
	CircuitState = resilience.State
)

// The typed rejection errors of the resilience pipeline. Match with
// errors.Is; the chains are pinned by resilience_facade_test.go.
var (
	// ErrOverloaded: rejected by admission control (concurrency cap and
	// wait queue both full).
	ErrOverloaded = resilience.ErrOverloaded
	// ErrShedDeadline: shed before dispatch — the remaining deadline was
	// below the observed p95 service time.
	ErrShedDeadline = resilience.ErrShedDeadline
	// ErrCircuitOpen: refused by an open circuit breaker. Engine queries
	// never surface it (an open shard breaker reroutes to the exact host
	// scan); it is exported for direct resilience.Breaker users.
	ErrCircuitOpen = resilience.ErrCircuitOpen
	// ErrQueryTimeout: the engine-applied QueryTimeout elapsed. It also
	// matches context.DeadlineExceeded, so pre-existing deadline checks
	// keep working; a caller-imposed deadline matches only the latter.
	ErrQueryTimeout = serve.ErrQueryTimeout
	// ErrEngineClosed: query issued after Close.
	ErrEngineClosed = serve.ErrClosed
	// ErrQuotaExceeded: refused by a tenant's token-bucket quota at the
	// network boundary (HTTP 429 with a refill-derived Retry-After).
	ErrQuotaExceeded = resilience.ErrQuotaExceeded
)

// DefaultResilience returns a production-shaped resilience config sized
// to a worker count (admission at the pool width, shedding at 1×p95,
// breakers after 8 consecutive fault-hit queries, 5% retry budget).
func DefaultResilience(workers int) ResilienceConfig { return resilience.Default(workers) }

// The network serving front-end (internal/netserve): an HTTP/1.1 +
// cleartext-HTTP/2 JSON server over a QueryEngine with per-tenant
// token-bucket quotas, weighted-fair queueing, a typed-sentinel →
// status-code wire contract (429 with Retry-After for ErrOverloaded /
// ErrShedDeadline / ErrQuotaExceeded, 504 for ErrQueryTimeout, 503 for
// ErrEngineClosed and drain), streaming NDJSON batch responses, and
// graceful drain. Wire results are byte-identical to direct facade
// calls (the differential suite in internal/netserve pins it).
type (
	// NetServer serves a QueryEngine over HTTP; it is an http.Handler
	// and NewHTTPServer wraps it for an h2c listener.
	NetServer = netserve.Server
	// NetServerOptions configures NewNetServer.
	NetServerOptions = netserve.Options
	// NetTenantConfig provisions one tenant's quota and fairness weight.
	NetTenantConfig = netserve.TenantConfig
)

// NewNetServer builds the HTTP front-end over opts.Engine. The server
// owns the engine's shutdown: NetServer.Drain completes in-flight
// requests, 503s new arrivals, and closes the engine.
func NewNetServer(opts NetServerOptions) (*NetServer, error) { return netserve.New(opts) }

// ErrBodyTooLarge: a request body over NetServerOptions.MaxBodyBytes,
// declared or found while reading (HTTP 413).
var ErrBodyTooLarge = netserve.ErrBodyTooLarge

// Mutable serving (internal/delta + internal/serve): the query engine
// with Insert/Update/Delete. Mutations land in a host-side delta buffer
// (exact floats) with tombstones masking replaced or deleted
// crossbar-resident rows; every query merges the bound-pruned base
// search with a brute-force delta scan, so results stay exact —
// byte-identical to a fresh engine over the equivalent final dataset. A
// compactor folds delta and tombstones back into freshly quantized base
// images, choosing crossbars by a per-tile write-cycle (endurance)
// ledger and re-running the Theorem 4 dimension split for the new
// occupancy.
type (
	// MutableEngine is the sharded mutable query engine.
	MutableEngine = serve.MutableEngine
	// MutableEngineOptions configures NewMutableEngine.
	MutableEngineOptions = serve.MutableOptions
	// DeltaStats reports one shard's delta/tombstone/compaction state.
	DeltaStats = delta.Stats
)

// ErrEndurance is returned by compaction when no crossbar has
// write-cycle budget left for a fresh image; the store keeps serving
// its current epoch exactly.
var ErrEndurance = delta.ErrEndurance

// NewMutableEngine builds a mutable query engine over data. Rows keep
// ids 0..N-1; Insert extends the id space monotonically. Queries run
// lock-free against mutations and background compaction via per-shard
// epoch snapshots.
func NewMutableEngine(data *Matrix, opts MutableEngineOptions) (*MutableEngine, error) {
	return serve.NewMutable(data, opts)
}

// Durable mutable serving (internal/wal + internal/serve): set
// MutableEngineOptions.Durability.Dir to make every mutation
// write-ahead logged (CRC-checked frames, fsync before apply under the
// default SyncAlways policy) with periodic snapshot checkpoints. After
// a crash, RecoverMutableEngine rebuilds the engine from the latest
// snapshot plus a strict log replay; the recovered engine's answers are
// bit-identical to the pre-crash engine's across every mining task, and
// it continues the id and shard-placement sequence exactly.
// MutableEngine.Checkpoint snapshots the current state and truncates
// the log so recovery cost stays bounded.
type (
	// DurabilityConfig configures the WAL + snapshot layer; the zero
	// value (empty Dir) disables durability.
	DurabilityConfig = serve.Durability
	// WALSyncPolicy chooses when appends fsync.
	WALSyncPolicy = wal.SyncPolicy
)

// The WAL fsync policies accepted by DurabilityConfig.Policy.
const (
	// WALSyncAlways fsyncs every record before it is applied (default).
	WALSyncAlways = wal.SyncAlways
	// WALSyncInterval fsyncs on a timer; a crash can lose the tail
	// since the last sync, but the surviving prefix replays exactly.
	WALSyncInterval = wal.SyncInterval
	// WALSyncNever leaves syncing to Close (and the OS).
	WALSyncNever = wal.SyncNever
)

// The typed durability errors. Match with errors.Is.
var (
	// ErrNotDurable: a durability operation (Checkpoint) on an engine
	// built without DurabilityConfig.Dir.
	ErrNotDurable = serve.ErrNotDurable
	// ErrDurableState: NewMutableEngine pointed at a directory that
	// already holds WAL/snapshot state — recover it instead of
	// silently shadowing it.
	ErrDurableState = serve.ErrDurableState
	// ErrNoDurableState: RecoverMutableEngine pointed at a directory
	// with nothing to recover.
	ErrNoDurableState = serve.ErrNoDurableState
)

// RecoverMutableEngine rebuilds a durable mutable engine from
// opts.Durability.Dir: latest snapshot, then strict WAL replay (a torn
// final frame from the crash is tolerated; any other corruption or LSN
// gap is a typed error). Shard count is restored from the snapshot.
func RecoverMutableEngine(opts MutableEngineOptions) (*MutableEngine, error) {
	return serve.RecoverMutable(opts)
}

// Standing queries (internal/standing): register a query once against a
// mutable engine and be notified as mutations change its answer. A kNN
// subscription delivers the initial view and then the full re-merged
// view after every mutation that changes it; a radius subscription
// fires once per future insert within the distance. Events arrive on a
// bounded channel — a slow consumer loses intermediate events (counted,
// and visible as sequence-number gaps), never stream integrity. The
// network front-end exposes subscriptions as streaming NDJSON on
// POST /v1/subscribe.
type (
	// StandingSubscription is one registered standing query.
	StandingSubscription = standing.Subscription
	// StandingEvent is one notification (init, update, or match).
	StandingEvent = standing.Event
	// StandingEventKind discriminates StandingEvent.
	StandingEventKind = standing.Kind
)

// The standing-query event kinds.
const (
	// StandingInit carries the subscription's initial kNN view.
	StandingInit = standing.KindInit
	// StandingUpdate carries a changed kNN view.
	StandingUpdate = standing.KindUpdate
	// StandingMatch reports an insert within a radius watch.
	StandingMatch = standing.KindMatch
)

// The typed standing-query errors. Match with errors.Is.
var (
	// ErrBadSubscription: invalid subscription parameters (dims, k,
	// radius).
	ErrBadSubscription = standing.ErrBadSubscription
	// ErrStandingClosed: subscribing against a closed engine.
	ErrStandingClosed = standing.ErrClosed
)

// Multi-node placement (internal/cluster): the serving engine's shards
// distributed over simulated PIM nodes by consistent hashing, each
// shard R-way replicated (default R=2) on distinct nodes. Because
// replicas apply identical mutation sequences, any current replica
// serves bit-identical answers — so a node kill, pause, partition or
// breaker-open fails over invisibly: the differential suite pins all
// six mining tasks byte-identical with any single node down. Repair
// (anti-entropy) re-ships PIMSNAP1 images to the least-worn nodes until
// replication is restored; ClusterChaos drives deterministic seeded
// failure schedules for testing.
type (
	// ClusterEngine is the multi-node placement engine. It serves the
	// same query, mutation and subscription surface as MutableEngine
	// and can front NetServerOptions.Cluster.
	ClusterEngine = cluster.Engine
	// ClusterOptions configures NewClusterEngine (nodes, replicas,
	// shards, placement seed, per-node breakers, link bandwidth).
	ClusterOptions = cluster.Options
	// ClusterNodeState describes one node for introspection.
	ClusterNodeState = cluster.NodeState
	// ClusterShipStats accounts snapshot shipping (count, bytes, and
	// modeled transfer time at ClusterOptions.LinkGBs).
	ClusterShipStats = cluster.ShipStats
	// ClusterChaos is the deterministic chaos harness: node kill,
	// restore+repair, pause, partition, slow — from a seeded schedule.
	ClusterChaos = cluster.Chaos
	// ClusterChaosConfig tunes the harness.
	ClusterChaosConfig = cluster.ChaosConfig
)

// The typed cluster degradation errors. Match with errors.Is.
var (
	// ErrNoQuorum: some shard has no live, reachable, current replica.
	ErrNoQuorum = cluster.ErrNoQuorum
	// ErrNodeDown: an admin operation addressed a dead node.
	ErrNodeDown = cluster.ErrNodeDown
	// ErrRebalancing: a shard's surviving replicas are stale (writes
	// landed while their nodes were unavailable); Repair restores them.
	ErrRebalancing = cluster.ErrRebalancing
)

// NewClusterEngine places data's shards onto opts.Nodes simulated PIM
// nodes with opts.Replicas-way replication and serves exact queries
// with transparent failover.
func NewClusterEngine(data *Matrix, opts ClusterOptions) (*ClusterEngine, error) {
	return cluster.New(data, opts)
}

// NewClusterChaos builds a seeded failure injector over a cluster
// engine; identical seeds over identical engines replay identical
// schedules.
func NewClusterChaos(eng *ClusterEngine, seed int64, cfg ClusterChaosConfig) *ClusterChaos {
	return cluster.NewChaos(eng, seed, cfg)
}

// Observability (internal/obs): a concurrency-safe metrics registry
// (atomic counters, gauges, fixed-bucket latency histograms with
// interpolated p50/p95/p99) plus head-sampled per-query span traces, with
// Prometheus text-format and expvar JSON exposition over net/http.
type (
	// Observer bundles a metrics registry and a tracer; pass one to
	// NewObservedEngine (or set QueryEngineOptions.Obs / Framework.Obs).
	Observer = obs.Observer
	// ObserverConfig configures NewObserver (sampling rate, buffers).
	ObserverConfig = obs.Config
	// MetricsRegistry registers counters/gauges/histograms and renders
	// Prometheus or expvar JSON exposition.
	MetricsRegistry = obs.Registry
	// QueryTrace is one sampled query's span tree, renderable as a text
	// flame view.
	QueryTrace = obs.Trace
)

// NewObserver builds an observability handle. SampleRate 1 traces every
// query, R traces one in R, 0 disables tracing (metrics stay on).
// Observer.Handler() serves /metrics, /debug/vars and /debug/traces.
func NewObserver(cfg ObserverConfig) *Observer { return obs.New(cfg) }

// NewObservedEngine is NewQueryEngine wired into an observer: query and
// per-shard counters, latency histograms, meter/fault collectors, and —
// for sampled queries — the full engine → shard → bound-eval → pim-dot →
// refine span tree.
func NewObservedEngine(data *Matrix, opts QueryEngineOptions, o *Observer) (*QueryEngine, error) {
	opts.Obs = o
	return serve.New(data, opts)
}

// Sketch-based shard routing (internal/route): a per-shard summary tier
// consulted before fan-out so a query only dispatches to shards that can
// contribute to its top-k. Exact mode prunes with admissible geometric
// lower bounds (results stay bit-identical to the unrouted engine);
// approximate mode ranks shards by SimHash similarity mass over a KMV
// row sample and visits a recall-targeted prefix. Attach a Router via
// QueryEngineOptions.Router (or MutableEngineOptions.Options.Router);
// the mutable engine keeps the summaries fresh through inserts and
// compaction automatically.
type (
	// Router scores shards for a query; build with NewRouter.
	Router = route.Router
	// RouterConfig configures NewRouter; the zero value means exact
	// default mode, 64-bit sketches, 32-row samples, Recall 0.95.
	RouterConfig = route.Config
	// RouteMode selects the routing strategy per query.
	RouteMode = route.Mode
	// RouteInfo annotates a routed QueryResult (visited/skipped shard
	// counts, estimated and audited recall).
	RouteInfo = serve.RouteInfo
)

// The per-query routing modes accepted by SearchMode and the wire's
// "mode" field.
const (
	// RouteAuto uses the router's configured default mode (and plain
	// full fan-out when no router is attached).
	RouteAuto = route.ModeAuto
	// RouteExact prunes only provably non-contributing shards.
	RouteExact = route.ModeExact
	// RouteApprox visits a recall-targeted prefix of shards.
	RouteApprox = route.ModeApprox
)

// The typed routing errors. Match with errors.Is.
var (
	// ErrRouterShardMismatch: the router was built for a different shard
	// count or dimensionality than the engine adopting it.
	ErrRouterShardMismatch = route.ErrShardMismatch
	// ErrNoRouter: an explicit routing mode was requested from an engine
	// with no router attached.
	ErrNoRouter = serve.ErrNoRouter
)

// ParseRouteMode validates a wire-format mode string ("", "exact",
// "approx").
func ParseRouteMode(s string) (RouteMode, error) { return route.ParseMode(s) }

// NewRouter builds a router over data placed into shards by norm: an
// equi-depth split on ‖v‖ (ties by id, sizes differing by at most one
// row), so each shard's norm range excludes it from queries it cannot
// answer. NewQueryEngine, NewMutableEngine and NewClusterEngine built over
// the same data with this router partition by its placement; without a
// router they keep contiguous row ranges.
func NewRouter(cfg RouterConfig, data *Matrix, shards int) (*Router, error) {
	return route.NewEven(cfg, data, shards)
}

// NewShardRouter builds a router over an explicit shard partition.
func NewShardRouter(cfg RouterConfig, shards []*Matrix) (*Router, error) {
	return route.New(cfg, shards)
}

// HammingDistance is the exact HD between two codes.
func HammingDistance(a, b BitVector) int { return measure.Hamming(a, b) }

// SqEuclidean is the paper's (squared) ED similarity measure.
func SqEuclidean(p, q []float64) float64 { return measure.SqEuclidean(p, q) }

// Compile-time checks that the PIM searchers satisfy the public
// interfaces.
var (
	_ KNNSearcher = (*knn.Cascade)(nil)
	_ HDSearcher  = (*knn.HDPIM)(nil)
)
