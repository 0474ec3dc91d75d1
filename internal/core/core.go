// Package core implements the paper's systematic framework (§III-B): given
// a similarity-based mining algorithm, it
//
//  1. profiles the algorithm to find the bottleneck function and the
//     PIM-oracle gain estimate (§IV),
//  2. checks the bottleneck is PIM-aware (§V-A) and sizes the compressed
//     dimensionality with Theorem 4 (§V-C),
//  3. builds the PIM-optimized algorithm with the bottleneck bound
//     replaced by its PIM-aware bound (§V-B), and
//  4. measures pruning ratios and runs the §V-D execution-plan optimizer
//     to drop redundant original bounds.
//
// It is the high-level entry point the examples and the experiment
// harness drive; the individual mechanisms live in the focused packages
// (pimbound, pim, profile, plan, knn, kmeans).
package core

import (
	"fmt"
	"sync/atomic"

	"pimmine/internal/arch"
	"pimmine/internal/fault"
	"pimmine/internal/kmeans"
	"pimmine/internal/knn"
	"pimmine/internal/obs"
	"pimmine/internal/pim"
	"pimmine/internal/plan"
	"pimmine/internal/profile"
	"pimmine/internal/quant"
	"pimmine/internal/vec"
)

// Framework holds the hardware model and quantization settings shared by
// every acceleration it produces.
type Framework struct {
	Cfg   arch.Config
	Quant quant.Quantizer
	Mode  pim.Mode
	// Fault, when non-nil, equips every engine the framework creates with
	// a fault injector (internal/fault): dot products pass through the
	// configured hardware faults, bounds are widened by the error envelope
	// so results stay exact, and dead crossbars trigger host fallbacks.
	Fault *fault.Model
	// Obs, when non-nil, receives framework-level observability events
	// (which §V-D plan was chosen and why) on its event ring.
	Obs *obs.Observer

	engSeq int64 // engines created so far, for per-engine fault seeds
}

// New builds a framework for the given architecture and scaling factor α.
func New(cfg arch.Config, alpha float64, mode pim.Mode) (*Framework, error) {
	return NewFaulty(cfg, alpha, mode, nil)
}

// NewFaulty builds a framework whose PIM arrays suffer the given injected
// faults (nil model behaves exactly like New).
func NewFaulty(cfg arch.Config, alpha float64, mode pim.Mode, model *fault.Model) (*Framework, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if model != nil {
		if err := model.Validate(); err != nil {
			return nil, err
		}
	}
	q, err := quant.New(alpha)
	if err != nil {
		return nil, err
	}
	return &Framework{Cfg: cfg, Quant: q, Mode: mode, Fault: model}, nil
}

// Default builds a framework with the paper's Table 5 hardware and α=10⁶.
func Default() (*Framework, error) {
	return New(arch.Default(), quant.DefaultAlpha, pim.ModeExact)
}

// NewEngine creates a fresh PIM array under the framework's hardware
// model. Payload names are scoped per engine and §V-C forbids
// re-programming, so every acceleration — and every shard of a sharded
// serving engine (internal/serve) — owns its own array. Under a fault
// model, each engine draws an independent fault universe derived from the
// model seed and the engine's creation sequence number.
func (f *Framework) NewEngine() (*pim.Engine, error) {
	if f.Fault == nil {
		return pim.NewEngine(f.Cfg, f.Mode)
	}
	m := *f.Fault
	m.Seed = fault.DeriveSeed(m.Seed, int(atomic.AddInt64(&f.engSeq, 1)))
	inj, err := fault.NewInjector(m, f.Cfg.Crossbar)
	if err != nil {
		return nil, err
	}
	return pim.NewFaultyEngine(f.Cfg, f.Mode, inj)
}

// ---------------------------------------------------------------------------
// kNN acceleration
// ---------------------------------------------------------------------------

// KNNOptions configures AccelerateKNN.
type KNNOptions struct {
	// CapacityN is the full-scale dataset cardinality used for the
	// Theorem 4 admission check; defaults to the generated data's N.
	CapacityN int
	// K is the neighbor count the pilot profiling uses (default 10, the
	// paper's kNN default).
	K int
	// Pilot holds pilot query vectors for profiling and pruning-ratio
	// measurement; at least one row is required.
	Pilot *vec.Matrix
}

// KNNAcceleration is the framework's output for a kNN workload.
type KNNAcceleration struct {
	// Baseline is the host FNN cascade the framework profiled.
	Baseline *knn.Cascade
	// PIM is the default §V plan: bottleneck bound replaced by
	// LB_PIM-FNN, remaining original bounds kept.
	PIM *knn.Cascade
	// Optimized is Plan compiled to a cascade (knn.FromPlan): exactly the
	// bounds Eq. 13 kept, in plan order.
	Optimized *knn.Cascade
	// BaselineProfile is the §IV profile of the baseline on the pilot.
	BaselineProfile *profile.Report
	// OracleNs is Eq. 2's T_PIM-oracle for the pilot workload.
	OracleNs float64
	// Plan is the chosen §V-D execution plan.
	Plan plan.Plan
	// PlanDecision carries the Eq. 13 rationale behind Plan (costs of the
	// alternatives, which candidate bounds were dropped).
	PlanDecision plan.Decision
	// S is the Theorem 4 compressed dimensionality.
	S int
}

// AccelerateKNN runs the full framework pipeline on an ED kNN workload.
func (f *Framework) AccelerateKNN(data *vec.Matrix, opt KNNOptions) (*KNNAcceleration, error) {
	if opt.Pilot == nil || opt.Pilot.N == 0 {
		return nil, fmt.Errorf("core: AccelerateKNN needs at least one pilot query")
	}
	if opt.K <= 0 {
		opt.K = 10
	}
	if opt.CapacityN <= 0 {
		opt.CapacityN = data.N
	}

	// 1. Profile the baseline (§IV).
	baseline, err := knn.NewFNN(data)
	if err != nil {
		return nil, err
	}
	meter := arch.NewMeter()
	for qi := 0; qi < opt.Pilot.N; qi++ {
		baseline.Search(opt.Pilot.Row(qi), opt.K, meter)
	}
	prof := profile.New(baseline.Name(), f.Cfg, meter)
	if !profile.PIMAware(prof.Bottleneck()) {
		return nil, fmt.Errorf("core: bottleneck %q is not PIM-aware; PIM offers no offload target", prof.Bottleneck())
	}

	// 2–3. Build the default PIM plan (Theorem 4 sizing happens inside).
	eng, err := f.NewEngine()
	if err != nil {
		return nil, err
	}
	pimAlg, err := knn.NewFNNPIM(eng, data, f.Quant, opt.CapacityN)
	if err != nil {
		return nil, err
	}

	// 4. Measure pruning ratios on the pilot (on the indexes the two
	// cascades already built), optimize the plan and compile it.
	candidates, err := knn.Candidates(data, opt.Pilot, opt.K, pimAlg, baseline)
	if err != nil {
		return nil, err
	}
	decision, err := plan.Decide(opt.CapacityN, data.D, candidates)
	if err != nil {
		return nil, err
	}
	best := decision.Chosen
	f.Obs.Event("plan.chosen",
		obs.A("plan", best.String()),
		obs.A("reason", decision.Reason()))
	optEng, err := f.NewEngine()
	if err != nil {
		return nil, err
	}
	optimized, err := knn.FromPlan(best, optEng, data, f.Quant)
	if err != nil {
		return nil, err
	}

	return &KNNAcceleration{
		Baseline:        baseline,
		PIM:             pimAlg,
		Optimized:       optimized,
		BaselineProfile: prof,
		OracleNs:        prof.PIMOracleAuto(),
		Plan:            best,
		PlanDecision:    decision,
		S:               pimAlg.S(),
	}, nil
}

// ---------------------------------------------------------------------------
// k-means acceleration
// ---------------------------------------------------------------------------

// KMeansVariant names the base algorithm to accelerate.
type KMeansVariant string

// The four §VI-D base algorithms, plus Hamerly (the single-bound member
// of the family Drake interpolates from — an extension beyond the paper).
const (
	VariantStandard KMeansVariant = "Standard"
	VariantElkan    KMeansVariant = "Elkan"
	VariantHamerly  KMeansVariant = "Hamerly"
	VariantDrake    KMeansVariant = "Drake"
	VariantYinyang  KMeansVariant = "Yinyang"
)

// KMeansOptions configures AccelerateKMeans.
type KMeansOptions struct {
	// CapacityN defaults to the data's N (see KNNOptions.CapacityN).
	CapacityN int
	// K is the cluster count for pilot profiling (default 64, the
	// paper's Fig 5/6 setting).
	K int
	// MaxIters bounds the pilot run (default 10).
	MaxIters int
	// Seed selects the §VI-A shared initial centers.
	Seed int64
}

// KMeansAcceleration is the framework's output for a k-means workload.
type KMeansAcceleration struct {
	Baseline        kmeans.Algorithm
	PIM             kmeans.Algorithm
	BaselineProfile *profile.Report
	OracleNs        float64
}

// AccelerateKMeans builds the PIM-assisted counterpart of the requested
// variant and profiles the baseline for the Eq. 2 oracle.
func (f *Framework) AccelerateKMeans(data *vec.Matrix, variant KMeansVariant, opt KMeansOptions) (*KMeansAcceleration, error) {
	if opt.CapacityN <= 0 {
		opt.CapacityN = data.N
	}
	if opt.K <= 0 {
		opt.K = 64
	}
	if opt.MaxIters <= 0 {
		opt.MaxIters = 10
	}
	var base kmeans.Algorithm
	switch variant {
	case VariantStandard:
		base = kmeans.NewLloyd(data)
	case VariantElkan:
		base = kmeans.NewElkan(data)
	case VariantHamerly:
		base = kmeans.NewHamerly(data)
	case VariantDrake:
		base = kmeans.NewDrake(data)
	case VariantYinyang:
		base = kmeans.NewYinyang(data)
	default:
		return nil, fmt.Errorf("core: unknown k-means variant %q", variant)
	}

	initial, err := kmeans.InitCenters(data, opt.K, opt.Seed)
	if err != nil {
		return nil, err
	}
	meter := arch.NewMeter()
	base.Run(initial, opt.MaxIters, meter)
	prof := profile.New(base.Name(), f.Cfg, meter)

	eng, err := f.NewEngine()
	if err != nil {
		return nil, err
	}
	assist, err := kmeans.NewAssist(eng, data, f.Quant, opt.CapacityN)
	if err != nil {
		return nil, err
	}
	var accel kmeans.Algorithm
	switch variant {
	case VariantStandard:
		accel = kmeans.NewLloydPIM(data, assist)
	case VariantElkan:
		accel = kmeans.NewElkanPIM(data, assist)
	case VariantHamerly:
		accel = kmeans.NewHamerlyPIM(data, assist)
	case VariantDrake:
		accel = kmeans.NewDrakePIM(data, assist)
	case VariantYinyang:
		accel = kmeans.NewYinyangPIM(data, assist)
	}
	return &KMeansAcceleration{
		Baseline:        base,
		PIM:             accel,
		BaselineProfile: prof,
		OracleNs:        prof.PIMOracle(arch.FuncED, kmeans.AssistFuncName),
	}, nil
}
