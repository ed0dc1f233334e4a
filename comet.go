// Package comet is a from-scratch Go implementation of COMET, the neural
// cost model explanation framework of Chaudhary, Renda, Mendis & Singh
// (MLSys 2024). Given query access to any basic-block cost model, COMET
// explains a prediction with a small set of block features — specific
// instructions, data dependencies, or the instruction count — whose
// preservation keeps the model's prediction within an ε-ball with
// probability at least 1−δ, chosen to maximize coverage over the space of
// block perturbations.
//
// The package re-exports the user-facing surface of the internal
// implementation: the x86 frontend, the model registry and cost-model zoo
// (analytical, simulation-based, a trainable hierarchical-LSTM neural
// model, and remote comet-serve backends), the BHive-like dataset
// generator, and the explainer itself.
//
// Models are addressed by spec strings — name[@target][?key=value&...] —
// and resolved through the process-wide registry:
//
//	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
//	rm, err := comet.ResolveModelString("uica@hsw")       // or "ithemal@skl?hidden=64&train=2000"
//	expl, err := comet.NewExplainer(rm.Model, comet.DefaultConfig()).
//		ExplainContext(ctx, block, comet.WithSeed(1), comet.WithEpsilon(rm.Epsilon))
//	fmt.Println(expl)
//
// ExplainContext is the context-first request API: the context cancels a
// long search, and per-request options (WithSeed, WithEpsilon,
// WithParallelism, ...) overlay the explainer's configuration without
// rebuilding it. Explain remains as the background-context shim.
//
// Applications plug in their own models with RegisterModel, after which
// the comet CLI, comet-bench, and comet-serve can all address them by
// spec. The "remote" spec dials another comet-serve's /v1/predict
// endpoint, so explainers and cost models can live on different machines:
//
//	rm, err := comet.ResolveModelString("remote@http://host:8372?model=uica")
//
// Corpus-scale explanation streams results from a worker pool whose
// queries are batched through the model (BatchCostModel) and, unless the
// model is cheaper to query than to cache (C and mca declare a
// CheapQuery() method), deduplicated by a shared prediction cache;
// per-block seeds are deterministic, so runs are reproducible at any
// worker count:
//
//	for res := range comet.NewExplainer(rm.Model, cfg).ExplainAll(blocks, comet.CorpusOptions{}) {
//		fmt.Println(res.Index, res.Explanation, res.Explanation.CacheHitRate())
//	}
//
// The explainer computes and never persists. An explanation is a pure
// function of (canonical model spec, effective config, block), so the
// comet CLI's -store and comet-serve's durable store reuse it across
// processes under a content address over exactly those inputs.
package comet

import (
	"math/rand"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// Core re-exported types. These are aliases, so values flow freely between
// the public API and the internal packages.
type (
	// BasicBlock is a straight-line x86 instruction sequence.
	BasicBlock = x86.BasicBlock
	// Instruction is one decoded x86 instruction.
	Instruction = x86.Instruction
	// Arch selects a target microarchitecture.
	Arch = x86.Arch
	// Feature is one explanation feature (instruction, dependency, or η).
	Feature = features.Feature
	// FeatureSet is an ordered set of distinct features.
	FeatureSet = features.Set
	// FeatureKind classifies features (instruction / dependency / count).
	FeatureKind = features.Kind
	// Hazard is a data-dependency hazard type (RAW/WAR/WAW).
	Hazard = deps.Hazard
	// DependencyGraph is the block's dependency multigraph.
	DependencyGraph = deps.Graph
	// CostModel is the query-only model interface COMET explains.
	CostModel = costmodel.Model
	// BatchCostModel is a cost model that answers many queries per
	// invocation; PredictBatch must agree with Predict exactly.
	BatchCostModel = costmodel.BatchModel
	// PredictionCache is the sharded prediction cache shared by corpus
	// runs, keyed by the SHA-256 of a block's canonical text.
	PredictionCache = costmodel.Cache
	// PredictionCacheStats snapshots cache effectiveness.
	PredictionCacheStats = costmodel.CacheStats
	// Explainer generates explanations for one cost model.
	Explainer = core.Explainer
	// Explanation is COMET's output for one (model, block) pair.
	Explanation = core.Explanation
	// Config collects COMET's hyperparameters.
	Config = core.Config
	// ExplainOption is a per-request configuration overlay for
	// Explainer.ExplainContext (WithSeed, WithEpsilon, ...).
	ExplainOption = core.ExplainOption
	// CorpusOptions configures Explainer.ExplainAll.
	CorpusOptions = core.CorpusOptions
	// CorpusResult is one streamed ExplainAll outcome.
	CorpusResult = core.CorpusResult
	// PerturbConfig configures the Γ perturbation algorithm.
	PerturbConfig = perturb.Config
	// Perturber samples perturbations of a fixed block (advanced use).
	Perturber = perturb.Perturber
)

// Microarchitectures supported by the performance tables.
const (
	Haswell = x86.Haswell
	Skylake = x86.Skylake
)

// Feature kinds, from fine- to coarse-grained.
const (
	FeatureInstr = features.KindInstr
	FeatureDep   = features.KindDep
	FeatureCount = features.KindCount
)

// Hazard kinds.
const (
	RAW = deps.RAW
	WAR = deps.WAR
	WAW = deps.WAW
)

// ParseBlock parses an Intel-syntax basic block (one instruction per line;
// blank lines, "N:" prefixes, and ";"/"#" comments are ignored).
func ParseBlock(src string) (*BasicBlock, error) { return x86.ParseBlock(src) }

// MustParseBlock is ParseBlock that panics on error.
func MustParseBlock(src string) *BasicBlock { return x86.MustParseBlock(src) }

// DefaultConfig returns the paper's COMET settings (ε = 0.5 cycles,
// precision threshold 0.7, Γ probabilities from Appendix E) at a
// benchmark-friendly coverage-pool size.
func DefaultConfig() Config { return core.DefaultConfig() }

// DefaultPerturbConfig returns Γ's paper settings.
func DefaultPerturbConfig() PerturbConfig { return perturb.DefaultConfig() }

// NewExplainer builds an explainer for a cost model. The model must be
// safe for concurrent Predict calls; models implementing BatchCostModel
// (every built-in model) use their native batch path.
func NewExplainer(model CostModel, cfg Config) *Explainer {
	return core.NewExplainer(model, cfg)
}

// NewExplainerWithCache builds an explainer sharing an external prediction
// cache (nil disables caching). Long-lived processes answering many
// explanation requests against one model — the cometd service, notebook
// sessions — share one cache per model so perturbation collisions are
// amortized across every request; shared cached values are exact, so this
// never changes an explanation. A model that declares a CheapQuery()
// method (C, mca) is queried directly, inline, and never touches the
// cache.
func NewExplainerWithCache(model CostModel, cfg Config, cache *PredictionCache) *Explainer {
	return core.NewExplainerWithCache(model, cfg, cache)
}

// Per-request explain options for Explainer.ExplainContext. Each overlays
// one hyperparameter on the explainer's base config for a single request;
// the explainer itself is never mutated.

// WithSeed pins the request's sampling seed (reproducibility).
func WithSeed(seed int64) ExplainOption { return core.WithSeed(seed) }

// WithEpsilon sets the request's ε-ball radius.
func WithEpsilon(epsilon float64) ExplainOption { return core.WithEpsilon(epsilon) }

// WithPrecisionThreshold sets the request's precision threshold 1−δ.
func WithPrecisionThreshold(threshold float64) ExplainOption {
	return core.WithPrecisionThreshold(threshold)
}

// WithCoverageSamples sets the request's coverage-pool size.
func WithCoverageSamples(n int) ExplainOption { return core.WithCoverageSamples(n) }

// WithParallelism bounds the goroutines that draw the request's Γ
// samples and that query the model — uica, hwsim and Ithemal alike (0
// restores the GOMAXPROCS default); C and mca are queried inline. It
// schedules work only: the explanation is the same at any parallelism.
func WithParallelism(n int) ExplainOption { return core.WithParallelism(n) }

// AsBatchModel returns model itself when it already batches natively
// (the neural model, a remote model), and otherwise adapts it with a
// fan-out over GOMAXPROCS goroutines — C, mca, uica and hwsim are plain
// models. Explainers need no such adapter: they batch through the
// model's own PredictBatch when it has one and otherwise fan out over at
// most Config.Parallelism goroutines. Give them the plain model: the
// adapter hides C's and mca's cheap-query marker, so an explainer on
// AsBatchModel(C) would key, dedup and cache every query.
func AsBatchModel(model CostModel) BatchCostModel { return costmodel.AsBatch(model) }

// FuncCostModel adapts a function to the CostModel interface — the
// quickest way to register a custom model (fn must be safe for
// concurrent calls).
func FuncCostModel(name string, arch Arch, fn func(*BasicBlock) float64) CostModel {
	return costmodel.Func{ModelName: name, ModelArch: arch, Fn: fn}
}

// NewPredictionCache allocates a prediction cache bounded to roughly
// maxEntries predictions (0 = default of about a million).
func NewPredictionCache(maxEntries int) *PredictionCache { return costmodel.NewCache(maxEntries) }

// BlockSeed derives the deterministic per-block seed ExplainAll uses for
// corpus block index; Explain with cfg.Seed = BlockSeed(base, i)
// reproduces ExplainAll's block i exactly, at any Parallelism and any
// worker count.
func BlockSeed(base int64, index int) int64 { return core.BlockSeed(base, index) }

// NewPerturber prepares Γ for one block (advanced: direct access to the
// perturbation distributions D_F).
func NewPerturber(b *BasicBlock, cfg PerturbConfig) (*Perturber, error) {
	return perturb.New(b, cfg)
}

// ExtractFeatures returns the block's explanation feature set ˆP.
func ExtractFeatures(b *BasicBlock) (FeatureSet, error) {
	return features.ExtractFromBlock(b, deps.Options{})
}

// BuildDependencyGraph returns the block's dependency multigraph G.
func BuildDependencyGraph(b *BasicBlock) (*DependencyGraph, error) {
	return deps.Build(b, deps.Options{})
}

// EstimatePrecision re-estimates Prec(F) for an explanation on n fresh
// perturbations.
func EstimatePrecision(model CostModel, b *BasicBlock, set FeatureSet, cfg Config, n int, rng *rand.Rand) (float64, error) {
	return core.EstimatePrecision(model, b, set, cfg, n, rng)
}

// EstimateCoverage re-estimates Cov(F) on n fresh unconstrained
// perturbations.
func EstimateCoverage(b *BasicBlock, set FeatureSet, cfg Config, n int, rng *rand.Rand) (float64, error) {
	return core.EstimateCoverage(b, set, cfg, n, rng)
}

// Baseline explainers and the accuracy criterion of the paper's Table 2.

// Accurate reports whether an explanation names at least one ground-truth
// feature and nothing outside the ground truth.
func Accurate(expl, gt FeatureSet) bool { return core.Accurate(expl, gt) }

// RandomExplanation draws the random-baseline explanation.
func RandomExplanation(rng *rand.Rand, feats FeatureSet, kindProbs map[FeatureKind]float64) FeatureSet {
	return core.RandomExplanation(rng, feats, kindProbs)
}

// FixedExplanation returns the fixed-baseline explanation.
func FixedExplanation(feats FeatureSet, kind FeatureKind) FeatureSet {
	return core.FixedExplanation(feats, kind)
}

// KindDistribution returns feature-kind frequencies over ground-truth sets.
func KindDistribution(gts []FeatureSet) map[FeatureKind]float64 {
	return core.KindDistribution(gts)
}

// MostFrequentKind returns the dominant kind over ground-truth sets.
func MostFrequentKind(gts []FeatureSet) FeatureKind { return core.MostFrequentKind(gts) }
