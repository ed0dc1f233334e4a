// Package core implements COMET itself (Section 5 of the paper): given
// query access to a cost model M and a target basic block β, it searches
// for the feature set F ⊆ ˆP with maximum coverage subject to
// Prec(F) ≥ 1−δ (eq. 7), where
//
//	Prec(F) = Pr_{α∼D_F}( |M(α) − M(β)| ≤ ε )      (eq. 4)
//	Cov(F)  = Pr_{α∼D}( F ⊆ ˆP_α )                 (eq. 6)
//
// Perturbations are drawn with the Γ algorithm (package perturb), precision
// is certified with KL-LUCB bounds, and the combinatorial search is the
// Anchors beam search (package anchors). Every Γ draw is seeded from its
// own index, so sampling fans out across goroutines without the worker
// count reaching a single output byte.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/anchors"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// Config collects every COMET hyperparameter. DefaultConfig matches the
// paper's experimental setup.
type Config struct {
	// Epsilon is the ε-ball radius around M(β) (paper: 0.5 cycles for
	// practical models, 0.25 for the analytical model C).
	Epsilon float64
	// PrecisionThreshold is 1−δ (paper: 0.7).
	PrecisionThreshold float64
	// Perturb configures the Γ perturbation algorithm.
	Perturb perturb.Config
	// Anchor configures the beam search and KL-LUCB budgets.
	Anchor anchors.Options
	// CoverageSamples is the size of the shared Γ(∅) pool used for
	// coverage estimation (paper: 10k; scale down for speed).
	CoverageSamples int
	// Parallelism bounds the goroutines that draw Γ samples for one
	// explanation, and that query the model — uica, hwsim, Ithemal's
	// lockstep batches and a remote@ model's round trips alike (0 =
	// GOMAXPROCS); C and mca declare costmodel.CheapQuery and are
	// queried inline. It is a scheduling width only: each draw is seeded
	// from its index, so explanations do not depend on it.
	Parallelism int
	// BatchSize is how many perturbed blocks are sent to the cost model
	// per PredictBatch call (default 64). Models with native batching
	// (the neural model's padded lockstep forward, a remote model's one
	// round trip) amortize per-call overhead across the whole batch.
	// Like Parallelism it schedules work only: the cache misses of a
	// query set are deduplicated before they are chunked, so cache_hits,
	// model_calls and every other explanation byte are the same at any
	// batch size.
	BatchSize int
	// CacheSize bounds the shared prediction cache in entries (0 =
	// default of about a million; negative disables caching). Perturbation
	// draws collide constantly, and a hit skips the model query entirely;
	// cached values are exact, so caching never changes an explanation.
	// A model that declares costmodel.CheapQuery is never cached.
	CacheSize int
	// Seed makes explanations reproducible.
	Seed int64
}

// DefaultConfig returns the paper's settings at a benchmark-friendly
// coverage-pool size.
func DefaultConfig() Config {
	return Config{
		Epsilon:            0.5,
		PrecisionThreshold: 0.7,
		Perturb:            perturb.DefaultConfig(),
		CoverageSamples:    1000,
		BatchSize:          64,
		Seed:               1,
	}
}

// Explanation is COMET's output for one (model, block) pair.
type Explanation struct {
	Block      *x86.BasicBlock
	Model      string
	Prediction float64      // M(β)
	Features   features.Set // the explanation F
	Precision  float64      // empirical Prec(F)
	Coverage   float64      // empirical Cov(F)
	Certified  bool         // KL lower bound cleared 1−δ
	Queries    int          // cost-model queries issued by the search
	CacheHits  int          // queries served without a model evaluation
	ModelCalls int          // blocks the model actually evaluated
	// Profile breaks the computation down by stage. Set on every freshly
	// computed explanation, nil on one read back from a durable store
	// (the original computation's timings were not persisted — wall
	// times never reproduce, and stored explanations are compared
	// byte-for-byte).
	Profile *Profile
}

// CacheHitRate reports the fraction of queries the prediction cache (plus
// within-batch deduplication) absorbed.
func (e *Explanation) CacheHitRate() float64 {
	if e.Queries == 0 {
		return 0
	}
	return float64(e.CacheHits) / float64(e.Queries)
}

// String renders the explanation in the paper's set notation.
func (e *Explanation) String() string {
	return fmt.Sprintf("%s(β)=%.2f ⇒ %s (prec %.2f, cov %.2f)",
		e.Model, e.Prediction, e.Features, e.Precision, e.Coverage)
}

// Explainer generates explanations for one cost model. All queries flow
// through costmodel.PredictThrough, batched by the model's own
// PredictBatch where it has one. For a model that caches, they also pass
// a shared prediction cache, so repeated perturbation draws — within one
// block's search and across a corpus run — are answered without model
// evaluations. A model that declares costmodel.CheapQuery (C, mca) is
// queried directly, with no cache.
type Explainer struct {
	model costmodel.Model
	cache *costmodel.Cache
	cfg   Config
}

// withDefaults normalizes a config in place of its zero values. It is
// idempotent, so per-request option overlays re-normalize safely.
func (cfg Config) withDefaults() Config {
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0.5
	}
	if cfg.PrecisionThreshold == 0 {
		cfg.PrecisionThreshold = 0.7
	}
	if cfg.Perturb.PInstRetain == 0 {
		cfg.Perturb = perturb.DefaultConfig()
	}
	if cfg.CoverageSamples == 0 {
		cfg.CoverageSamples = 1000
	}
	if cfg.Parallelism <= 0 {
		cfg.Parallelism = runtime.GOMAXPROCS(0)
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	cfg.Anchor.PrecisionThreshold = cfg.PrecisionThreshold
	return cfg
}

// Validate reports a normalized config no search can answer. Zero still
// means "default", so each check refuses only a value a caller set:
//   - a precision threshold outside (0, 1]: above 1 no estimate can
//     reach it, so every candidate would be sampled to its cap for an
//     answer that is never certified;
//   - an ε that is not finite and positive: no prediction lies in the
//     ball;
//   - a coverage pool below one sample;
//   - a negative beam width, round size, per-candidate cap or anchor
//     size, under which the search panics or never ends;
//   - a δ outside (0, 1).
func (cfg Config) Validate() error {
	if t := cfg.PrecisionThreshold; !(t > 0 && t <= 1) {
		return fmt.Errorf("precision threshold %v is outside (0, 1]", t)
	}
	if e := cfg.Epsilon; !(e > 0) || math.IsInf(e, 1) {
		return fmt.Errorf("epsilon %v is not finite and positive", e)
	}
	if cfg.CoverageSamples < 1 {
		return fmt.Errorf("coverage samples %d is below 1", cfg.CoverageSamples)
	}
	a := cfg.Anchor
	if min(a.BeamWidth, a.BatchSize, a.MaxSamplesPerCand, a.MaxAnchorSize) < 0 {
		return fmt.Errorf("anchor beam width %d, batch size %d, samples per candidate %d or anchor size %d is negative",
			a.BeamWidth, a.BatchSize, a.MaxSamplesPerCand, a.MaxAnchorSize)
	}
	if d := a.Delta; d != 0 && !(d > 0 && d < 1) {
		return fmt.Errorf("delta %v is outside (0, 1)", d)
	}
	return nil
}

// NewExplainer builds an explainer. The model must be safe for concurrent
// Predict calls; its queries fan out over cfg.Parallelism workers, each
// through the model's native batch path when it implements
// costmodel.BatchModel (inline for a model that declares
// costmodel.CheapQuery). Its prediction cache comes from
// costmodel.NewCacheFor: none for a model that declares
// costmodel.CheapQuery or for a negative cfg.CacheSize.
func NewExplainer(model costmodel.Model, cfg Config) *Explainer {
	return NewExplainerWithCache(model, cfg, costmodel.NewCacheFor(model, cfg.CacheSize))
}

// NewExplainerWithCache builds an explainer that shares the given
// prediction cache instead of allocating a private one. A long-lived
// process serving many explanation requests against the same model (the
// cometd service, a notebook session) passes one cache per model so
// perturbation collisions are amortized across every request, not just
// within one. A nil cache disables caching, and a model that declares
// costmodel.CheapQuery never touches the cache. Cached values are exact
// prior predictions, so a shared cache never changes an explanation.
func NewExplainerWithCache(model costmodel.Model, cfg Config, cache *costmodel.Cache) *Explainer {
	return &Explainer{model: model, cache: cache, cfg: cfg.withDefaults()}
}

// Model returns the underlying cost model.
func (e *Explainer) Model() costmodel.Model { return e.model }

// Config returns the effective configuration.
func (e *Explainer) Config() Config { return e.cfg }

// CacheStats snapshots the shared prediction cache (zero value when the
// explainer has none, as NewExplainer leaves a model that declares
// costmodel.CheapQuery).
func (e *Explainer) CacheStats() costmodel.CacheStats {
	if e.cache == nil {
		return costmodel.CacheStats{}
	}
	return e.cache.Stats()
}

// Explain runs COMET on one block. It is the compatibility shim over
// ExplainContext with a background context and no per-request options.
func (e *Explainer) Explain(b *x86.BasicBlock) (*Explanation, error) {
	return e.explainWith(context.Background(), b, e.cfg)
}

// ExplainContext runs COMET on one block under a context, with optional
// per-request configuration overlays. Cancellation is honored at every
// model-query round: a canceled context aborts the search and returns
// ctx.Err(). Options apply to this request only; the explainer (and its
// shared prediction cache) serve concurrent requests with different
// options safely. An explanation is fully determined by the effective
// config, whatever its Parallelism — ExplainContext(ctx, b, WithSeed(s))
// is bit-identical to Explain on an explainer with Seed s.
func (e *Explainer) ExplainContext(ctx context.Context, b *x86.BasicBlock, opts ...ExplainOption) (*Explanation, error) {
	return e.explainWith(ctx, b, e.EffectiveConfig(opts...))
}

// explainWith is the explanation engine entry point: one block, one
// effective config, one context. It is also the costmodel.RecoverQuery
// boundary for the search: unanswerable queries (dead remote backends,
// canceled contexts) abort it and come back as ordinary errors.
func (e *Explainer) explainWith(ctx context.Context, b *x86.BasicBlock, cfg Config) (expl *Explanation, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer costmodel.RecoverQuery(&err)
	t0 := time.Now()
	prof := &Profile{}
	_, setupSpan := obs.StartSpan(ctx, "core.canonicalize")
	p, err := perturb.New(b, cfg.Perturb)
	setupSpan.End()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	prof.Setup = time.Since(t0)
	rng := rand.New(rand.NewSource(cfg.Seed))
	poolCtx, poolSpan := obs.StartSpan(ctx, "core.perturb_pool")
	space, err := newBlockSpace(poolCtx, e.model, e.cache, p, cfg, rng)
	poolSpan.End()
	if err != nil {
		return nil, err
	}
	prof.Coverage = space.coverageTime

	searchCtx, searchSpan := obs.StartSpan(ctx, "core.search")
	space.ctx = searchCtx
	searchStart := time.Now()
	res := anchors.Search(space, cfg.Anchor, rng)
	prof.Search = time.Since(searchStart)
	prof.Model = space.modelTime
	prof.Precision = space.precisionTime
	prof.Queries = space.queries
	prof.CacheHits = space.cacheHits
	prof.ModelCalls = space.modelCalls
	prof.Batches = space.batches
	searchSpan.SetInt("queries", int64(space.queries))
	searchSpan.SetInt("cache_hits", int64(space.cacheHits))
	searchSpan.SetInt("model_calls", int64(space.modelCalls))
	searchSpan.SetInt("batches", int64(space.batches))
	searchSpan.SetInt("model_us", space.modelTime.Microseconds())
	searchSpan.SetInt("precision_us", space.precisionTime.Microseconds())
	searchSpan.End()

	set := features.NewSet()
	for _, idx := range res.Anchor {
		set = set.Add(space.feats[idx])
	}
	expl = &Explanation{
		Block:      b,
		Model:      e.model.Name(),
		Prediction: space.origPred,
		Features:   set,
		Precision:  res.Precision,
		Coverage:   res.Coverage,
		Certified:  res.Certified,
		Queries:    space.queries,
		CacheHits:  space.cacheHits,
		ModelCalls: space.modelCalls,
		Profile:    prof,
	}
	prof.Total = time.Since(t0)
	return expl, nil
}

// perturbFor builds a Γ perturber with the config's perturbation settings.
func perturbFor(b *x86.BasicBlock, cfg Config) (*perturb.Perturber, error) {
	return perturb.New(b, cfg.Perturb)
}

// EstimatePrecision re-estimates Prec(F) for a given feature set on n fresh
// perturbations (used by Table 3 to report held-out precision of final
// explanations rather than the search's optimistic estimate). Queries go
// through costmodel.PredictThrough without a cache; a query the model
// aborts (costmodel.AbortQuery) comes back as the error.
func EstimatePrecision(model costmodel.Model, b *x86.BasicBlock, set features.Set, cfg Config, n int, rng *rand.Rand) (prec float64, err error) {
	defer costmodel.RecoverQuery(&err)
	p, err := perturbFor(b, cfg)
	if err != nil {
		return 0, err
	}
	// blocks[0] is β itself: M(β) takes the same route as the draws.
	blocks := make([]*x86.BasicBlock, n+1)
	blocks[0] = b
	for i := 1; i <= n; i++ {
		blocks[i] = p.Sample(rng, set).Block
	}
	batch := cfg.BatchSize
	if batch <= 0 {
		batch = 64
	}
	preds := make([]float64, n+1)
	costmodel.PredictThrough(nil, model, blocks, batch, cfg.Parallelism, preds)
	succ := 0
	for _, pred := range preds[1:] {
		if inBall(pred, preds[0], cfg.Epsilon) {
			succ++
		}
	}
	return float64(succ) / float64(n), nil
}

// inBall reports whether pred lies in the open ε-ball around orig. The
// ball is open because ε is chosen as the model's minimum prediction
// quantum for analytical models (Appendix E): a minimum-quantum change
// must count as "prediction changed".
func inBall(pred, orig, eps float64) bool {
	return pred > orig-eps && pred < orig+eps
}

// EstimateCoverage re-estimates Cov(F) on n fresh unconstrained
// perturbations.
func EstimateCoverage(b *x86.BasicBlock, set features.Set, cfg Config, n int, rng *rand.Rand) (float64, error) {
	p, err := perturbFor(b, cfg)
	if err != nil {
		return 0, err
	}
	hit := 0
	row := make([]bool, len(set))
	var res perturb.Result
	for i := 0; i < n; i++ {
		p.SampleInto(rng, nil, &res)
		if err := retains(row, set, &res, cfg.Perturb.DepOptions); err != nil {
			return 0, err
		}
		if !slices.Contains(row, false) {
			hit++
		}
	}
	return float64(hit) / float64(n), nil
}

// retains sets row[j] to whether the Γ draw res retains feats[j]: the
// containment check behind the coverage pool and EstimateCoverage.
// Dependency features are tested on the draw's access summary.
func retains(row []bool, feats features.Set, res *perturb.Result, opts deps.Options) error {
	var buf [16]deps.InstAccess
	sum, err := deps.AppendSummary(buf[:0], res.Block, opts)
	if err != nil {
		return err
	}
	for j := range feats {
		row[j] = feats[j].Retained(res.Block, res.Mapping, sum.HasHazard)
	}
	return nil
}

// blockSpace adapts a (model, block) pair to the anchors.Space interface.
// Model queries flow through predictAll: perturbations are generated in
// parallel, then resolved against the prediction cache and the batched
// model in cfg.BatchSize chunks.
type blockSpace struct {
	ctx      context.Context
	model    costmodel.Model
	cache    *costmodel.Cache
	perturb  *perturb.Perturber
	feats    features.Set
	origPred float64
	epsilon  float64
	workers  int
	batch    int
	depOpts  deps.Options

	// coverage[i][j] reports whether coverage sample i contains feature j.
	coverage [][]bool

	// Sampling storage reused across SamplePrecision rounds (single
	// search goroutine; worker w owns rngs[w]). The draws' blocks are
	// lent to the model only until predictAll returns.
	rngs     []*rand.Rand
	draws    []perturb.Result
	blocks   []*x86.BasicBlock
	preds    []float64
	preserve features.Set

	// Query accounting (single search goroutine; prediction fan-out
	// happens inside costmodel.PredictThrough and never touches these).
	queries    int // queries issued
	cacheHits  int // queries served by the cache or within-batch dedup
	modelCalls int // blocks the model actually evaluated
	batches    int // cost-model batch calls issued for the misses

	// Stage timing for the explanation profile (same single-goroutine
	// ownership as the query accounting).
	modelTime     time.Duration // inside PredictThrough
	precisionTime time.Duration // inside SamplePrecision rounds
	coverageTime  time.Duration // building the coverage pool
}

func newBlockSpace(ctx context.Context, model costmodel.Model, cache *costmodel.Cache, p *perturb.Perturber, cfg Config, rng *rand.Rand) (*blockSpace, error) {
	cfg = cfg.withDefaults()
	s := &blockSpace{
		ctx:     ctx,
		model:   model,
		cache:   cache,
		perturb: p,
		feats:   p.Features(),
		epsilon: cfg.Epsilon,
		workers: cfg.Parallelism,
		batch:   cfg.BatchSize,
		depOpts: cfg.Perturb.DepOptions,
		rngs:    make([]*rand.Rand, cfg.Parallelism),
	}
	for w := range s.rngs {
		s.rngs[w] = rand.New(&splitMix{})
	}
	s.origPred = s.predictAll([]*x86.BasicBlock{p.Block()})[0]
	poolStart := time.Now()
	if err := s.buildCoveragePool(cfg.CoverageSamples, rng); err != nil {
		return nil, err
	}
	s.coverageTime = time.Since(poolStart)
	return s, nil
}

// predictAll resolves one prediction per block through the cache (if
// any) and the batched model, updating the space's query accounting;
// the returned slice is valid until the next call. Every model-query
// round passes through here, so it is also the search's cancellation
// point: a canceled context aborts via costmodel.AbortQuery, which
// explainWith recovers into an ordinary error.
func (s *blockSpace) predictAll(blocks []*x86.BasicBlock) []float64 {
	if err := s.ctx.Err(); err != nil {
		costmodel.AbortQuery(err)
	}
	s.preds = slices.Grow(s.preds[:0], len(blocks))[:len(blocks)]
	preds := s.preds
	start := time.Now()
	saved, evaluated := costmodel.PredictThrough(s.cache, s.model, blocks, s.batch, s.workers, preds)
	s.modelTime += time.Since(start)
	s.queries += len(blocks)
	s.cacheHits += saved
	s.modelCalls += evaluated
	if evaluated > 0 {
		s.batches += (evaluated + s.batch - 1) / s.batch
	}
	return preds
}

// buildCoveragePool samples Γ(∅) once and records, per sample, which
// features it retains. Coverage of any candidate is then a cheap AND over
// columns (the Anchors "coverage data" trick); no model queries are spent.
func (s *blockSpace) buildCoveragePool(n int, rng *rand.Rand) error {
	nf := len(s.feats)
	rows := make([]bool, n*nf)
	s.coverage = make([][]bool, n)
	for i := range s.coverage {
		s.coverage[i] = rows[i*nf : (i+1)*nf : (i+1)*nf]
	}
	res := make([]perturb.Result, s.workers)
	return s.drawEach(rng.Int63(), n, func(w int, r *rand.Rand, i int) error {
		if err := s.ctx.Err(); err != nil {
			return err
		}
		s.perturb.SampleInto(r, nil, &res[w])
		return retains(s.coverage[i], s.feats, &res[w], s.depOpts)
	})
}

// drawEach calls draw(w, r, i) for every draw index i < n, fanned out
// over the space's workers; w names the worker and r is its rng,
// reseeded with BlockSeed(base, i) before each call. Draw i therefore
// sees one stream whatever the worker count. A worker stops at its first
// error; drawEach returns the lowest-numbered worker's error.
func (s *blockSpace) drawEach(base int64, n int, draw func(w int, r *rand.Rand, i int) error) error {
	workers := max(min(s.workers, n), 1)
	errs := make([]error, workers)
	run := func(w int) {
		r := s.rngs[w]
		for i := w; i < n; i += workers {
			r.Seed(BlockSeed(base, i))
			if errs[w] = draw(w, r, i); errs[w] != nil {
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// NumFeatures implements anchors.Space.
func (s *blockSpace) NumFeatures() int { return len(s.feats) }

// Coverage implements anchors.Space.
func (s *blockSpace) Coverage(candidate []int) float64 {
	if len(s.coverage) == 0 {
		return 0
	}
	hit := 0
	for _, row := range s.coverage {
		all := true
		for _, j := range candidate {
			if !row[j] {
				all = false
				break
			}
		}
		if all {
			hit++
		}
	}
	return float64(hit) / float64(len(s.coverage))
}

// SamplePrecision implements anchors.Space: draw n perturbations retaining
// the candidate features and count predictions inside the ε-ball. The
// round takes one base seed from the search rng and draw k runs on
// BlockSeed(base, k), so the draws do not depend on how generation is
// split across workers; predictions are then resolved in one batched,
// cached pass instead of one model query per sample.
func (s *blockSpace) SamplePrecision(rng *rand.Rand, candidate []int, n int) int {
	defer func(start time.Time) { s.precisionTime += time.Since(start) }(time.Now())
	// Candidates are distinct indices into the deduplicated ˆP, so the
	// preserve set needs no membership checks.
	s.preserve = s.preserve[:0]
	for _, j := range candidate {
		s.preserve = append(s.preserve, s.feats[j])
	}
	if len(s.draws) < n {
		s.draws = append(s.draws, make([]perturb.Result, n-len(s.draws))...)
	}
	s.blocks = slices.Grow(s.blocks[:0], n)[:n]
	s.drawEach(rng.Int63(), n, func(_ int, r *rand.Rand, k int) error {
		s.perturb.SampleInto(r, s.preserve, &s.draws[k])
		s.blocks[k] = s.draws[k].Block
		return nil
	})
	total := 0
	for _, pred := range s.predictAll(s.blocks) {
		if inBall(pred, s.origPred, s.epsilon) {
			total++
		}
	}
	return total
}
