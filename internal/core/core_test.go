package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/mca"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/x86"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.CoverageSamples = 300
	cfg.Anchor.BatchSize = 32
	cfg.Anchor.MaxSamplesPerCand = 1500
	return cfg
}

func TestExplainAnalyticalDivBlock(t *testing.T) {
	// C is dominated by the mov→div RAW; COMET must find a subset of GT.
	model := analytical.New(x86.Haswell)
	cfg := testConfig()
	cfg.Epsilon = analytical.Epsilon
	e := NewExplainer(model, cfg)
	b := x86.MustParseBlock("mov rax, rbx\ndiv rcx\nadd rsi, rdi")
	expl, err := e.Explain(b)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := model.GroundTruth(b)
	if err != nil {
		t.Fatal(err)
	}
	if !Accurate(expl.Features, gt) {
		t.Errorf("explanation %v not within ground truth %v", expl.Features, gt)
	}
	if !expl.Certified {
		t.Error("expected a certified anchor on this easy block")
	}
}

func TestExplainEtaDominatedBlock(t *testing.T) {
	// Eight cheap independent instructions: C(β) = η/4; the only faithful
	// singleton is η.
	model := analytical.New(x86.Haswell)
	cfg := testConfig()
	cfg.Epsilon = analytical.Epsilon
	e := NewExplainer(model, cfg)
	b := x86.MustParseBlock(`add rax, 1
		add rbx, 1
		add rcx, 1
		add rdx, 1
		add rsi, 1
		add rdi, 1
		add r8, 1
		add r9, 1`)
	expl, err := e.Explain(b)
	if err != nil {
		t.Fatal(err)
	}
	if !expl.Features.HasKind(features.KindCount) {
		t.Errorf("expected η in explanation, got %v", expl.Features)
	}
}

func TestExplainReportedPrecisionIsHonest(t *testing.T) {
	// Re-estimate the precision of the returned anchor on fresh samples;
	// it should not collapse below the threshold.
	model := analytical.New(x86.Haswell)
	cfg := testConfig()
	cfg.Epsilon = analytical.Epsilon
	e := NewExplainer(model, cfg)
	b := x86.MustParseBlock("mov rax, rbx\ndiv rcx\nadd rsi, rdi")
	expl, err := e.Explain(b)
	if err != nil {
		t.Fatal(err)
	}
	prec, err := EstimatePrecision(model, b, expl.Features, cfg, 500, rand.New(rand.NewSource(99)))
	if err != nil {
		t.Fatal(err)
	}
	if prec < cfg.PrecisionThreshold-0.12 {
		t.Errorf("held-out precision %.2f far below threshold %.2f", prec, cfg.PrecisionThreshold)
	}
}

// TestExplainDeterministicGivenSeed: the seed alone fixes an
// explanation; the number of sampling goroutines does not enter it.
func TestExplainDeterministicGivenSeed(t *testing.T) {
	model := analytical.New(x86.Haswell)
	cfg := testConfig()
	cfg.Epsilon = analytical.Epsilon
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	var first *Explanation
	for _, par := range []int{1, 1, 2, 5} {
		cfg.Parallelism = par
		e, err := NewExplainer(model, cfg).Explain(b)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = e
		} else if !sameResult(e, first) {
			t.Errorf("Parallelism %d: %v (%d queries), want %v (%d queries)", par, e, e.Queries, first, first.Queries)
		}
	}
}

func TestExplainUICASmoke(t *testing.T) {
	// A full explanation run against the simulation-based model.
	model := uica.New(x86.Haswell)
	cfg := testConfig()
	e := NewExplainer(model, cfg)
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	expl, err := e.Explain(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Features) == 0 {
		t.Error("empty explanation")
	}
	if expl.Queries == 0 {
		t.Error("no model queries recorded")
	}
	if expl.Coverage < 0 || expl.Coverage > 1 || expl.Precision < 0 || expl.Precision > 1 {
		t.Errorf("precision/coverage out of range: %+v", expl)
	}
}

// TestCheapQueryModelsSkipTheCache: C and mca declare
// costmodel.CheapQuery, so the explainer keeps no cache for them and the
// model evaluates every query.
func TestCheapQueryModelsSkipTheCache(t *testing.T) {
	b := corpusBlocks(t, 1)[0]
	for _, model := range []costmodel.Model{analytical.New(x86.Haswell), mca.New(x86.Haswell)} {
		e := NewExplainer(model, corpusConfig())
		expl, err := e.Explain(b)
		if err != nil {
			t.Fatal(err)
		}
		if expl.Queries == 0 || expl.CacheHits != 0 || expl.ModelCalls != expl.Queries {
			t.Errorf("%s: queries %d, cache hits %d, model calls %d; want every query evaluated",
				model.Name(), expl.Queries, expl.CacheHits, expl.ModelCalls)
		}
		if st := e.CacheStats(); st != (costmodel.CacheStats{}) {
			t.Errorf("%s: explainer cache stats %+v, want zero", model.Name(), st)
		}
	}
}

// cheapFunc is a model without a native batch path that declares
// costmodel.CheapQuery.
type cheapFunc struct{ costmodel.Func }

func (cheapFunc) CheapQuery() {}

// TestCheapQueryWithoutBatchPathSkipsTheCache: the declaration, not the
// batch path, decides caching, so a plain model that declares
// costmodel.CheapQuery is queried directly, like C and mca.
func TestCheapQueryWithoutBatchPathSkipsTheCache(t *testing.T) {
	c := analytical.New(x86.Haswell)
	model := cheapFunc{costmodel.Func{ModelName: "cheap-c", ModelArch: x86.Haswell, Fn: c.Predict}}
	e := NewExplainer(model, corpusConfig())
	expl, err := e.Explain(corpusBlocks(t, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	if expl.Queries == 0 || expl.CacheHits != 0 || expl.ModelCalls != expl.Queries {
		t.Errorf("queries %d, cache hits %d, model calls %d; want every query evaluated",
			expl.Queries, expl.CacheHits, expl.ModelCalls)
	}
	if st := e.CacheStats(); st != (costmodel.CacheStats{}) {
		t.Errorf("explainer cache stats %+v, want zero", st)
	}
}

func TestCoverageMonotoneInExplanationSize(t *testing.T) {
	// Cov(F1 ∪ F2) ≤ Cov(F1): follows from Π's monotonicity (Appendix A).
	model := analytical.New(x86.Haswell)
	cfg := testConfig()
	e := NewExplainer(model, cfg)
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	p, err := perturbFor(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	space, err := newBlockSpace(context.Background(), e.model, e.cache, p, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < space.NumFeatures(); i++ {
		ci := space.Coverage([]int{i})
		for j := i + 1; j < space.NumFeatures(); j++ {
			cij := space.Coverage([]int{i, j})
			if cij > ci+1e-9 {
				t.Errorf("coverage increased when adding a feature: %v vs %v", cij, ci)
			}
		}
	}
}

// TestCoveragePoolMatchesGraphContainment rebuilds a block's coverage
// pool draw by draw and checks every row against graph-based
// ContainedIn, with and without flag dependencies. The pool is built by
// three workers and replayed on one stream: draw i is seeded from its
// index alone.
func TestCoveragePoolMatchesGraphContainment(t *testing.T) {
	model := analytical.New(x86.Haswell)
	b := x86.MustParseBlock("mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov qword ptr [rdi + 8], rdx\nadd rcx, qword ptr [rdi + 8]\npush rcx\npop rdx")
	for _, opts := range []deps.Options{{}, {TrackFlags: true}} {
		cfg := testConfig()
		cfg.Parallelism = 3
		cfg.Perturb.DepOptions = opts
		e := NewExplainer(model, cfg)
		p, err := perturbFor(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		space, err := newBlockSpace(context.Background(), e.model, e.cache, p, cfg, rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		// The pool's base seed is the search rng's first draw.
		base := rand.New(rand.NewSource(7)).Int63()
		wrng := rand.New(&splitMix{})
		for i, row := range space.coverage {
			wrng.Seed(BlockSeed(base, i))
			res := p.Sample(wrng, nil)
			g, err := res.Graph(opts)
			if err != nil {
				t.Fatal(err)
			}
			for j, f := range space.feats {
				if want := f.ContainedIn(res.Block, g, res.Mapping); row[j] != want {
					t.Fatalf("%+v: sample %d (%q) feature %v: pool has %v, graph %v", opts, i, res.Block, f, row[j], want)
				}
			}
		}
	}
}

func TestAccurateCriterion(t *testing.T) {
	b := x86.MustParseBlock("mov rax, rbx\ndiv rcx")
	set, err := features.ExtractFromBlock(b, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gt := features.NewSet(set[0], set[1])
	if !Accurate(features.NewSet(set[0]), gt) {
		t.Error("subset of GT must be accurate")
	}
	if !Accurate(gt, gt) {
		t.Error("GT itself must be accurate")
	}
	if Accurate(features.NewSet(set[2]), gt) {
		t.Error("disjoint explanation must be inaccurate")
	}
	if Accurate(features.NewSet(set[0], set[2]), gt) {
		t.Error("explanation exceeding GT must be inaccurate")
	}
	if Accurate(nil, gt) {
		t.Error("empty explanation must be inaccurate")
	}
}

func TestKindDistributionAndMostFrequent(t *testing.T) {
	mk := func(kind features.Kind) features.Feature {
		switch kind {
		case features.KindInstr:
			return features.Feature{Kind: kind, Index: 0, Opcode: "add"}
		case features.KindDep:
			return features.Feature{Kind: kind, Src: 0, Dst: 1}
		default:
			return features.Feature{Kind: kind, Count: 3}
		}
	}
	gts := []features.Set{
		features.NewSet(mk(features.KindInstr)),
		features.NewSet(mk(features.KindInstr)),
		features.NewSet(mk(features.KindDep)),
		features.NewSet(mk(features.KindCount)),
	}
	dist := KindDistribution(gts)
	if dist[features.KindInstr] != 0.5 {
		t.Errorf("inst probability = %v, want 0.5", dist[features.KindInstr])
	}
	if MostFrequentKind(gts) != features.KindInstr {
		t.Errorf("most frequent kind = %v", MostFrequentKind(gts))
	}
}

func TestBaselinesProduceSingletons(t *testing.T) {
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	set, err := features.ExtractFromBlock(b, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	probs := map[features.Kind]float64{features.KindInstr: 0.5, features.KindDep: 0.3, features.KindCount: 0.2}
	for i := 0; i < 50; i++ {
		r := RandomExplanation(rng, set, probs)
		if len(r) != 1 {
			t.Fatalf("random baseline returned %d features", len(r))
		}
	}
	f := FixedExplanation(set, features.KindDep)
	if len(f) != 1 || f[0].Kind != features.KindDep {
		t.Errorf("fixed baseline = %v", f)
	}
	f = FixedExplanation(set, features.KindCount)
	if len(f) != 1 || f[0].Kind != features.KindCount {
		t.Errorf("fixed baseline η = %v", f)
	}
}

func TestCOMETBeatsBaselinesOnAnalyticalModel(t *testing.T) {
	// A miniature Table 2: on a handful of blocks COMET should be more
	// accurate than the random baseline.
	if testing.Short() {
		t.Skip("short mode")
	}
	model := analytical.New(x86.Haswell)
	cfg := testConfig()
	cfg.Epsilon = analytical.Epsilon
	cfg.CoverageSamples = 200
	e := NewExplainer(model, cfg)

	blocks := bhive.Generate(bhive.Config{N: 12, Seed: 21, SkipLabels: true})
	var gts []features.Set
	for _, blk := range blocks {
		gt, err := model.GroundTruth(blk.Block)
		if err != nil {
			t.Fatal(err)
		}
		gts = append(gts, gt)
	}
	probs := KindDistribution(gts)
	rng := rand.New(rand.NewSource(5))

	cometAcc, randomAcc := 0, 0
	for i, blk := range blocks {
		expl, err := e.Explain(blk.Block)
		if err != nil {
			t.Fatal(err)
		}
		set, _ := features.ExtractFromBlock(blk.Block, deps.Options{})
		if Accurate(expl.Features, gts[i]) {
			cometAcc++
		}
		if Accurate(RandomExplanation(rng, set, probs), gts[i]) {
			randomAcc++
		}
	}
	if cometAcc <= randomAcc {
		t.Errorf("COMET accuracy %d/12 should beat random %d/12", cometAcc, randomAcc)
	}
	if cometAcc < 8 {
		t.Errorf("COMET accuracy %d/12 is too low", cometAcc)
	}
}

func TestExplainerRejectsInvalidBlock(t *testing.T) {
	e := NewExplainer(analytical.New(x86.Haswell), testConfig())
	if _, err := e.Explain(&x86.BasicBlock{}); err == nil {
		t.Error("expected error for empty block")
	}
}

// TestExplainRejectsThresholdOutsideUnitInterval: a precision threshold
// outside (0, 1] is an error, not a search that can never certify.
func TestExplainRejectsThresholdOutsideUnitInterval(t *testing.T) {
	e := NewExplainer(analytical.New(x86.Haswell), testConfig())
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx")
	for _, thr := range []float64{1.5, 1 + 1e-9, -0.2, math.NaN(), math.Inf(1)} {
		if _, err := e.ExplainContext(context.Background(), b, WithPrecisionThreshold(thr)); err == nil {
			t.Errorf("threshold %v: no error", thr)
		}
	}
	if err := ApplyOptions(testConfig(), WithPrecisionThreshold(1)).Validate(); err != nil {
		t.Errorf("threshold 1: %v", err)
	}
}

// TestExplainRejectsInvalidSettings: a setting no search can answer is
// an error from Validate and from Explain, never a panic (a negative
// coverage pool) or a search that does not end (a negative round size).
// Zero still means the default.
func TestExplainRejectsInvalidSettings(t *testing.T) {
	e := NewExplainer(analytical.New(x86.Haswell), testConfig())
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx")
	for _, c := range []struct {
		name string
		set  ExplainOption
	}{
		{"epsilon", WithEpsilon(-0.5)},
		{"epsilon/nan", WithEpsilon(math.NaN())},
		{"epsilon/inf", WithEpsilon(math.Inf(1))},
		{"coverage_samples", WithCoverageSamples(-5)},
		{"anchor.batch_size", func(c *Config) { c.Anchor.BatchSize = -5 }},
		{"anchor.max_samples_per_cand", func(c *Config) { c.Anchor.MaxSamplesPerCand = -5 }},
		{"anchor.beam_width", func(c *Config) { c.Anchor.BeamWidth = -1 }},
		{"anchor.max_anchor_size", func(c *Config) { c.Anchor.MaxAnchorSize = -1 }},
		{"anchor.delta", func(c *Config) { c.Anchor.Delta = 1 }},
		{"anchor.delta/negative", func(c *Config) { c.Anchor.Delta = -0.05 }},
		{"anchor.delta/nan", func(c *Config) { c.Anchor.Delta = math.NaN() }},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Validate first: explaining under a value it accepts may
			// panic or never return.
			if err := e.EffectiveConfig(c.set).Validate(); err == nil {
				t.Fatal("Validate accepted it")
			}
			if _, err := e.ExplainContext(context.Background(), b, c.set); err == nil {
				t.Error("Explain accepted it")
			}
		})
	}
	if err := ApplyOptions(Config{}).Validate(); err != nil {
		t.Errorf("zero config: %v", err)
	}
}

var _ costmodel.Model = (*analytical.Model)(nil)
