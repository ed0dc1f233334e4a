package comet_test

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/comet-explain/comet"
)

func TestPublicAPIQuickstartFlow(t *testing.T) {
	block, err := comet.ParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	if err != nil {
		t.Fatal(err)
	}
	model := comet.NewUICAModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 200
	expl, err := comet.NewExplainer(model, cfg).Explain(block)
	if err != nil {
		t.Fatal(err)
	}
	if len(expl.Features) == 0 {
		t.Error("empty explanation")
	}
	if expl.Prediction <= 0 {
		t.Errorf("prediction = %v", expl.Prediction)
	}
	if !strings.Contains(expl.String(), "uica") {
		t.Errorf("explanation string %q should name the model", expl.String())
	}
}

func TestPublicAPIModels(t *testing.T) {
	block := comet.MustParseBlock("div rcx\nadd rax, rbx")
	for _, arch := range []comet.Arch{comet.Haswell, comet.Skylake} {
		c := comet.NewAnalyticalModel(arch)
		u := comet.NewUICAModel(arch)
		h := comet.NewHardwareSimulator(arch)
		for _, m := range []comet.CostModel{c, u, h} {
			if p := m.Predict(block); p <= 0 {
				t.Errorf("%s/%v predicted %v", m.Name(), arch, p)
			}
		}
		gt, err := c.GroundTruth(block)
		if err != nil {
			t.Fatal(err)
		}
		if len(gt) == 0 {
			t.Error("empty ground truth")
		}
	}
}

func TestPublicAPIDataset(t *testing.T) {
	blocks := comet.GenerateDataset(comet.DatasetConfig{N: 10, Seed: 3, SkipLabels: true})
	if len(blocks) != 10 {
		t.Fatalf("got %d blocks", len(blocks))
	}
	cat := comet.CategoryVector
	vec := comet.GenerateDataset(comet.DatasetConfig{N: 5, Seed: 3, Category: &cat, SkipLabels: true})
	for _, b := range vec {
		if b.Category != comet.CategoryVector {
			t.Errorf("category = %v", b.Category)
		}
	}
	if len(comet.Categories()) != 6 || len(comet.Sources()) != 2 {
		t.Error("taxonomy size wrong")
	}
}

func TestPublicAPIFeaturesAndGraph(t *testing.T) {
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx")
	feats, err := comet.ExtractFeatures(block)
	if err != nil {
		t.Fatal(err)
	}
	if !feats.HasKind(comet.FeatureCount) || !feats.HasKind(comet.FeatureDep) {
		t.Errorf("features missing kinds: %v", feats)
	}
	g, err := comet.BuildDependencyGraph(block)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1, comet.RAW) {
		t.Errorf("missing RAW edge: %v", g.Edges)
	}
}

func TestPublicAPIIthemalTinyTrain(t *testing.T) {
	cfg := comet.DefaultIthemalConfig(comet.Haswell)
	cfg.Hidden = 12
	cfg.EmbedDim = 8
	cfg.Epochs = 2
	m := comet.TrainIthemalOnDataset(cfg, 60, 9)
	block := comet.MustParseBlock("add rax, rbx")
	if p := m.Predict(block); p <= 0 {
		t.Errorf("prediction = %v", p)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	feats, err := comet.ExtractFeatures(block)
	if err != nil {
		t.Fatal(err)
	}
	gt := comet.FeatureSet{feats[0]}
	if !comet.Accurate(comet.FeatureSet{feats[0]}, gt) {
		t.Error("identity explanation should be accurate")
	}
	probs := comet.KindDistribution([]comet.FeatureSet{gt})
	r := comet.RandomExplanation(rand.New(rand.NewSource(1)), feats, probs)
	if len(r) != 1 {
		t.Errorf("random baseline size %d", len(r))
	}
	f := comet.FixedExplanation(feats, comet.MostFrequentKind([]comet.FeatureSet{gt}))
	if len(f) != 1 {
		t.Errorf("fixed baseline size %d", len(f))
	}
}

func TestPublicAPIPrecisionCoverageEstimators(t *testing.T) {
	block := comet.MustParseBlock("mov rax, rbx\ndiv rcx")
	model := comet.NewAnalyticalModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.Epsilon = comet.AnalyticalEpsilon
	feats, _ := comet.ExtractFeatures(block)
	rng := rand.New(rand.NewSource(2))
	p, err := comet.EstimatePrecision(model, block, feats, cfg, 200, rng)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.9 {
		t.Errorf("full feature set should be near-perfectly precise, got %v", p)
	}
	cov, err := comet.EstimateCoverage(block, comet.FeatureSet{}, cfg, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if cov != 1 {
		t.Errorf("empty set coverage = %v, want 1", cov)
	}
}

func TestPublicAPIBatchModelsAndCache(t *testing.T) {
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	models := []comet.CostModel{
		comet.NewAnalyticalModel(comet.Haswell),
		comet.NewUICAModel(comet.Haswell),
		comet.NewMCAModel(comet.Haswell),
		comet.NewHardwareSimulator(comet.Haswell),
	}
	for _, m := range models {
		batch := comet.AsBatchModel(m).PredictBatch([]*comet.BasicBlock{block, block})
		if want := m.Predict(block); batch[0] != want || batch[1] != want {
			t.Errorf("%s: batch %v != sequential %v", m.Name(), batch, want)
		}
	}
	// The neural model shares one lockstep pass across a batch, so it
	// batches natively and AsBatchModel returns it unchanged.
	var neural comet.CostModel = comet.NewIthemalModel(comet.DefaultIthemalConfig(comet.Haswell))
	bm, ok := neural.(comet.BatchCostModel)
	if !ok {
		t.Fatalf("%s does not batch natively", neural.Name())
	}
	if comet.AsBatchModel(neural) != bm {
		t.Errorf("AsBatchModel wrapped a native batch model")
	}
	batch := bm.PredictBatch([]*comet.BasicBlock{block, block})
	if want := neural.Predict(block); batch[0] != want || batch[1] != want {
		t.Errorf("%s: batch %v != sequential %v", neural.Name(), batch, want)
	}

	// A shared cache carries predictions from one explanation to the
	// next and never changes a byte.
	lenModel := comet.FuncCostModel("len", comet.Haswell, func(b *comet.BasicBlock) float64 {
		return float64(len(b.Instructions))
	})
	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 100
	cache := comet.NewPredictionCache(0)
	first, err := comet.NewExplainerWithCache(lenModel, cfg, cache).Explain(block)
	if err != nil {
		t.Fatal(err)
	}
	again, err := comet.NewExplainerWithCache(lenModel, cfg, cache).Explain(block)
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != first.String() || again.CacheHits <= first.CacheHits {
		t.Errorf("shared cache: first %v (%d hits), again %v (%d hits)",
			first, first.CacheHits, again, again.CacheHits)
	}
	if st := cache.Stats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("cache unused: %+v", st)
	}
}

func TestPublicAPIExplainAllCorpus(t *testing.T) {
	gen := comet.GenerateDataset(comet.DatasetConfig{N: 4, Seed: 5, SkipLabels: true})
	blocks := make([]*comet.BasicBlock, len(gen))
	for i, g := range gen {
		blocks[i] = g.Block
	}
	model := comet.NewAnalyticalModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.Epsilon = comet.AnalyticalEpsilon
	cfg.CoverageSamples = 150
	cfg.Parallelism = 2

	e := comet.NewExplainer(model, cfg)
	seen := 0
	for res := range e.ExplainAll(blocks, comet.CorpusOptions{Workers: 2}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		seen++
		// Each corpus block must match a standalone Explain at its
		// derived seed — batching and caching change cost, not results.
		solo := cfg
		solo.Seed = comet.BlockSeed(cfg.Seed, res.Index)
		ref, err := comet.NewExplainer(model, solo).Explain(blocks[res.Index])
		if err != nil {
			t.Fatal(err)
		}
		if res.Explanation.Features.Key() != ref.Features.Key() {
			t.Errorf("block %d: corpus %v != solo %v", res.Index, res.Explanation.Features, ref.Features)
		}
	}
	if seen != len(blocks) {
		t.Errorf("streamed %d of %d results", seen, len(blocks))
	}
}

func TestPublicAPIInstructionThroughput(t *testing.T) {
	div := comet.MustParseBlock("div rcx").Instructions[0]
	add := comet.MustParseBlock("add rax, rbx").Instructions[0]
	if !(comet.InstructionThroughput(comet.Haswell, div) > comet.InstructionThroughput(comet.Haswell, add)) {
		t.Error("div should out-cost add")
	}
}

// TestIthemalSpecMatchesTrainOnDataset: resolving an ithemal spec trains
// exactly the model TrainIthemalOnDataset trains with the same settings
// (the spec's default dataset seed is 42), so the two entry points never
// drift apart. Two epochs, because one leaves every prediction at the
// model's floor; another dataset seed must then predict differently, or
// the comparison would prove nothing.
func TestIthemalSpecMatchesTrainOnDataset(t *testing.T) {
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	predict := func(spec string) float64 {
		t.Helper()
		rm, err := comet.ResolveModelString(spec)
		if err != nil {
			t.Fatal(err)
		}
		return rm.Model.Predict(block)
	}
	cfg := comet.DefaultIthemalConfig(comet.Haswell)
	cfg.Epochs = 2
	want := comet.TrainIthemalOnDataset(cfg, 100, 42).Predict(block)
	if got := predict("ithemal@hsw?train=100&epochs=2"); got != want {
		t.Errorf("resolved spec predicts %v, TrainIthemalOnDataset %v", got, want)
	}
	if other := predict("ithemal@hsw?train=100&epochs=2&data=43"); other == want {
		t.Errorf("dataset seed 43 predicts %v too; the block does not tell the datasets apart", other)
	}
}
