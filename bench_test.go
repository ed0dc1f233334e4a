// Benchmarks regenerating (scaled-down instances of) every table and
// figure in the paper's evaluation, plus micro-benchmarks of the hot
// components. DESIGN.md maps each benchmark to its paper artifact; the
// comet-bench command produces the full-size numbers recorded in
// EXPERIMENTS.md.
package comet_test

import (
	"math/rand"
	"testing"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/experiments"
)

// benchParams returns experiment parameters small enough for testing.B.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Blocks = 6
	p.Seeds = 1
	p.PerSource = 4
	p.PerCategory = 2
	p.SweepBlocks = 4
	p.CoverageSamples = 150
	p.TrainBlocks = 150
	p.Epochs = 2
	p.Hidden = 16
	return p
}

// benchSession caches the (tiny) trained models across benchmarks.
var benchSession = experiments.NewSession(benchParams())

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		// Fresh session per iteration except for trained models, which are
		// architecture-level state the paper also reuses across tables.
		s := experiments.NewSession(benchParams())
		if id == "table3" || id == "fig2" || id == "fig3" || id == "fig4" || id == "cases" {
			s = benchSession
		}
		if _, err := s.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2AccuracyHaswell regenerates Table 2 (explanation accuracy
// of COMET vs the random/fixed baselines over the analytical model C).
func BenchmarkTable2Accuracy(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkTable3PrecisionCoverage regenerates Table 3 (average precision
// and coverage of explanations for Ithemal and uiCA on HSW and SKL).
func BenchmarkTable3PrecisionCoverage(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkFigure2Granularity regenerates Figure 2 (MAPE vs explanation
// feature granularity on the full test set).
func BenchmarkFigure2Granularity(b *testing.B) { runExperiment(b, "fig2") }

// BenchmarkFigure3Sources regenerates Figure 3 (the granularity study
// partitioned by BHive source).
func BenchmarkFigure3Sources(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFigure4Categories regenerates Figure 4 (the granularity study
// partitioned by BHive category).
func BenchmarkFigure4Categories(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFigure5ThresholdSweep regenerates Figure 5 (accuracy vs the
// precision threshold 1−δ).
func BenchmarkFigure5ThresholdSweep(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFigure6DeletionSweep regenerates Figure 6 (accuracy vs the
// instruction-deletion probability p_del).
func BenchmarkFigure6DeletionSweep(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkFigure7RetentionSweep regenerates Figure 7 (accuracy and
// precision vs the explicit dependency-retention probability).
func BenchmarkFigure7RetentionSweep(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFigure8ReplacementScheme regenerates Figure 8 (opcode-only vs
// whole-instruction replacement).
func BenchmarkFigure8ReplacementScheme(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkAppendixFSpaceSize regenerates the Appendix F perturbation-
// space cardinality estimates.
func BenchmarkAppendixFSpaceSize(b *testing.B) { runExperiment(b, "appf") }

// BenchmarkCaseStudies regenerates the §6.4 case studies.
func BenchmarkCaseStudies(b *testing.B) { runExperiment(b, "cases") }

// ---- micro-benchmarks of the hot components ---------------------------------

var motivating = "add rcx, rax\nmov rdx, rcx\npop rbx"

// BenchmarkPerturbSample measures one Γ draw (the inner loop of every
// precision estimate).
func BenchmarkPerturbSample(b *testing.B) {
	block := comet.MustParseBlock(motivating)
	p, err := comet.NewPerturber(block, comet.DefaultPerturbConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Sample(rng, nil)
	}
}

// BenchmarkUICAPredict measures one query to the simulation-based model.
func BenchmarkUICAPredict(b *testing.B) {
	block := comet.MustParseBlock(motivating)
	model := comet.NewUICAModel(comet.Haswell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(block)
	}
}

// BenchmarkHardwareSimPredict measures the full-fidelity simulator.
func BenchmarkHardwareSimPredict(b *testing.B) {
	block := comet.MustParseBlock(motivating)
	model := comet.NewHardwareSimulator(comet.Haswell)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(block)
	}
}

// BenchmarkAnalyticalPredict measures the analytical model C.
func BenchmarkAnalyticalPredict(b *testing.B) {
	block := comet.MustParseBlock(motivating)
	model := comet.NewAnalyticalModel(comet.Haswell)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(block)
	}
}

// BenchmarkIthemalPredict measures one neural-model query (the dominant
// cost of explaining Ithemal).
func BenchmarkIthemalPredict(b *testing.B) {
	cfg := comet.DefaultIthemalConfig(comet.Haswell)
	model := comet.NewIthemalModel(cfg)
	block := comet.MustParseBlock(motivating)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(block)
	}
}

// BenchmarkExplainAnalytical measures a full COMET explanation against the
// cheap analytical model (search + sampling cost without model cost).
func BenchmarkExplainAnalytical(b *testing.B) {
	block := comet.MustParseBlock("mov rax, rbx\ndiv rcx\nadd rsi, rdi")
	model := comet.NewAnalyticalModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.Epsilon = comet.AnalyticalEpsilon
	cfg.CoverageSamples = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := comet.NewExplainer(model, cfg).Explain(block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplainUICA measures a full explanation against the simulator.
func BenchmarkExplainUICA(b *testing.B) {
	block := comet.MustParseBlock(motivating)
	model := comet.NewUICAModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 300
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := comet.NewExplainer(model, cfg).Explain(block); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- corpus-scale explanation engine ----------------------------------------

func corpusBenchConfig() comet.Config {
	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 150
	cfg.Parallelism = 1
	return cfg
}

// BenchmarkCorpusSequentialExplain is the baseline: one Explain call per
// block with caching disabled — i.e. the pre-batching query path. (Note
// a default NewExplainer now caches within a block too, so this measures
// the full batching+caching win, not ExplainAll alone. Per-block seeds
// match the corpus engine, so both benchmarks do identical explanatory
// work.)
func BenchmarkCorpusSequentialExplain(b *testing.B) {
	blocks := comet.GenerateBlocks(8, 1)
	model := comet.NewUICAModel(comet.Haswell)
	cfg := corpusBenchConfig()
	cfg.CacheSize = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, blk := range blocks {
			c := cfg
			c.Seed = comet.BlockSeed(cfg.Seed, j)
			if _, err := comet.NewExplainer(model, c).Explain(blk); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkCorpusExplainAll measures the batched engine on the same
// corpus: worker pool across blocks plus the shared prediction cache.
// Explanations are identical to the sequential baseline's.
func BenchmarkCorpusExplainAll(b *testing.B) {
	blocks := comet.GenerateBlocks(8, 1)
	model := comet.NewUICAModel(comet.Haswell)
	cfg := corpusBenchConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comet.NewExplainer(model, cfg).ExplainCorpus(blocks, comet.CorpusOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIthemalPredictBatch measures the neural model's native padded
// lockstep forward (compare per-block against BenchmarkIthemalPredict ×32:
// the lockstep pass skips the autograd tape and streams each weight row
// across the whole batch).
func BenchmarkIthemalPredictBatch(b *testing.B) {
	cfg := comet.DefaultIthemalConfig(comet.Haswell)
	model := comet.NewIthemalModel(cfg)
	blocks := comet.GenerateBlocks(32, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.PredictBatch(blocks)
	}
}

// BenchmarkDatasetGeneration measures labeled dataset synthesis.
func BenchmarkDatasetGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = comet.GenerateDataset(comet.DatasetConfig{N: 20, Seed: int64(i + 1)})
	}
}

// BenchmarkDependencyGraph measures multigraph construction.
func BenchmarkDependencyGraph(b *testing.B) {
	block := comet.MustParseBlock(`mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comet.BuildDependencyGraph(block); err != nil {
			b.Fatal(err)
		}
	}
}
