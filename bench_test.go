// Benchmarks regenerating (scaled-down instances of) every table and
// figure in the paper's evaluation, plus micro-benchmarks of the hot
// components. BenchmarkExperiments runs each experiment by its
// experiments.AllIDs id; the comet-bench command produces the full-size
// numbers (see the README's experiment-harness paragraph).
package comet_test

import (
	"math/rand"
	"testing"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/experiments"
	"github.com/comet-explain/comet/internal/perturb"
)

// benchParams returns experiment parameters small enough for testing.B.
func benchParams() experiments.Params {
	p := experiments.DefaultParams()
	p.Blocks = 6
	p.Seeds = 1
	p.SweepBlocks = 4
	p.CoverageSamples = 150
	p.TrainBlocks = 150
	p.Epochs = 2
	p.Hidden = 16
	return p
}

// benchSession caches the (tiny) trained models across benchmarks.
var benchSession = experiments.NewSession(benchParams())

// BenchmarkExperiments regenerates every table and figure, one
// sub-benchmark per experiments.AllIDs id.
func BenchmarkExperiments(b *testing.B) {
	for _, id := range experiments.AllIDs() {
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				// Fresh session per iteration except for trained models,
				// which are architecture-level state the paper also reuses
				// across tables.
				s := experiments.NewSession(benchParams())
				if id == "table3" || id == "fig2" || id == "fig3" || id == "fig4" || id == "cases" {
					s = benchSession
				}
				if _, err := s.Run(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- micro-benchmarks of the hot components ---------------------------------

var motivating = "add rcx, rax\nmov rdx, rcx\npop rbx"

// bhive7 is a 7-instruction bhive block (bhive.Generate with seed 1 and
// 7 instructions, block 4). Its 9 edges and 14 operands sit near the
// corpus means of 6.9 instructions, 9.2 edges and 14.6 operands.
const bhive7 = `movss xmm7, dword ptr [rax + 120]
mov rdi, qword ptr [rcx + 104]
sub eax, eax
and r8, rax
and rax, rdx
mov rsi, qword ptr [rdx + 120]
sub rdx, 81`

// benchBlock names a block a micro-benchmark runs on.
type benchBlock struct{ name, text string }

// queryBenchBlocks are the blocks of the per-query micro-benchmarks: the
// paper's motivating block and a corpus-sized one.
var queryBenchBlocks = []benchBlock{{"motivating", motivating}, {"bhive7", bhive7}}

// benchBlocks runs fn as one sub-benchmark per block.
func benchBlocks(b *testing.B, blocks []benchBlock, fn func(b *testing.B, block *comet.BasicBlock)) {
	for _, bb := range blocks {
		block := comet.MustParseBlock(bb.text)
		b.Run(bb.name, func(b *testing.B) { fn(b, block) })
	}
}

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

// BenchmarkPerturbSampleInto measures one Γ draw into a reused buffer,
// the way the coverage pool and precision sampling draw.
func BenchmarkPerturbSampleInto(b *testing.B) {
	benchBlocks(b, queryBenchBlocks, func(b *testing.B, block *comet.BasicBlock) {
		p, err := comet.NewPerturber(block, comet.DefaultPerturbConfig())
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		var res perturb.Result
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.SampleInto(rng, nil, &res)
		}
	})
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

// BenchmarkMCAPredict measures the static-analysis model.
func BenchmarkMCAPredict(b *testing.B) {
	block := comet.MustParseBlock(motivating)
	model := comet.NewMCAModel(comet.Haswell)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.Predict(block)
	}
}

// BenchmarkAnalyticalPredict measures the analytical model C.
func BenchmarkAnalyticalPredict(b *testing.B) {
	benchBlocks(b, queryBenchBlocks, func(b *testing.B, block *comet.BasicBlock) {
		model := comet.NewAnalyticalModel(comet.Haswell)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = model.Predict(block)
		}
	})
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
// queries/op, like every explain benchmark's, is the mean query count.
func BenchmarkExplainAnalytical(b *testing.B) {
	block := comet.MustParseBlock("mov rax, rbx\ndiv rcx\nadd rsi, rdi")
	model := comet.NewAnalyticalModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.Epsilon = comet.AnalyticalEpsilon
	cfg.CoverageSamples = 300
	queries := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		e, err := comet.NewExplainer(model, cfg).Explain(block)
		if err != nil {
			b.Fatal(err)
		}
		queries += e.Queries
	}
	b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
}

// BenchmarkExplainUICA measures a full explanation against the simulator.
func BenchmarkExplainUICA(b *testing.B) { benchExplainUICA(b, 0) }

// BenchmarkExplainUICASerial is BenchmarkExplainUICA at Parallelism 1, the
// setting the service and corpus workers explain at: sampling and uica's
// queries run on the caller's goroutine.
func BenchmarkExplainUICASerial(b *testing.B) { benchExplainUICA(b, 1) }

func benchExplainUICA(b *testing.B, parallelism int) {
	block := comet.MustParseBlock(motivating)
	model := comet.NewUICAModel(comet.Haswell)
	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 300
	cfg.Parallelism = parallelism
	queries := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		e, err := comet.NewExplainer(model, cfg).Explain(block)
		if err != nil {
			b.Fatal(err)
		}
		queries += e.Queries
	}
	b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
}

// BenchmarkExplainIthemal measures one explanation of the neural model,
// the model the paper explains, at core.DefaultConfig on one goroutine
// (the setting the service explains at). A small spec — default widths,
// 400 training blocks, 2 epochs — trains before the timer; each op
// explains the same 10-instruction bhive block from a cold prediction
// cache. queries/op is the explanation's query count: model time, nearly
// all of an op, scales with it.
func BenchmarkExplainIthemal(b *testing.B) {
	rm, err := comet.ResolveModelString("ithemal@hsw?train=400&epochs=2")
	if err != nil {
		b.Fatal(err)
	}
	block := bhive.Generate(bhive.Config{N: 6, MinInstrs: 4, MaxInstrs: 10, Seed: 31, SkipLabels: true})[5].Block
	cfg := comet.DefaultConfig()
	cfg.Epsilon = rm.Epsilon
	cfg.Parallelism = 1
	queries := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e, err := comet.NewExplainer(rm.Model, cfg).Explain(block)
		if err != nil {
			b.Fatal(err)
		}
		queries += e.Queries
	}
	b.ReportMetric(float64(queries)/float64(b.N), "queries/op")
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

// depBenchBlock is the case-study block the dependency benchmarks share.
const depBenchBlock = `mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`

// BenchmarkDependencyGraph measures multigraph construction.
func BenchmarkDependencyGraph(b *testing.B) {
	block := comet.MustParseBlock(depBenchBlock)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := comet.BuildDependencyGraph(block); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccessSummary measures the access summary that answers C's
// and the coverage pool's dependency questions in place of the graph.
func BenchmarkAccessSummary(b *testing.B) {
	blocks := []benchBlock{{"casestudy", depBenchBlock}, {"bhive7", bhive7}}
	benchBlocks(b, blocks, func(b *testing.B, block *comet.BasicBlock) {
		var buf [16]deps.InstAccess
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := deps.AppendSummary(buf[:0], block, deps.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
