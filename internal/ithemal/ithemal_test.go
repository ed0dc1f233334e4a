package ithemal

import (
	"math"
	"runtime"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/x86"
)

func tinyConfig(arch x86.Arch) Config {
	return Config{
		Arch:      arch,
		EmbedDim:  12,
		Hidden:    20,
		LR:        5e-3,
		Epochs:    6,
		BatchSize: 16,
		Seed:      1,
	}
}

func trainingSamples(n int, seed int64) []Sample {
	blocks := bhive.Generate(bhive.Config{N: n, MinInstrs: 2, MaxInstrs: 8, Seed: seed})
	samples := make([]Sample, len(blocks))
	for i, b := range blocks {
		samples[i] = Sample{Block: b.Block, Throughput: b.Throughput[x86.Haswell]}
	}
	return samples
}

func TestTokenizer(t *testing.T) {
	inst := x86.MustParseBlock("mov rax, qword ptr [rbx + rcx*8 + 16]").Instructions[0]
	toks := TokenizeInstruction(inst)
	want := []string{"mov", "<sep>", "rax", "<sep>", "[", "rbx", "rcx", "scale8", "dsmall", "]", "</s>"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v, want %v", toks, want)
	}
	for i := range want {
		if toks[i] != want[i] {
			t.Errorf("token %d = %q, want %q", i, toks[i], want[i])
		}
	}
}

func TestTokenizerImmediateAndLea(t *testing.T) {
	inst := x86.MustParseBlock("add rcx, 7").Instructions[0]
	toks := TokenizeInstruction(inst)
	found := false
	for _, tok := range toks {
		if tok == "<imm>" {
			found = true
		}
	}
	if !found {
		t.Errorf("immediate token missing: %v", toks)
	}
	lea := x86.MustParseBlock("lea rdx, [rax + 1]").Instructions[0]
	toks = TokenizeInstruction(lea)
	if toks[0] != "lea" {
		t.Errorf("lea tokens: %v", toks)
	}
}

func TestVocabularyCoversDataset(t *testing.T) {
	m := New(tinyConfig(x86.Haswell))
	if m.VocabSize() < 100 {
		t.Fatalf("vocabulary too small: %d", m.VocabSize())
	}
	unk := m.vocab["<unk>"]
	for _, b := range bhive.Generate(bhive.Config{N: 50, Seed: 2, SkipLabels: true}) {
		for _, inst := range b.Block.Instructions {
			for _, id := range m.tokenIDs(inst) {
				if id == unk {
					t.Fatalf("dataset token out of vocabulary in %s", inst)
				}
			}
		}
	}
}

func TestUntrainedPredictIsFiniteAndDeterministic(t *testing.T) {
	m := New(tinyConfig(x86.Haswell))
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	p1 := m.Predict(b)
	p2 := m.Predict(b)
	if p1 != p2 {
		t.Error("prediction must be deterministic")
	}
	if math.IsNaN(p1) || math.IsInf(p1, 0) {
		t.Errorf("prediction = %v", p1)
	}
	if p1 < 0.25 {
		t.Errorf("prediction %v below the clamp", p1)
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	samples := trainingSamples(150, 3)
	m := New(tinyConfig(x86.Haswell))
	res := m.Train(samples, nil)
	first, last := res.EpochLoss[0], res.EpochLoss[len(res.EpochLoss)-1]
	if !(last < first*0.7) {
		t.Errorf("training did not reduce loss: %.4f → %.4f", first, last)
	}
}

func TestTrainingImprovesMAPE(t *testing.T) {
	samples := trainingSamples(200, 4)
	m := New(tinyConfig(x86.Haswell))
	before := m.MAPE(samples)
	m.Train(samples, nil)
	after := m.MAPE(samples)
	if !(after < before) {
		t.Errorf("MAPE did not improve: %.1f%% → %.1f%%", before, after)
	}
	if after > 60 {
		t.Errorf("trained MAPE suspiciously high: %.1f%%", after)
	}
}

// TestTrainingDeterministicAcrossWorkerCounts: training runs one goroutine
// per core, and the trained weights are the same bits at every core count.
func TestTrainingDeterministicAcrossWorkerCounts(t *testing.T) {
	samples := trainingSamples(64, 5)
	cfg := DefaultConfig(x86.Haswell)
	cfg.Epochs = 2
	train := func(procs int) *Model {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m := New(cfg)
		m.Train(samples, nil)
		return m
	}
	want := train(1).params()
	for _, procs := range []int{2, 3} {
		for i, p := range train(procs).params() {
			w := want[i]
			for j := range p.W {
				if math.Float64bits(p.W[j]) != math.Float64bits(w.W[j]) {
					t.Fatalf("GOMAXPROCS %d: %s[%d] = %v, GOMAXPROCS 1 trained %v", procs, p.Name, j, p.W[j], w.W[j])
				}
			}
		}
	}
}

func TestPredictConcurrencySafe(t *testing.T) {
	m := New(tinyConfig(x86.Haswell))
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx")
	want := m.Predict(b)
	done := make(chan float64, 16)
	for i := 0; i < 16; i++ {
		go func() { done <- m.Predict(b) }()
	}
	for i := 0; i < 16; i++ {
		if got := <-done; got != want {
			t.Fatalf("concurrent prediction differs: %v vs %v", got, want)
		}
	}
}

func TestModelDistinguishesCheapFromExpensive(t *testing.T) {
	samples := trainingSamples(300, 6)
	m := New(tinyConfig(x86.Haswell))
	m.Train(samples, nil)
	cheap := x86.MustParseBlock("add rax, rbx\nxor rcx, rcx")
	expensive := x86.MustParseBlock("div rcx\ndiv rbx")
	pc, pe := m.Predict(cheap), m.Predict(expensive)
	if !(pe > pc) {
		t.Errorf("trained model should rank div blocks above add blocks: cheap=%.2f expensive=%.2f", pc, pe)
	}
}

func TestEmptyBlockPredictsZero(t *testing.T) {
	m := New(tinyConfig(x86.Haswell))
	if got := m.Predict(&x86.BasicBlock{}); got != 0 {
		t.Errorf("empty block = %v, want 0", got)
	}
}
