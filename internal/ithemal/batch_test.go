package ithemal

import (
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/x86"
)

func tinyModel() *Model {
	cfg := DefaultConfig(x86.Haswell)
	cfg.EmbedDim = 8
	cfg.Hidden = 12
	return New(cfg)
}

// TestPredictBatchBitIdentical is the batching contract: one padded
// lockstep forward must reproduce per-block Predict exactly, bit for bit,
// across blocks of different lengths (padding) and the chunkings
// costmodel.PredictThrough makes at different worker bounds.
func TestPredictBatchBitIdentical(t *testing.T) {
	gen := bhive.Generate(bhive.Config{N: 40, MinInstrs: 1, MaxInstrs: 12, Seed: 11, SkipLabels: true})
	blocks := make([]*x86.BasicBlock, len(gen))
	for i, g := range gen {
		blocks[i] = g.Block
	}
	m := tinyModel()
	for _, workers := range []int{1, 3} {
		batched := make([]float64, len(blocks))
		costmodel.PredictThrough(nil, m, blocks, 0, workers, batched)
		for i, b := range blocks {
			if seq := m.Predict(b); batched[i] != seq {
				t.Errorf("workers=%d block %d: batched %v != sequential %v", workers, i, batched[i], seq)
			}
		}
	}
}

func TestPredictBatchEmptyAndNilBlocks(t *testing.T) {
	m := tinyModel()
	blocks := []*x86.BasicBlock{
		x86.MustParseBlock("add rax, rbx"),
		nil,
		{},
		x86.MustParseBlock("div rcx\nmov rdx, rax"),
	}
	out := m.PredictBatch(blocks)
	if out[1] != 0 || out[2] != 0 {
		t.Errorf("empty blocks must predict 0, got %v", out)
	}
	if out[0] != m.Predict(blocks[0]) || out[3] != m.Predict(blocks[3]) {
		t.Error("non-empty blocks mismatch sequential predictions")
	}
	if all := m.PredictBatch(nil); len(all) != 0 {
		t.Errorf("nil batch returned %v", all)
	}
}

func TestPredictBatchConcurrentUse(t *testing.T) {
	m := tinyModel()
	gen := bhive.Generate(bhive.Config{N: 10, Seed: 3, SkipLabels: true})
	blocks := make([]*x86.BasicBlock, len(gen))
	for i, g := range gen {
		blocks[i] = g.Block
	}
	want := m.PredictBatch(blocks)
	done := make(chan []float64, 4)
	for w := 0; w < 4; w++ {
		go func() { done <- m.PredictBatch(blocks) }()
	}
	for w := 0; w < 4; w++ {
		got := <-done
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("concurrent PredictBatch diverged at block %d", i)
			}
		}
	}
}
