package ithemal

import (
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/x86"
)

var _ costmodel.BatchModel = (*Model)(nil)

// PredictBatch implements costmodel.BatchModel natively: one padded,
// lockstep LSTM forward over all N blocks instead of N independent forward
// passes. Both LSTM stages batch across their natural unit — the token LSTM
// across every instruction of every block, the block LSTM across blocks —
// so each weight row is streamed through the cache once per timestep for
// the whole batch. Per-block results are bit-identical to Predict: batching
// reorders no floating-point operation within a block. It runs on the
// caller's goroutine; costmodel.PredictThrough splits a batch across the
// caller's worker bound.
func (m *Model) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	out := make([]float64, len(blocks))
	// Stage 1 items are instructions: tokenize everything up front.
	instStart := make([]int, len(blocks)+1)
	var ids [][]int
	maxTokens, maxInsts := 0, 0
	for bi, b := range blocks {
		instStart[bi] = len(ids)
		if b == nil || b.Len() == 0 {
			continue
		}
		if b.Len() > maxInsts {
			maxInsts = b.Len()
		}
		for _, inst := range b.Instructions {
			seq := m.tokenIDs(inst)
			if len(seq) > maxTokens {
				maxTokens = len(seq)
			}
			ids = append(ids, seq)
		}
	}
	instStart[len(blocks)] = len(ids)
	if len(ids) == 0 {
		return out // every block empty; Predict returns 0 for those
	}

	// Token LSTM over all instructions in lockstep. An instruction drops
	// out of the active set once its token sequence ends, so its final
	// hidden state is exactly LSTM.Run's fold over its own length.
	stage1 := m.instLSTM.NewInferBatch(len(ids))
	xs := make([][]float64, len(ids))
	items := make([]int, 0, len(ids))
	for t := 0; t < maxTokens; t++ {
		items = items[:0]
		for i, seq := range ids {
			if t < len(seq) {
				xs[i] = m.emb.Row(seq[t])
				items = append(items, i)
			}
		}
		stage1.Step(xs, items)
	}

	// Block LSTM over instruction embeddings, batched across blocks.
	stage2 := m.blockLSTM.NewInferBatch(len(blocks))
	xs2 := make([][]float64, len(blocks))
	for t := 0; t < maxInsts; t++ {
		items = items[:0]
		for bi, b := range blocks {
			if b != nil && t < b.Len() {
				xs2[bi] = stage1.H[instStart[bi]+t]
				items = append(items, bi)
			}
		}
		stage2.Step(xs2, items)
	}

	for bi, b := range blocks {
		if b == nil || b.Len() == 0 {
			continue
		}
		pred := m.out.DotRow(0, stage2.H[bi]) + m.bias.W[0]
		if pred < 0.25 {
			pred = 0.25
		}
		out[bi] = pred
	}
	return out
}
