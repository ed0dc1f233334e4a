package costmodel

import (
	"runtime"
	"sync"

	"github.com/comet-explain/comet/internal/x86"
)

// BatchModel is a cost model that can answer many queries per invocation.
// Amortizing queries is COMET's single biggest throughput lever: precision
// certification spends thousands of model queries per block, and a batched
// model can share per-call overhead (goroutine fan-out for simulators,
// weight-matrix traversal for the neural model) across a whole batch.
//
// PredictBatch(blocks)[i] must equal Predict(blocks[i]) exactly — batching
// is a performance contract, never a numerical one — and implementations
// must remain safe for concurrent use. The blocks are borrowed for the
// call only: callers reuse their storage for the next draws as soon as
// PredictBatch returns, so an implementation must not keep a block, or
// key anything by its pointer, past the call.
type BatchModel interface {
	Model
	// PredictBatch returns one prediction per block, in order.
	PredictBatch(blocks []*x86.BasicBlock) []float64
}

// Batcher adapts any Model to BatchModel by fanning Predict calls out over
// a bounded worker pool. Models with a cheaper native batch path should
// implement BatchModel directly (see AsBatch).
type Batcher struct {
	model   Model
	workers int
}

var _ BatchModel = (*Batcher)(nil)

// NewBatcher wraps model; workers bounds the fan-out (0 = GOMAXPROCS).
func NewBatcher(model Model, workers int) *Batcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Batcher{model: model, workers: workers}
}

// Name implements Model.
func (b *Batcher) Name() string { return b.model.Name() }

// Arch implements Model.
func (b *Batcher) Arch() x86.Arch { return b.model.Arch() }

// Predict implements Model.
func (b *Batcher) Predict(blk *x86.BasicBlock) float64 { return b.model.Predict(blk) }

// Unwrap returns the wrapped model.
func (b *Batcher) Unwrap() Model { return b.model }

// PredictBatch implements BatchModel by parallel fan-out.
func (b *Batcher) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return FanOut(blocks, b.workers, b.model.Predict)
}

// AsBatch returns model itself when it already implements BatchModel, and
// otherwise wraps it in a Batcher with the default worker count.
func AsBatch(model Model) BatchModel {
	if bm, ok := model.(BatchModel); ok {
		return bm
	}
	return NewBatcher(model, 0)
}

// FanOut evaluates predict over every block with at most workers goroutines
// (0 = GOMAXPROCS) and returns the predictions in block order. Small
// batches run inline, and workers are capped so each goroutine gets a
// meaningful slice of work — per-prediction cost can be microseconds
// (analytical model), where per-goroutine overhead would dominate.
func FanOut(blocks []*x86.BasicBlock, workers int, predict func(*x86.BasicBlock) float64) []float64 {
	const minPerWorker = 16
	out := make([]float64, len(blocks))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(blocks) + minPerWorker - 1) / minPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 || len(blocks) < 4 {
		for i, b := range blocks {
			out[i] = predict(b)
		}
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(blocks); i += workers {
				out[i] = predict(blocks[i])
			}
		}(w)
	}
	wg.Wait()
	return out
}
