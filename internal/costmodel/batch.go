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

// AsBatch returns model itself when it already implements BatchModel, and
// otherwise adapts it by fanning Predict calls out with FanOut.
func AsBatch(model Model) BatchModel {
	if bm, ok := model.(BatchModel); ok {
		return bm
	}
	return fanOut{model, 0}
}

// fanOut adapts a model without a native batch path, fanning out over at
// most workers goroutines (0 = GOMAXPROCS).
type fanOut struct {
	Model
	workers int
}

// PredictBatch implements BatchModel by parallel fan-out.
func (f fanOut) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return FanOut(blocks, f.workers, f.Predict)
}

// FanOut evaluates predict over every block with at most workers goroutines
// (0 = GOMAXPROCS) and returns the predictions in block order. Small
// batches run inline, and workers are capped so each goroutine gets a
// meaningful slice of work — per-prediction cost can be microseconds
// (analytical model), where per-goroutine overhead would dominate. A
// panic in predict (an AbortQuery, say) is re-raised on the caller's
// goroutine once every worker has stopped, so the caller's RecoverQuery
// boundary sees it.
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
	var (
		wg      sync.WaitGroup
		abort   sync.Once
		aborted any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					abort.Do(func() { aborted = r })
				}
			}()
			for i := w; i < len(blocks); i += workers {
				out[i] = predict(blocks[i])
			}
		}(w)
	}
	wg.Wait()
	if aborted != nil {
		panic(aborted)
	}
	return out
}
