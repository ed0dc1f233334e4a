package costmodel

import (
	"runtime"
	"sync"

	"github.com/comet-explain/comet/internal/x86"
)

// BatchModel is a cost model that answers many queries per invocation
// because it shares work across the batch: the neural model runs one
// lockstep pass over every block, and a remote model sends the whole
// batch in one round trip. A model with no such shared work stays a
// plain Model; PredictThrough fans its queries out at the caller's bound.
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
// otherwise adapts it by fanning Predict calls out over GOMAXPROCS
// goroutines. The adapter hides every other interface of the model,
// CheapQuery included, so explainers should get the plain model: on
// AsBatch(C) they would key, dedup and cache each query.
func AsBatch(model Model) BatchModel {
	if bm, ok := model.(BatchModel); ok {
		return bm
	}
	return fanOut{model, 0}
}

// fanOut adapts a model without a native batch path, fanning out over at
// most workers goroutines (0 = GOMAXPROCS). It is the one fan-out over a
// plain model's Predict.
type fanOut struct {
	Model
	workers int
}

// PredictBatch implements BatchModel. Small batches run inline, and
// workers are capped so each goroutine gets a meaningful slice of work —
// per-prediction cost can be microseconds (analytical model), where
// per-goroutine overhead would dominate. A panic in Predict (an
// AbortQuery, say) is re-raised on the caller's goroutine once every
// worker has stopped, so the caller's RecoverQuery boundary sees it.
func (f fanOut) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	const minPerWorker = 16
	out := make([]float64, len(blocks))
	workers := f.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(blocks) + minPerWorker - 1) / minPerWorker; workers > max {
		workers = max
	}
	if workers <= 1 || len(blocks) < 4 {
		for i, b := range blocks {
			out[i] = f.Predict(b)
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
				out[i] = f.Predict(blocks[i])
			}
		}(w)
	}
	wg.Wait()
	if aborted != nil {
		panic(aborted)
	}
	return out
}
