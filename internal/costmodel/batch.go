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
// plain Model. Either way PredictThrough splits a batch into at most the
// caller's worker bound of parts, so that bound covers every model's
// queries, the neural model's included.
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

// fanOut splits a batch over at most workers goroutines (0 = GOMAXPROCS).
// It is the one fan-out over any model's queries: each goroutine answers
// one contiguous part through the model's own PredictBatch when it has
// one, and through Predict block by block otherwise.
type fanOut struct {
	Model
	workers int
}

// PredictBatch implements BatchModel. Parts are capped so each goroutine
// gets a meaningful slice of work — per-prediction cost can be
// microseconds (analytical model), where per-goroutine overhead would
// dominate — and a batch too small for two parts runs inline. A panic in
// the model (an AbortQuery, say) is re-raised on the caller's goroutine
// once every part has stopped, so the caller's RecoverQuery boundary
// sees it.
func (f fanOut) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	const minPerPart = 16
	parts := f.workers
	if parts <= 0 {
		parts = runtime.GOMAXPROCS(0)
	}
	if parts = min(parts, (len(blocks)+minPerPart-1)/minPerPart); parts <= 1 {
		return f.predict(blocks)
	}
	out := make([]float64, len(blocks))
	size := (len(blocks) + parts - 1) / parts
	var (
		wg      sync.WaitGroup
		abort   sync.Once
		aborted any
	)
	for start := 0; start < len(blocks); start += size {
		end := min(start+size, len(blocks))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					abort.Do(func() { aborted = r })
				}
			}()
			copy(out[start:end], f.predict(blocks[start:end]))
		}()
	}
	wg.Wait()
	if aborted != nil {
		panic(aborted)
	}
	return out
}

// predict answers one part on the calling goroutine.
func (f fanOut) predict(blocks []*x86.BasicBlock) []float64 {
	if bm, ok := f.Model.(BatchModel); ok {
		return bm.PredictBatch(blocks)
	}
	out := make([]float64, len(blocks))
	for i, b := range blocks {
		out[i] = f.Predict(b)
	}
	return out
}
