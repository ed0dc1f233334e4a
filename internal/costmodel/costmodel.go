// Package costmodel defines the query-only interface COMET assumes of any
// cost model M (Section 4 of the paper): a black box mapping valid basic
// blocks to real-valued costs. The three model families the evaluation
// studies — the crude analytical model C, the uiCA-like simulator, and the
// Ithemal-like neural model — all implement Model.
package costmodel

import "github.com/comet-explain/comet/internal/x86"

// Model is a basic-block cost model with query access only.
// Implementations must be safe for concurrent Predict calls: the explainer
// issues queries from multiple goroutines.
type Model interface {
	// Name identifies the model in reports (e.g. "ithemal", "uica", "C").
	Name() string
	// Arch returns the microarchitecture the model targets.
	Arch() x86.Arch
	// Predict returns the block's predicted steady-state throughput in
	// cycles per iteration.
	Predict(b *x86.BasicBlock) float64
}

// CheapQuery marks a model whose query costs less than a prediction-cache
// probe: a closed-form model (the analytical model C, the mca static
// analyzer) evaluates a block faster than PredictThrough can render its
// cache key, and its perturbation draws collide too rarely for hits to
// repay that key. This package alone reads the declaration:
// PredictThrough sends each of such a model's queries straight to its
// Predict, inline on the caller's goroutine — no key, no dedup, no
// cache, no PredictBatch even if it has one — and NewCacheFor gives it
// no cache.
// Inline, an explanation's small sampling rounds skip a fan-out that cost
// more than it saved; a large batch, such as one comet-serve /v1/predict
// request, gives up the idle cores a fan-out would borrow and runs on its
// caller's one explain slot. A wrapper that does not forward the
// method (costmodel.Func, AsBatch's adapter, a timing or remote model)
// hides the declaration and is cached as usual.
type CheapQuery interface {
	CheapQuery()
}

// QueryError is the panic payload a cost model raises when a query cannot
// be answered at all — a remote backend became unreachable, or the
// explainer's context was canceled mid-search. The Model interface has no
// error channel (COMET assumes an oracle), so models abort the querying
// computation instead of inventing values; the caller's API boundary
// recovers QueryError panics with RecoverQuery and surfaces Err as an
// ordinary error. Any other panic value propagates unchanged.
type QueryError struct{ Err error }

// Error implements error.
func (q QueryError) Error() string { return q.Err.Error() }

// Unwrap exposes the cause to errors.Is/As.
func (q QueryError) Unwrap() error { return q.Err }

// AbortQuery panics with a QueryError, aborting the in-flight query
// computation (which returns err from its RecoverQuery boundary).
func AbortQuery(err error) {
	panic(QueryError{Err: err})
}

// RecoverQuery is the recovery boundary for AbortQuery. Deferred
// directly by a function with a named error result,
//
//	defer costmodel.RecoverQuery(&err)
//
// it turns a QueryError panic into *err; any other panic propagates.
func RecoverQuery(err *error) {
	r := recover()
	if qe, ok := r.(QueryError); ok {
		*err = qe.Err
	} else if r != nil {
		panic(r)
	}
}

// Func adapts a function to the Model interface, for tests and toy models
// (such as the 8-instruction example model M1 in Section 4).
type Func struct {
	ModelName string
	ModelArch x86.Arch
	Fn        func(b *x86.BasicBlock) float64
}

// Name implements Model.
func (f Func) Name() string { return f.ModelName }

// Arch implements Model.
func (f Func) Arch() x86.Arch { return f.ModelArch }

// Predict implements Model.
func (f Func) Predict(b *x86.BasicBlock) float64 { return f.Fn(b) }
