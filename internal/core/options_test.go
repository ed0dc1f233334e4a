package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/x86"
)

// TestExplainContextMatchesExplain: the context-first API with options is
// bit-identical to the config-at-construction API.
func TestExplainContextMatchesExplain(t *testing.T) {
	model := uica.New(x86.Haswell)
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")

	cfg := testConfig()
	cfg.Seed = 9
	cfg.CoverageSamples = 200
	want, err := NewExplainer(model, cfg).Explain(b)
	if err != nil {
		t.Fatal(err)
	}

	base := testConfig() // seed 1, parallelism unset
	got, err := NewExplainer(model, base).ExplainContext(context.Background(), b,
		WithSeed(9), WithParallelism(1), WithCoverageSamples(200))
	if err != nil {
		t.Fatal(err)
	}
	if got.Prediction != want.Prediction || got.Precision != want.Precision ||
		got.Coverage != want.Coverage || got.Certified != want.Certified ||
		got.Features.Key() != want.Features.Key() ||
		got.Queries != want.Queries || got.CacheHits != want.CacheHits || got.ModelCalls != want.ModelCalls {
		t.Errorf("ExplainContext with options differs from Explain:\n got %+v\nwant %+v", got, want)
	}
}

// TestExplainContextCancellation: a canceled context aborts the search
// with ctx.Err(), both up front and mid-flight.
func TestExplainContextCancellation(t *testing.T) {
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")

	// Already-canceled context: immediate return, no model queries.
	calls := 0
	counting := costmodel.Func{ModelName: "count", ModelArch: x86.Haswell,
		Fn: func(*x86.BasicBlock) float64 { calls++; return 1 }}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewExplainer(counting, testConfig()).ExplainContext(ctx, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != 0 {
		t.Errorf("canceled request still issued %d queries", calls)
	}

	// Cancellation mid-search: a model that cancels the context on its
	// very first query; the search must stop with ctx.Err() instead of
	// finishing.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	n := 0
	cancelling := costmodel.Func{ModelName: "cancel", ModelArch: x86.Haswell,
		Fn: func(blk *x86.BasicBlock) float64 {
			if n++; n == 1 {
				cancel2()
			}
			return float64(blk.Len())
		}}
	cfg := testConfig()
	cfg.Parallelism = 1
	_, err = NewExplainer(cancelling, cfg).ExplainContext(ctx2, b)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-search cancellation: err = %v, want context.Canceled", err)
	}
	if n > 2 {
		t.Errorf("search kept querying after cancellation: %d model calls", n)
	}

	// A deadline works the same way.
	ctx3, cancel3 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel3()
	<-ctx3.Done()
	_, err = NewExplainer(counting, testConfig()).ExplainContext(ctx3, b)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: err = %v, want context.DeadlineExceeded", err)
	}
}

// TestEffectiveConfig: options overlay and re-normalize the base config.
func TestEffectiveConfig(t *testing.T) {
	e := NewExplainer(uica.New(x86.Haswell), Config{})
	cfg := e.EffectiveConfig(WithEpsilon(0.25), WithSeed(11), WithParallelism(1), WithPrecisionThreshold(0.9))
	if cfg.Epsilon != 0.25 || cfg.Seed != 11 || cfg.Parallelism != 1 || cfg.PrecisionThreshold != 0.9 {
		t.Errorf("EffectiveConfig overlay wrong: %+v", cfg)
	}
	if cfg.Anchor.PrecisionThreshold != 0.9 {
		t.Errorf("EffectiveConfig did not re-normalize Anchor.PrecisionThreshold: %v", cfg.Anchor.PrecisionThreshold)
	}
	// No options → the explainer's own (defaulted) config.
	if got := e.EffectiveConfig(); got != e.Config() {
		t.Errorf("EffectiveConfig() = %+v, want %+v", got, e.Config())
	}
	// ApplyOptions is the explainer-free form.
	if got := ApplyOptions(Config{}, WithSeed(3)); got.Seed != 3 || got.Epsilon != 0.5 {
		t.Errorf("ApplyOptions: %+v", got)
	}
}

// TestQueryErrorRecovery: a model aborting via costmodel.AbortQuery
// surfaces as an ordinary error from the explainer, not a panic.
func TestQueryErrorRecovery(t *testing.T) {
	boom := errors.New("backend unreachable")
	n := 0
	failing := costmodel.Func{ModelName: "flaky", ModelArch: x86.Haswell,
		Fn: func(blk *x86.BasicBlock) float64 {
			n++
			if n > 10 {
				costmodel.AbortQuery(boom)
			}
			return float64(blk.Len())
		}}
	cfg := testConfig()
	cfg.Parallelism = 1
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	_, err := NewExplainer(failing, cfg).Explain(b)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the aborted query's cause", err)
	}
	// EstimatePrecision is a recovery boundary too.
	n = 0
	_, err = EstimatePrecision(failing, b, nil, cfg, 200, rand.New(rand.NewSource(1)))
	if !errors.Is(err, boom) {
		t.Fatalf("EstimatePrecision: err = %v, want the aborted query's cause", err)
	}
}
