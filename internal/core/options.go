package core

// The context-first request API: per-request functional options overlay an
// explainer's base configuration without rebuilding the explainer (and
// without touching its shared prediction cache). Both the library surface
// (comet.WithSeed, ...) and the serving layer (wire.ConfigOverrides)
// compile down to these options.

// ExplainOption adjusts one explanation request's configuration. Options
// apply to a copy of the explainer's config; the explainer itself is
// never mutated, so a single explainer safely serves concurrent requests
// with different options.
type ExplainOption func(*Config)

// WithSeed pins the request's sampling seed, making the explanation
// reproducible: two requests with equal options yield identical output.
func WithSeed(seed int64) ExplainOption {
	return func(c *Config) { c.Seed = seed }
}

// WithEpsilon sets the ε-ball radius around M(β) for this request.
func WithEpsilon(epsilon float64) ExplainOption {
	return func(c *Config) { c.Epsilon = epsilon }
}

// WithPrecisionThreshold sets the precision threshold 1−δ for this request.
func WithPrecisionThreshold(threshold float64) ExplainOption {
	return func(c *Config) { c.PrecisionThreshold = threshold }
}

// WithCoverageSamples sets the Γ(∅) coverage-pool size for this request.
func WithCoverageSamples(n int) ExplainOption {
	return func(c *Config) { c.CoverageSamples = n }
}

// WithParallelism bounds the goroutines that draw this request's Γ
// samples and that query its model, natively batched or not (0
// restores the GOMAXPROCS default). It schedules work only:
// every draw is seeded from its index, so the explanation is the same at
// any parallelism.
func WithParallelism(n int) ExplainOption {
	return func(c *Config) { c.Parallelism = n }
}

// ApplyOptions overlays options onto a base config and normalizes the
// result — the package-level form of Explainer.EffectiveConfig, for
// callers (like the serving layer) that need a request's effective
// config before, or without, building an explainer.
func ApplyOptions(base Config, opts ...ExplainOption) Config {
	for _, opt := range opts {
		if opt != nil {
			opt(&base)
		}
	}
	return base.withDefaults()
}

// EffectiveConfig returns the normalized configuration a request with
// these options would run under: the explainer's base config, the options
// applied in order, then the usual defaulting. Serving layers use it to
// derive a request's cache/coalescing identity without re-implementing
// the overlay.
func (e *Explainer) EffectiveConfig(opts ...ExplainOption) Config {
	return ApplyOptions(e.cfg, opts...)
}
