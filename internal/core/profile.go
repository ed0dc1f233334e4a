package core

import "time"

// Profile records where one explanation's wall time went, stage by
// stage. The engine fills it on every computed explanation — the cost is
// a handful of clock reads against seconds of model queries — so callers
// (the comet CLI's -profile flag, the service's ?profile=1) never pay a
// recompute to see it.
//
// The stages overlap deliberately: Model and Precision are subsets of
// Search (the beam search issues the model queries and the KL-LUCB
// sampling rounds), so Setup+Search+Coverage+Store ≈ Total while
// Model/Precision attribute Search's interior.
type Profile struct {
	// Setup covers perturbation-space construction (canonicalization,
	// dependency analysis, legality tables) up to the first model query.
	Setup time.Duration
	// Coverage covers the shared Γ(∅) coverage-pool construction.
	Coverage time.Duration
	// Search covers the anchors beam search, including its model queries
	// and precision sampling.
	Search time.Duration
	// Model is the time spent inside cost-model batch calls (including
	// prediction-cache resolution), across every stage.
	Model time.Duration
	// Precision is the time spent in KL-LUCB precision-sampling rounds
	// (perturbation generation plus their model queries).
	Precision time.Duration
	// Store covers the durable-store write of the finished explanation.
	// The engine never persists; a caller that does (the comet CLI's
	// -store) fills it and adds it to Total.
	Store time.Duration
	// Total is end-to-end wall time for the computation.
	Total time.Duration

	// Queries, CacheHits, and ModelCalls mirror the Explanation's query
	// accounting so the profile is self-contained; Batches counts the
	// cost-model batch calls that resolved the misses.
	Queries    int
	CacheHits  int
	ModelCalls int
	Batches    int
}
