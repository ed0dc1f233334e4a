// Package wire defines the stable JSON wire format shared by the comet
// CLI (-json) and the cometd explanation service (cmd/comet-serve). The
// format is a faithful, versionable projection of the library types —
// features.Feature/Set, core.Explanation, core.CorpusResult — onto plain
// JSON-friendly structs, plus the request and job envelopes the HTTP API
// speaks.
//
// Two guarantees hold for every type in this package:
//
//  1. Round-trip with the library: FromExplanation followed by
//     Explanation.Core (and likewise for features) reconstructs a value
//     whose identity — feature keys, prediction, accounting — is equal to
//     the original.
//  2. Byte stability: unmarshal followed by marshal reproduces the exact
//     bytes produced by this package. All types marshal through ordered
//     struct fields (never maps), so encoding/json output is
//     deterministic.
package wire

import (
	"fmt"
	"strings"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/x86"
)

// Feature is the wire form of one explanation feature.
type Feature struct {
	// Kind is "inst", "dep", or "count".
	Kind string `json:"kind"`
	// Index is the 0-based instruction position (kind "inst").
	Index int `json:"index,omitempty"`
	// Opcode is the instruction mnemonic (kind "inst").
	Opcode string `json:"opcode,omitempty"`
	// Src and Dst are 0-based endpoints of a dependency edge (kind "dep").
	Src int `json:"src,omitempty"`
	Dst int `json:"dst,omitempty"`
	// Hazard is "RAW", "WAR", or "WAW" (kind "dep").
	Hazard string `json:"hazard,omitempty"`
	// Count is the instruction count η (kind "count").
	Count int `json:"count,omitempty"`
	// Text is the human-readable rendering fixed at extraction time.
	Text string `json:"text,omitempty"`
}

// Wire names for the feature kinds (these match features.Kind.String for
// "inst"; the dependency and count kinds use ASCII-safe names instead of
// the paper's δ and η glyphs).
const (
	KindInstr = "inst"
	KindDep   = "dep"
	KindCount = "count"
)

// kindName maps a library feature kind to its wire name.
func kindName(k features.Kind) string {
	switch k {
	case features.KindInstr:
		return KindInstr
	case features.KindDep:
		return KindDep
	case features.KindCount:
		return KindCount
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// parseKind maps a wire kind name back to the library kind.
func parseKind(s string) (features.Kind, error) {
	switch s {
	case KindInstr:
		return features.KindInstr, nil
	case KindDep:
		return features.KindDep, nil
	case KindCount:
		return features.KindCount, nil
	}
	return 0, fmt.Errorf("wire: unknown feature kind %q", s)
}

// ParseHazard maps "RAW"/"WAR"/"WAW" to the library hazard type.
func ParseHazard(s string) (deps.Hazard, error) {
	switch s {
	case "RAW":
		return deps.RAW, nil
	case "WAR":
		return deps.WAR, nil
	case "WAW":
		return deps.WAW, nil
	}
	return 0, fmt.Errorf("wire: unknown hazard %q", s)
}

// FromFeature projects a library feature onto the wire.
func FromFeature(f features.Feature) Feature {
	w := Feature{Kind: kindName(f.Kind), Text: f.String()}
	switch f.Kind {
	case features.KindInstr:
		w.Index, w.Opcode = f.Index, f.Opcode
	case features.KindDep:
		w.Src, w.Dst, w.Hazard = f.Src, f.Dst, f.Hazard.String()
	case features.KindCount:
		w.Count = f.Count
	}
	return w
}

// Lib reconstructs the library feature. The reconstructed feature has the
// same Key (identity) and String rendering as the original.
func (w Feature) Lib() (features.Feature, error) {
	kind, err := parseKind(w.Kind)
	if err != nil {
		return features.Feature{}, err
	}
	f := features.Feature{Kind: kind, Text: w.Text}
	switch kind {
	case features.KindInstr:
		f.Index, f.Opcode = w.Index, w.Opcode
	case features.KindDep:
		h, err := ParseHazard(w.Hazard)
		if err != nil {
			return features.Feature{}, err
		}
		f.Src, f.Dst, f.Hazard = w.Src, w.Dst, h
	case features.KindCount:
		f.Count = w.Count
	}
	return f, nil
}

// FeatureSet is the wire form of an ordered feature set.
type FeatureSet []Feature

// FromFeatureSet projects a library feature set onto the wire, preserving
// order.
func FromFeatureSet(s features.Set) FeatureSet {
	out := make(FeatureSet, len(s))
	for i, f := range s {
		out[i] = FromFeature(f)
	}
	return out
}

// Lib reconstructs the library feature set.
func (ws FeatureSet) Lib() (features.Set, error) {
	fs := make([]features.Feature, len(ws))
	for i, w := range ws {
		f, err := w.Lib()
		if err != nil {
			return nil, fmt.Errorf("feature %d: %w", i, err)
		}
		fs[i] = f
	}
	return features.NewSet(fs...), nil
}

// Explanation is the wire form of core.Explanation. Block is the block's
// canonical Intel-syntax text (one instruction per line) — exactly the
// input a cost model sees, and exactly what ParseBlock accepts back.
type Explanation struct {
	Block      string     `json:"block"`
	Model      string     `json:"model"`
	Prediction float64    `json:"prediction"`
	Features   FeatureSet `json:"features"`
	Precision  float64    `json:"precision"`
	Coverage   float64    `json:"coverage"`
	Certified  bool       `json:"certified"`
	Queries    int        `json:"queries"`
	CacheHits  int        `json:"cache_hits"`
	ModelCalls int        `json:"model_calls"`
	// Profile is the optional per-explanation profile, attached only when
	// a caller asks for it (?profile=1, comet -profile). It is never set
	// on corpus results, persisted records, or shard responses: its wall
	// times are nondeterministic, and those paths are covered by a
	// byte-identity contract (see FromExplanation).
	Profile *Profile `json:"profile,omitempty"`
}

// Profile breaks one explanation down by pipeline stage: where the wall
// time went (microseconds), how many model queries it took, and which
// layer served the request. Source is one of "computed", "coalesced",
// "result-store", "intern", or "persist" — for anything but "computed"
// the stage times describe the original computation that produced the
// cached value, not the serving request.
type Profile struct {
	Source      string `json:"source,omitempty"`
	SetupUS     int64  `json:"setup_us,omitempty"`     // parse, canonicalize, perturbation-space construction
	SearchUS    int64  `json:"search_us,omitempty"`    // anchors beam search, including its model queries
	ModelUS     int64  `json:"model_us,omitempty"`     // time inside cost-model batch calls
	PrecisionUS int64  `json:"precision_us,omitempty"` // final KL-LUCB precision sampling
	CoverageUS  int64  `json:"coverage_us,omitempty"`  // coverage pool construction and estimate
	StoreUS     int64  `json:"store_us,omitempty"`     // durable-store write
	TotalUS     int64  `json:"total_us,omitempty"`
	Queries     int    `json:"queries,omitempty"`
	CacheHits   int    `json:"cache_hits,omitempty"`
	ModelCalls  int    `json:"model_calls,omitempty"`
	Batches     int    `json:"batches,omitempty"` // cost-model batch calls issued
}

// FromExplanation projects a library explanation onto the wire. The
// engine's profile is deliberately dropped: corpus, cluster, and persist
// paths all compare results byte-for-byte across runs, and wall times
// never reproduce. Callers that want the profile attach it explicitly
// with FromProfile on a fresh copy.
func FromExplanation(e *core.Explanation) *Explanation {
	if e == nil {
		return nil
	}
	return &Explanation{
		Block:      e.Block.String(),
		Model:      e.Model,
		Prediction: e.Prediction,
		Features:   FromFeatureSet(e.Features),
		Precision:  e.Precision,
		Coverage:   e.Coverage,
		Certified:  e.Certified,
		Queries:    e.Queries,
		CacheHits:  e.CacheHits,
		ModelCalls: e.ModelCalls,
	}
}

// Core reconstructs the library explanation, reparsing the block text.
func (w *Explanation) Core() (*core.Explanation, error) {
	b, err := x86.ParseBlock(w.Block)
	if err != nil {
		return nil, fmt.Errorf("wire: block: %w", err)
	}
	set, err := w.Features.Lib()
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return &core.Explanation{
		Block:      b,
		Model:      w.Model,
		Prediction: w.Prediction,
		Features:   set,
		Precision:  w.Precision,
		Coverage:   w.Coverage,
		Certified:  w.Certified,
		Queries:    w.Queries,
		CacheHits:  w.CacheHits,
		ModelCalls: w.ModelCalls,
	}, nil
}

// FromProfile projects the engine's stage profile onto the wire with
// Source "computed".
func FromProfile(p *core.Profile) *Profile {
	if p == nil {
		return nil
	}
	return &Profile{
		Source:      "computed",
		SetupUS:     p.Setup.Microseconds(),
		SearchUS:    p.Search.Microseconds(),
		ModelUS:     p.Model.Microseconds(),
		PrecisionUS: p.Precision.Microseconds(),
		CoverageUS:  p.Coverage.Microseconds(),
		StoreUS:     p.Store.Microseconds(),
		TotalUS:     p.Total.Microseconds(),
		Queries:     p.Queries,
		CacheHits:   p.CacheHits,
		ModelCalls:  p.ModelCalls,
		Batches:     p.Batches,
	}
}

// CorpusResult is the wire form of one corpus outcome: exactly one of
// Explanation and Error is set.
type CorpusResult struct {
	Index       int          `json:"index"`
	Block       string       `json:"block"`
	Explanation *Explanation `json:"explanation,omitempty"`
	Error       string       `json:"error,omitempty"`
}

// FromCorpusResult projects a streamed corpus result onto the wire.
func FromCorpusResult(r core.CorpusResult) CorpusResult {
	w := CorpusResult{Index: r.Index}
	if r.Block != nil {
		w.Block = r.Block.String()
	}
	if r.Err != nil {
		w.Error = r.Err.Error()
	} else {
		w.Explanation = FromExplanation(r.Explanation)
	}
	return w
}

// ConfigOverrides carries the per-request explanation hyperparameters the
// API exposes. Zero values mean "server default". There is no
// parallelism or batch-size override: the server samples each
// explanation on one goroutine and batches model queries itself, and no
// explanation byte depends on either.
type ConfigOverrides struct {
	Epsilon            float64 `json:"epsilon,omitempty"`
	PrecisionThreshold float64 `json:"precision_threshold,omitempty"`
	CoverageSamples    int     `json:"coverage_samples,omitempty"`
	Seed               int64   `json:"seed,omitempty"`
}

// Options compiles the non-zero overrides down to the library's
// per-request functional options — the same ExplainOption values a direct
// comet.ExplainContext caller would pass, so served explanations and
// library explanations share one configuration path. A negative value is
// passed on, not dropped, so core.Config.Validate refuses it.
func (o *ConfigOverrides) Options() []core.ExplainOption {
	if o == nil {
		return nil
	}
	var opts []core.ExplainOption
	if o.Epsilon != 0 {
		opts = append(opts, core.WithEpsilon(o.Epsilon))
	}
	if o.PrecisionThreshold != 0 {
		opts = append(opts, core.WithPrecisionThreshold(o.PrecisionThreshold))
	}
	if o.CoverageSamples != 0 {
		opts = append(opts, core.WithCoverageSamples(o.CoverageSamples))
	}
	if o.Seed != 0 {
		opts = append(opts, core.WithSeed(o.Seed))
	}
	return opts
}

// ExplainRequest is the body of POST /v1/explain.
type ExplainRequest struct {
	// Block is the basic block in Intel syntax, one instruction per line.
	Block string `json:"block"`
	// Model selects the cost model: c | uica | mca | hwsim | ithemal
	// (default: the server's configured default, normally uica).
	Model string `json:"model,omitempty"`
	// Arch selects the microarchitecture: hsw | skl (default hsw).
	Arch string `json:"arch,omitempty"`
	// Config overrides individual explanation hyperparameters.
	Config *ConfigOverrides `json:"config,omitempty"`
}

// CorpusRequest is the body of POST /v1/corpus.
type CorpusRequest struct {
	// Blocks are the corpus blocks, each in Intel syntax.
	Blocks []string `json:"blocks"`
	// Model, Arch, Config: as in ExplainRequest.
	Model  string           `json:"model,omitempty"`
	Arch   string           `json:"arch,omitempty"`
	Config *ConfigOverrides `json:"config,omitempty"`
	// Workers bounds the job's block-level concurrency (0 = server
	// default). Explanations are identical at any worker count.
	Workers int `json:"workers,omitempty"`
	// Stream marks the job stream-only: results are delivered exclusively
	// through GET /v1/jobs/{id}/stream and the server retains only a
	// bounded ring of recent results instead of the full result set, so
	// arbitrarily large corpus jobs run in flat memory. Poll responses for
	// a stream-only job carry progress counts but no Results pages, and a
	// stream reader that falls behind the ring is disconnected with an
	// error event.
	Stream bool `json:"stream,omitempty"`
}

// StreamEvent is one NDJSON line of GET /v1/jobs/{id}/stream (in binary
// negotiation each event is one frame instead). Exactly one field is set:
// Result for each completed block, then a final Done carrying the job's
// terminal summary, or Error if the stream aborts (for example a lagged
// reader on a stream-only job).
type StreamEvent struct {
	Result *CorpusResult `json:"result,omitempty"`
	Done   *JobSummary   `json:"done,omitempty"`
	Error  string        `json:"error,omitempty"`
}

// PredictRequest is the body of POST /v1/predict, the batch cost-model
// endpoint that turns any comet-serve instance into a queryable cost
// model backend. An empty Blocks slice is the discovery handshake: the
// server resolves the model and returns its identity (canonical spec,
// name, arch, ε) with no predictions.
type PredictRequest struct {
	// Blocks are basic blocks in Intel syntax, one prediction each.
	Blocks []string `json:"blocks"`
	// Model is a model spec (name[@target][?k=v]); empty means the
	// server's default model.
	Model string `json:"model,omitempty"`
	// Arch is the target microarchitecture used when the spec has no
	// explicit target: hsw | skl (default hsw).
	Arch string `json:"arch,omitempty"`
}

// PredictResponse is the body of a successful POST /v1/predict.
type PredictResponse struct {
	// Model is the resolved model's name (e.g. "uica").
	Model string `json:"model"`
	// Arch is the resolved model's microarchitecture ("hsw"/"skl").
	Arch string `json:"arch"`
	// Spec is the canonical spec the server resolved the request to.
	Spec string `json:"spec"`
	// Epsilon is the model's recommended ε-ball radius.
	Epsilon float64 `json:"epsilon"`
	// Predictions has one throughput per request block, in order.
	Predictions []float64 `json:"predictions"`
}

// ModelParam is one key=value default in a model's discovery record
// (an ordered struct pair rather than a map, keeping the wire package's
// byte-stability guarantee).
type ModelParam struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// ModelInfo is one registered model family in GET /v1/models.
type ModelInfo struct {
	Name        string   `json:"name"`
	Aliases     []string `json:"aliases,omitempty"`
	Description string   `json:"description,omitempty"`
	// Spec is the canonical spec string resolving the model with every
	// default ("uica@hsw", "remote@<url>").
	Spec    string  `json:"spec"`
	Epsilon float64 `json:"epsilon,omitempty"`
	// Defaults enumerates the accepted parameters and their default
	// values, sorted by key.
	Defaults []ModelParam `json:"defaults,omitempty"`
}

// ModelsResponse is the body of GET /v1/models.
type ModelsResponse struct {
	// Models lists every registered model family, sorted by name.
	Models []ModelInfo `json:"models"`
	// Warmed lists the canonical specs with a live, warmed instance in
	// this server (one shared model + prediction cache each).
	Warmed []string `json:"warmed,omitempty"`
}

// ShardBlock is one block of a shard lease: the block's canonical text
// and its index in the original corpus. The index names the block: the
// worker explains it at core.BlockSeed(Config.Seed, Index), so any
// worker — on any machine, at any worker count — produces bytes
// identical to a single-process run.
type ShardBlock struct {
	Index int    `json:"index"`
	Block string `json:"block"`
}

// ShardRequest is the body of POST /v1/shard: one lease of a sharded
// corpus job, dispatched by a cluster coordinator to a worker. Spec is
// the canonical model spec (its target included) and Config the job's
// full effective configuration, so the worker reconstructs exactly the
// computation the coordinator would have run locally.
type ShardRequest struct {
	JobID string `json:"job_id"`
	Lease string `json:"lease"`
	// Spec is the canonical model spec the job runs under.
	Spec string `json:"spec"`
	// Config is the job's effective explanation configuration.
	Config ConfigSnapshot `json:"config"`
	// Blocks are the leased blocks with their corpus indices.
	Blocks []ShardBlock `json:"blocks"`
	// Workers bounds the worker's block-level concurrency for this lease
	// (0 = the worker's default). Results are identical at any count.
	Workers int `json:"workers,omitempty"`
}

// ShardResponse is the body of a successful POST /v1/shard. Results
// carry the original corpus indices and are sorted by index.
type ShardResponse struct {
	JobID   string         `json:"job_id"`
	Lease   string         `json:"lease"`
	Results []CorpusResult `json:"results"`
}

// JoinRequest is the body of POST /v1/cluster/join — a worker's initial
// self-registration with a coordinator and every subsequent heartbeat
// (join is idempotent; re-joining refreshes the heartbeat clock).
type JoinRequest struct {
	// URL is the worker's advertised base URL ("http://host:port").
	URL string `json:"url"`
	// Capacity is how many leases the worker accepts concurrently (0 = 1).
	Capacity int `json:"capacity,omitempty"`
}

// JoinResponse is the body of a successful POST /v1/cluster/join.
type JoinResponse struct {
	// Worker is the coordinator's id for this worker (its canonical URL).
	Worker string `json:"worker"`
	// TTLSeconds is how long the registration lasts without another
	// heartbeat; workers re-join at a third of it (cluster.Heartbeat).
	TTLSeconds float64 `json:"ttl_seconds"`
}

// ClusterWorker is one worker in GET /v1/cluster.
type ClusterWorker struct {
	ID string `json:"id"`
	// State is "ready", "joining" (readiness not yet probed), "down"
	// (failed a dispatch or probe; re-probed after a backoff), or
	// "expired" (a dynamic worker whose heartbeats stopped).
	State string `json:"state"`
	// Static marks workers from the coordinator's -workers list (they
	// never expire; dynamic workers joined via POST /v1/cluster/join).
	Static   bool `json:"static,omitempty"`
	Capacity int  `json:"capacity"`
	// Inflight is the number of leases currently dispatched to the worker.
	Inflight int `json:"inflight"`
	// BlocksDone and LeasesDone count completed work; Failures counts
	// failed dispatches attributed to this worker.
	BlocksDone int `json:"blocks_done"`
	LeasesDone int `json:"leases_done"`
	Failures   int `json:"failures"`
}

// ClusterStatus is the body of GET /v1/cluster: the worker pool and the
// lease scheduler's lifetime counters.
type ClusterStatus struct {
	Workers             []ClusterWorker `json:"workers"`
	LeasesDispatched    uint64          `json:"leases_dispatched"`
	LeasesReleased      uint64          `json:"leases_released"`
	StragglerDispatches uint64          `json:"straggler_dispatches"`
	WorkerDeaths        uint64          `json:"worker_deaths"`
	BlocksDone          uint64          `json:"blocks_done"`
	ShardErrors         uint64          `json:"shard_errors"`
}

// Job states.
const (
	JobQueued   = "queued"
	JobRunning  = "running"
	JobDone     = "done"
	JobFailed   = "failed"
	JobCanceled = "canceled"
)

// JobAccepted is the 202 body of POST /v1/corpus.
type JobAccepted struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Total int    `json:"total"`
}

// JobStatus is the body of GET /v1/jobs/{id}. Results are paginated with
// ?offset=&limit= over the job's completed results in block-index order;
// NextOffset is the offset of the first result not included (equal to
// Offset+len(Results); poll again from there).
type JobStatus struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Error  string `json:"error,omitempty"`
	// Workers attributes completed blocks to the cluster workers that
	// produced them (coordinator-run jobs only; "local" for blocks the
	// coordinator computed itself on fallback). Sorted by worker id.
	Workers    []WorkerBlocks `json:"workers,omitempty"`
	Offset     int            `json:"offset"`
	NextOffset int            `json:"next_offset"`
	Results    []CorpusResult `json:"results,omitempty"`
}

// WorkerBlocks is one worker's completed-block count in a cluster job.
type WorkerBlocks struct {
	Worker string `json:"worker"`
	Blocks int    `json:"blocks"`
}

// Error is the JSON error envelope every non-2xx response carries.
type Error struct {
	Error string `json:"error"`
}

// ArchName returns the wire name of a microarchitecture.
func ArchName(a x86.Arch) string {
	switch a {
	case x86.Haswell:
		return "hsw"
	case x86.Skylake:
		return "skl"
	}
	return a.String()
}

// ParseArch maps a wire arch name ("hsw"/"haswell"/"skl"/"skylake", any
// case) to the library arch. The empty string means Haswell.
func ParseArch(name string) (x86.Arch, error) {
	switch strings.ToLower(name) {
	case "", "hsw", "haswell":
		return x86.Haswell, nil
	case "skl", "skylake":
		return x86.Skylake, nil
	}
	return x86.Haswell, fmt.Errorf("wire: unknown arch %q (want hsw or skl)", name)
}
