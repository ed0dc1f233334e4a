package wire

// The persisted record envelope: internal/persist appends wire-format
// records to its segment log, so the on-disk schema is the same stable,
// byte-deterministic JSON the HTTP API speaks. Every persisted record is
// wrapped in a Record carrying the envelope version, the record kind, and
// the store key; exactly one payload field is set, matching Kind.

import (
	"github.com/comet-explain/comet/internal/core"
)

// RecordVersion is the current version of the persisted record envelope.
// Readers skip records with a version they don't understand instead of
// failing the whole store, so the format can evolve without migrations.
const RecordVersion = 1

// Record kinds. Explanation records are content-addressed artifacts:
// the one persisted form of an explanation, whether /v1/explain, a
// corpus job or the comet CLI computed it. Job records checkpoint
// asynchronous corpus jobs so a restarted server resumes them where they
// stopped. Readers ignore records of any other kind, such as the
// per-block job results older builds wrote.
const (
	RecordExplanation = "explanation"
	RecordJob         = "job"
)

// Record is the versioned envelope internal/persist writes to disk, one
// length-prefixed, checksummed frame per record.
type Record struct {
	// V is the envelope version (RecordVersion at write time).
	V int `json:"v"`
	// Kind is one of the Record* kind constants.
	Kind string `json:"kind"`
	// Key is the store key: the content address for explanations, the
	// job ID for job envelopes.
	Key string `json:"key"`
	// Spec is the canonical model spec the artifact was computed under
	// (explanations and jobs), kept alongside the hashed key so stores
	// are auditable with comet-store without external context.
	Spec string `json:"spec,omitempty"`
	// Config is the effective explanation configuration for explanation
	// records (jobs carry theirs inside the envelope).
	Config *ConfigSnapshot `json:"config,omitempty"`

	Explanation *Explanation `json:"explanation,omitempty"`
	Job         *JobEnvelope `json:"job,omitempty"`
}

// ConfigSnapshot is the fully resolved explanation configuration an
// artifact was computed under — every field that changes explanation
// bytes (the Γ perturbation and beam-search settings are assumed to be
// the package defaults). Unlike ConfigOverrides, all fields are written:
// a snapshot records what actually ran, not what a client requested.
type ConfigSnapshot struct {
	Epsilon            float64 `json:"epsilon"`
	PrecisionThreshold float64 `json:"precision_threshold"`
	CoverageSamples    int     `json:"coverage_samples"`
	Seed               int64   `json:"seed"`
}

// SnapshotConfig captures the identity-bearing fields of an effective
// config. cfg should already be normalized (core.ApplyOptions or
// Explainer.EffectiveConfig), so zero values never reach the snapshot.
func SnapshotConfig(cfg core.Config) ConfigSnapshot {
	return ConfigSnapshot{
		Epsilon:            cfg.Epsilon,
		PrecisionThreshold: cfg.PrecisionThreshold,
		CoverageSamples:    cfg.CoverageSamples,
		Seed:               cfg.Seed,
	}
}

// Apply overlays the snapshot onto a base config and normalizes the
// result, reconstructing the effective config a persisted artifact ran
// under — the resume path's counterpart to SnapshotConfig.
func (s ConfigSnapshot) Apply(base core.Config) core.Config {
	base.Epsilon = s.Epsilon
	base.PrecisionThreshold = s.PrecisionThreshold
	base.CoverageSamples = s.CoverageSamples
	base.Seed = s.Seed
	return core.ApplyOptions(base)
}

// JobEnvelope persists everything needed to resume a corpus job on a
// fresh process: identity, input blocks, the canonical model spec, the
// effective configuration, and the results of blocks that failed. A
// block that succeeded is persisted as its content-addressed explanation
// record (persist.BlockExplanationID), so the envelope is written only
// on state transitions while explanations append as blocks finish.
// Stream marks a stream-only job, which restores with only its
// catch-up ring; envelopes written without it restore as paged jobs.
type JobEnvelope struct {
	ID       string         `json:"id"`
	State    string         `json:"state"`
	Spec     string         `json:"spec"`
	Blocks   []string       `json:"blocks"`
	Config   ConfigSnapshot `json:"config"`
	Workers  int            `json:"workers,omitempty"`
	Stream   bool           `json:"stream,omitempty"`
	Error    string         `json:"error,omitempty"`
	Failures []CorpusResult `json:"failures,omitempty"`
}

// JobSummary is one job in GET /v1/jobs.
type JobSummary struct {
	ID     string `json:"id"`
	State  string `json:"state"`
	Total  int    `json:"total"`
	Done   int    `json:"done"`
	Failed int    `json:"failed"`
	Error  string `json:"error,omitempty"`
	// Restored marks jobs reloaded from the durable store at startup
	// (finished jobs served from history, or interrupted jobs resumed).
	Restored bool `json:"restored,omitempty"`
}

// JobsResponse is the body of GET /v1/jobs: every job the server knows —
// queued, running, finished (until history eviction), and jobs restored
// from the durable store after a restart — sorted by ID.
type JobsResponse struct {
	Jobs []JobSummary `json:"jobs"`
}
