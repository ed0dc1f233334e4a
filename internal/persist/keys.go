package persist

import (
	"crypto/sha256"
	"fmt"
	"io"

	"github.com/comet-explain/comet/internal/anchors"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/wire"
)

// Explanation artifacts are deterministic given (canonical model spec,
// canonical block text, effective config, seed) — the explainer is a
// pure function of those inputs — so their store keys are content
// addresses: a SHA-256 over exactly that identity. Two processes (or two
// machines, or two years) computing the same explanation agree on the
// key without coordination.

// ExplanationID returns the content address of an explanation artifact
// as an interned wire.ContentID — hashed once; compared, cached, and
// single-flighted as 32 fixed bytes. The on-disk store key is its Hex
// rendering. The hashed identity names no worker count and no batch
// size: records written before Γ draws were seeded by index hashed a
// par= field, so they miss and are recomputed under the current sampling
// rather than served; records hashed with a batch= field likewise miss.
// It names the certification rule (anchors.CertRule), which no config
// carries: records certified by the Anchors default level hashed no
// cert= field, so they miss too.
func ExplanationID(spec string, cfg wire.ConfigSnapshot, blockText string) wire.ContentID {
	h := sha256.New()
	fmt.Fprintf(h, "comet-explanation-v%d|%s|eps=%g|thr=%g|cov=%d|seed=%d|cert=%s|",
		wire.RecordVersion, spec,
		cfg.Epsilon, cfg.PrecisionThreshold, cfg.CoverageSamples, cfg.Seed, anchors.CertRule)
	io.WriteString(h, blockText)
	var id wire.ContentID
	h.Sum(id[:0])
	return id
}

// BlockExplanationID returns the content address of block index of a
// corpus explained under effective config snap, together with the
// snapshot that block ran under. Corpus runs seed block i with
// core.BlockSeed(snap.Seed, i), so a corpus block and a single
// explanation at that seed share one record: the comet CLI's -corpus
// -store runs, comet-serve's corpus jobs and /v1/explain all read and
// write the same keys.
func BlockExplanationID(spec string, snap wire.ConfigSnapshot, index int, blockText string) (wire.ContentID, wire.ConfigSnapshot) {
	snap.Seed = core.BlockSeed(snap.Seed, index)
	return ExplanationID(spec, snap, blockText), snap
}

// LookupExplanation returns the explanation stored under content
// address id, if any. LookupExplanation and PutExplanation are the one
// read and the one write of explanation records.
func LookupExplanation(s Store, id wire.ContentID) (*wire.Explanation, bool) {
	rec, ok := s.Get(wire.RecordExplanation, id.Hex())
	if !ok || rec.Explanation == nil {
		return nil, false
	}
	return rec.Explanation, true
}

// PutExplanation persists e under content address id, which must be
// ExplanationID(spec, snap, block text); the record keeps spec and snap
// so stores stay inspectable.
func PutExplanation(s Store, id wire.ContentID, spec string, snap wire.ConfigSnapshot, e *wire.Explanation) error {
	return s.Put(&wire.Record{
		V:           wire.RecordVersion,
		Kind:        wire.RecordExplanation,
		Key:         id.Hex(),
		Spec:        spec,
		Config:      &snap,
		Explanation: e,
	})
}
