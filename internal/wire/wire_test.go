package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/x86"
)

// explain produces a real explanation to project onto the wire.
func explain(t *testing.T) *core.Explanation {
	t.Helper()
	b := x86.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	cfg := core.DefaultConfig()
	cfg.CoverageSamples = 200
	expl, err := core.NewExplainer(uica.New(x86.Haswell), cfg).Explain(b)
	if err != nil {
		t.Fatal(err)
	}
	return expl
}

func TestExplanationLibraryRoundTrip(t *testing.T) {
	orig := explain(t)
	w := FromExplanation(orig)
	back, err := w.Core()
	if err != nil {
		t.Fatal(err)
	}
	if !back.Block.Equal(orig.Block) {
		t.Errorf("block mismatch: %q vs %q", back.Block, orig.Block)
	}
	if back.Features.Key() != orig.Features.Key() {
		t.Errorf("feature identity mismatch: %s vs %s", back.Features.Key(), orig.Features.Key())
	}
	if back.Features.String() != orig.Features.String() {
		t.Errorf("feature rendering mismatch: %s vs %s", back.Features, orig.Features)
	}
	if back.Model != orig.Model || back.Prediction != orig.Prediction ||
		back.Precision != orig.Precision || back.Coverage != orig.Coverage ||
		back.Certified != orig.Certified || back.Queries != orig.Queries ||
		back.CacheHits != orig.CacheHits || back.ModelCalls != orig.ModelCalls {
		t.Errorf("scalar mismatch:\n got %+v\nwant %+v", back, orig)
	}
}

// TestExplanationByteStableRoundTrip is the wire-format contract the
// service acceptance criterion leans on: unmarshal → marshal reproduces
// the exact bytes.
func TestExplanationByteStableRoundTrip(t *testing.T) {
	first, err := json.Marshal(FromExplanation(explain(t)))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Explanation
	if err := json.Unmarshal(first, &decoded); err != nil {
		t.Fatal(err)
	}
	second, err := json.Marshal(&decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("marshal not byte-stable:\n first %s\nsecond %s", first, second)
	}
}

func TestFeatureRoundTripAllKinds(t *testing.T) {
	fs := []features.Feature{
		{Kind: features.KindInstr, Index: 0, Opcode: "add", Text: "inst1: add rcx, rax"},
		{Kind: features.KindInstr, Index: 2, Opcode: "pop", Text: "inst3: pop rbx"},
		{Kind: features.KindDep, Src: 0, Dst: 1, Hazard: deps.RAW},
		{Kind: features.KindDep, Src: 1, Dst: 2, Hazard: deps.WAR},
		{Kind: features.KindDep, Src: 0, Dst: 2, Hazard: deps.WAW},
		{Kind: features.KindCount, Count: 3},
	}
	for _, f := range fs {
		w := FromFeature(f)
		back, err := w.Lib()
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if back.Key() != f.Key() {
			t.Errorf("key mismatch: %s vs %s", back.Key(), f.Key())
		}
		if back.String() != f.String() {
			t.Errorf("rendering mismatch: %s vs %s", back, f)
		}
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		var dec Feature
		if err := json.Unmarshal(raw, &dec); err != nil {
			t.Fatal(err)
		}
		raw2, err := json.Marshal(dec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, raw2) {
			t.Errorf("feature marshal not byte-stable: %s vs %s", raw, raw2)
		}
	}
}

func TestFeatureSetPreservesOrderAndIdentity(t *testing.T) {
	set := features.NewSet(
		features.Feature{Kind: features.KindCount, Count: 2},
		features.Feature{Kind: features.KindInstr, Index: 1, Opcode: "mov"},
	)
	back, err := FromFeatureSet(set).Lib()
	if err != nil {
		t.Fatal(err)
	}
	if back.Key() != set.Key() {
		t.Errorf("set key mismatch: %s vs %s", back.Key(), set.Key())
	}
	for i := range set {
		if back[i].Key() != set[i].Key() {
			t.Errorf("order not preserved at %d: %s vs %s", i, back[i].Key(), set[i].Key())
		}
	}
}

func TestCorpusResultProjection(t *testing.T) {
	b := x86.MustParseBlock("add rcx, rax")
	ok := FromCorpusResult(core.CorpusResult{Index: 3, Block: b, Explanation: &core.Explanation{
		Block: b, Model: "uica", Prediction: 1.0, Features: features.NewSet(),
	}})
	if ok.Index != 3 || ok.Block != "add rcx, rax" || ok.Explanation == nil || ok.Error != "" {
		t.Errorf("unexpected success projection: %+v", ok)
	}
	bad := FromCorpusResult(core.CorpusResult{Index: 1, Block: b, Err: errors.New("boom")})
	if bad.Error != "boom" || bad.Explanation != nil {
		t.Errorf("unexpected failure projection: %+v", bad)
	}
	raw, _ := json.Marshal(bad)
	var dec CorpusResult
	if err := json.Unmarshal(raw, &dec); err != nil {
		t.Fatal(err)
	}
	raw2, _ := json.Marshal(dec)
	if !bytes.Equal(raw, raw2) {
		t.Errorf("corpus result marshal not byte-stable: %s vs %s", raw, raw2)
	}
}

func TestConfigOverridesOptions(t *testing.T) {
	base := core.DefaultConfig()
	if opts := (*ConfigOverrides)(nil).Options(); len(opts) != 0 {
		t.Errorf("nil overrides produced %d options", len(opts))
	}
	o := &ConfigOverrides{Epsilon: 0.25, CoverageSamples: 42, Seed: 7}
	got := core.ApplyOptions(base, o.Options()...)
	if got.Epsilon != 0.25 || got.CoverageSamples != 42 || got.Seed != 7 {
		t.Errorf("overrides not applied: %+v", got)
	}
	if got.PrecisionThreshold != base.PrecisionThreshold {
		t.Errorf("zero overrides clobbered defaults: %+v", got)
	}
}

func TestParseArchAndHazard(t *testing.T) {
	for _, name := range []string{"", "hsw", "haswell", "HSW", "HASWELL", "Haswell"} {
		if a, err := ParseArch(name); err != nil || a != x86.Haswell {
			t.Errorf("ParseArch(%q) = %v, %v", name, a, err)
		}
	}
	if a, err := ParseArch("skl"); err != nil || a != x86.Skylake {
		t.Errorf("ParseArch(skl) = %v, %v", a, err)
	}
	if _, err := ParseArch("znver4"); err == nil {
		t.Error("ParseArch accepted unknown arch")
	}
	if ArchName(x86.Haswell) != "hsw" || ArchName(x86.Skylake) != "skl" {
		t.Error("ArchName wire names changed")
	}
	for s, want := range map[string]deps.Hazard{"RAW": deps.RAW, "WAR": deps.WAR, "WAW": deps.WAW} {
		if h, err := ParseHazard(s); err != nil || h != want {
			t.Errorf("ParseHazard(%q) = %v, %v", s, h, err)
		}
	}
	if _, err := ParseHazard("RAR"); err == nil {
		t.Error("ParseHazard accepted unknown hazard")
	}
	if _, err := (Feature{Kind: "nope"}).Lib(); err == nil {
		t.Error("Feature.Lib accepted unknown kind")
	}
}

// TestClusterEnvelopesByteStable extends the byte-stability contract to
// the shard protocol: leases and their envelopes cross machine
// boundaries, so unmarshal → marshal must reproduce exact bytes.
func TestClusterEnvelopesByteStable(t *testing.T) {
	check := func(name string, v any, decoded any) {
		t.Helper()
		first, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(first, decoded); err != nil {
			t.Fatal(err)
		}
		second, err := json.Marshal(decoded)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s marshal not byte-stable:\n first %s\nsecond %s", name, first, second)
		}
	}
	check("ShardRequest", &ShardRequest{
		JobID: "job-1", Lease: "job-1/l0", Spec: "uica@hsw",
		Config: ConfigSnapshot{Epsilon: 0.5, PrecisionThreshold: 0.7, CoverageSamples: 1000, Seed: 7},
		Blocks: []ShardBlock{{Index: 3, Block: "add rcx, rax"}},
	}, &ShardRequest{})
	check("ShardResponse", &ShardResponse{
		JobID: "job-1", Lease: "job-1/l0",
		Results: []CorpusResult{{Index: 3, Block: "add rcx, rax", Explanation: FromExplanation(explain(t))}},
	}, &ShardResponse{})
	check("JoinRequest", &JoinRequest{URL: "http://w1:8372", Capacity: 2}, &JoinRequest{})
	check("JoinResponse", &JoinResponse{Worker: "http://w1:8372", TTLSeconds: 15}, &JoinResponse{})
	check("ClusterStatus", &ClusterStatus{
		Workers:          []ClusterWorker{{ID: "http://w1:8372", State: "ready", Static: true, Capacity: 1, Inflight: 1, BlocksDone: 9, LeasesDone: 3, Failures: 1}},
		LeasesDispatched: 4, LeasesReleased: 1, StragglerDispatches: 1, WorkerDeaths: 1, BlocksDone: 9, ShardErrors: 2,
	}, &ClusterStatus{})
	check("JobStatus", &JobStatus{
		ID: "job-1", State: JobRunning, Total: 4, Done: 2, Failed: 1,
		Workers: []WorkerBlocks{{Worker: "http://w1:8372", Blocks: 2}},
	}, &JobStatus{})
}
