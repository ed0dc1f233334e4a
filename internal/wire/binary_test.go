package wire

// Tests for the binary frame codec: every message type round-trips
// binary→struct→JSON byte-identically to the JSON-only path, hostile
// inputs (truncations, bit flips, lying length fields) error instead of
// panicking or over-allocating, and the encode path stays allocation-free
// when the destination buffer is reused.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sampleExplanation populates every Explanation field, including one
// feature of each kind.
func sampleExplanation() *Explanation {
	return &Explanation{
		Block:      "add rcx, rax\nmov rdx, rcx\npop rbx",
		Model:      "uica",
		Prediction: 1.75,
		Features: FeatureSet{
			{Kind: KindInstr, Index: 1, Opcode: "mov", Text: "instruction 1 (mov)"},
			{Kind: KindDep, Src: 0, Dst: 1, Hazard: "RAW", Text: "dep 0->1 (RAW)"},
			{Kind: KindCount, Count: 3, Text: "count = 3"},
		},
		Precision:  0.9875,
		Coverage:   0.421,
		Certified:  true,
		Queries:    1234,
		CacheHits:  567,
		ModelCalls: 890,
		Profile: &Profile{
			Source:      "computed",
			SetupUS:     120,
			SearchUS:    45000,
			ModelUS:     30000,
			PrecisionUS: 12000,
			CoverageUS:  800,
			StoreUS:     95,
			TotalUS:     46015,
			Queries:     1234,
			CacheHits:   567,
			ModelCalls:  890,
			Batches:     14,
		},
	}
}

// sampleMessages covers every binary message kind, with both fully
// populated values and the zero-ish edge shapes (nil config, empty
// batches, error results).
func sampleMessages() []any {
	expl := sampleExplanation()
	snap := ConfigSnapshot{
		Epsilon:            0.5,
		PrecisionThreshold: 0.95,
		CoverageSamples:    1000,
		Seed:               -42,
	}
	return []any{
		expl,
		&Explanation{Block: "pop rbx", Model: "c"}, // no profile
		&CorpusResult{Index: 7, Block: expl.Block, Explanation: expl},
		&CorpusResult{Index: 8, Block: "pop rbx", Error: "model exploded"},
		&ExplainRequest{Block: expl.Block, Model: "c", Arch: "skl",
			Config: &ConfigOverrides{Epsilon: 0.25, PrecisionThreshold: 0.9,
				CoverageSamples: 200, Seed: -7}},
		&ExplainRequest{Block: "add rax, rbx"},
		&PredictRequest{Blocks: []string{"add rax, rbx", "pop rcx"}, Model: "uica", Arch: "hsw"},
		&PredictRequest{},
		&PredictResponse{Model: "uica", Arch: "hsw", Spec: "uica@hsw",
			Epsilon: 0.5, Predictions: []float64{1, 2.5, -3.75}},
		&ShardRequest{JobID: "job-1", Lease: "job-1/l0", Spec: "uica@hsw",
			Config: snap,
			Blocks: []ShardBlock{
				{Index: 3, Block: "add rax, rbx"},
				{Index: 5, Block: "pop rcx"},
			},
			Workers: 2},
		&ShardResponse{JobID: "job-1", Lease: "job-1/l0",
			Results: []CorpusResult{
				{Index: 3, Block: expl.Block, Explanation: expl},
				{Index: 5, Block: "pop rcx", Error: "nope"},
			}},
		&Error{Error: "no such model"},
		&JobSummary{ID: "job-1", State: JobDone, Total: 10, Done: 10,
			Failed: 1, Error: "1 of 10 blocks failed", Restored: true},
	}
}

// TestBinaryRoundTripAllTypes is the codec's core contract: encode →
// decode reconstructs the exact struct, and its JSON marshaling is
// byte-identical to marshaling the original — so a binary-negotiated
// response decodes to exactly the JSON-path result.
func TestBinaryRoundTripAllTypes(t *testing.T) {
	for _, msg := range sampleMessages() {
		name := fmt.Sprintf("%T", msg)
		data, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		got, err := DecodeBinary(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if !reflect.DeepEqual(got, msg) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, msg)
		}
		wantJSON, err := json.Marshal(msg)
		if err != nil {
			t.Fatal(err)
		}
		gotJSON, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: JSON byte identity lost:\n got %s\nwant %s", name, gotJSON, wantJSON)
		}
	}
}

// TestAppendBinaryReusesBuffer: appending into a warmed buffer is
// allocation-free — the property the explain and shard hot paths rely on.
func TestAppendBinaryReusesBuffer(t *testing.T) {
	expl := sampleExplanation()
	buf, err := EncodeBinary(expl)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		var err error
		buf, err = AppendBinary(buf[:0], expl)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("AppendBinary into a reused buffer allocates %.1f times per run, want 0", allocs)
	}
}

// TestBinaryTruncationsNeverPanic: every proper prefix of a valid frame
// must decode to an error (not a panic, not a success).
func TestBinaryTruncationsNeverPanic(t *testing.T) {
	for _, msg := range sampleMessages() {
		data, err := EncodeBinary(msg)
		if err != nil {
			t.Fatal(err)
		}
		for n := 0; n < len(data); n++ {
			if _, err := DecodeBinary(data[:n]); err == nil {
				t.Fatalf("%T: decoding %d of %d bytes succeeded", msg, n, len(data))
			}
		}
	}
}

// TestBinaryBitFlipsDetected: any single corrupted byte fails the frame
// checksum (or the header checks) — no corrupt frame is ever decoded.
func TestBinaryBitFlipsDetected(t *testing.T) {
	data, err := EncodeBinary(sampleExplanation())
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if _, err := DecodeBinary(mut); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", i, len(data))
		}
	}
}

// TestBinaryHostileLengthRejected: a payload whose length field claims
// more elements than the payload could hold is rejected before any
// allocation is sized from it.
func TestBinaryHostileLengthRejected(t *testing.T) {
	// version | kind=PredictResponse | three empty strings | ε | huge count
	payload := []byte{BinaryVersion, msgPredictResponse}
	payload = appendStr(payload, "")
	payload = appendStr(payload, "")
	payload = appendStr(payload, "")
	payload = appendF64(payload, 0)
	payload = binary.AppendUvarint(payload, 1<<40) // predictions "count"
	frame, err := AppendFrame(nil, payload)
	if err != nil {
		t.Fatal(err)
	}
	_, err = DecodeBinary(frame)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("hostile length: err = %v, want length-guard error", err)
	}
}

// TestBinaryRejectsVersionKindTrailing covers the payload prologue:
// unknown version, unknown kind, and trailing bytes all fail.
func TestBinaryRejectsVersionKindTrailing(t *testing.T) {
	frame := func(payload []byte) []byte {
		f, err := AppendFrame(nil, payload)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	for _, ver := range []byte{0, 1, 99} {
		if _, err := DecodeBinary(frame([]byte{ver, msgError, 0})); err == nil {
			t.Errorf("version %d accepted", ver)
		}
	}
	if _, err := DecodeBinary(frame([]byte{BinaryVersion, 200, 0})); err == nil {
		t.Error("unknown kind accepted")
	}
	good, err := EncodeBinary(&Error{Error: "x"})
	if err != nil {
		t.Fatal(err)
	}
	payload := append(append([]byte(nil), good[FrameHeaderSize:]...), 0)
	if _, err := DecodeBinary(frame(payload)); err == nil {
		t.Error("trailing payload byte accepted")
	}
}

func BenchmarkExplanationEncodeJSON(b *testing.B) {
	expl := sampleExplanation()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := json.Marshal(expl); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplanationEncodeBinary(b *testing.B) {
	expl := sampleExplanation()
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBinary(buf[:0], expl)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplanationDecodeJSON(b *testing.B) {
	data, err := json.Marshal(sampleExplanation())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Explanation
		if err := json.Unmarshal(data, &e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExplanationDecodeBinary(b *testing.B) {
	data, err := EncodeBinary(sampleExplanation())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBinary(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShardRequestEncodeBinary(b *testing.B) {
	msgs := sampleMessages()
	var sreq *ShardRequest
	for _, m := range msgs {
		if r, ok := m.(*ShardRequest); ok {
			sreq = r
		}
	}
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendBinary(buf[:0], sreq)
		if err != nil {
			b.Fatal(err)
		}
	}
}
