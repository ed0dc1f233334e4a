package wire

// Go-native fuzz targets for the frame scanner, the binary payload
// decoder, and the JSON wire types. The committed seed corpus lives in
// testdata/fuzz/<FuzzName>/; regenerate it after changing the codec with
//
//	COMET_WRITE_FUZZ_SEEDS=1 go test -run TestWriteFuzzSeeds ./internal/wire
//
// CI runs each target briefly via `make fuzz-smoke`; the invariant under
// fuzz is that hostile bytes never panic, never decode to something that
// re-encodes differently, and never size an allocation from an
// unvalidated length field.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
)

// fuzzBinarySeeds: one intact frame per message type, plus framing edge
// cases (empty input, bare header, torn and corrupted frames).
func fuzzBinarySeeds(tb testing.TB) [][]byte {
	seeds := [][]byte{
		{},
		[]byte("CMT1"),
		[]byte("not a frame at all"),
	}
	for _, msg := range sampleMessages() {
		data, err := EncodeBinary(msg)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
		if len(data) > FrameHeaderSize+2 {
			seeds = append(seeds, data[:len(data)-3]) // torn tail
			mut := append([]byte(nil), data...)
			mut[len(mut)-1] ^= 0xFF // checksum failure
			seeds = append(seeds, mut)
		}
	}
	return seeds
}

// fuzzScanSeeds: concatenated frame streams with garbage between frames,
// the shape ScanFrames exists to resynchronize over.
func fuzzScanSeeds(tb testing.TB) [][]byte {
	msgs := sampleMessages()
	frame := func(i int) []byte {
		data, err := EncodeBinary(msgs[i%len(msgs)])
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	var stream []byte
	for i := 0; i < 4; i++ {
		stream = append(stream, frame(i)...)
	}
	withGarbage := append([]byte(nil), frame(0)...)
	withGarbage = append(withGarbage, []byte("garbage between frames")...)
	withGarbage = append(withGarbage, frame(1)...)
	torn := append(append([]byte(nil), frame(2)...), frame(3)[:9]...)
	return append(fuzzBinarySeeds(tb), stream, withGarbage, torn)
}

// jsonFuzzTargets returns fresh zero values of every wire type the JSON
// facade parses, for FuzzWireJSON to attempt in turn.
func jsonFuzzTargets() []any {
	return []any{
		&Explanation{}, &CorpusResult{}, &ExplainRequest{}, &CorpusRequest{},
		&PredictRequest{}, &PredictResponse{}, &ShardRequest{}, &ShardResponse{},
		&JoinRequest{}, &Error{}, &JobSummary{}, &StreamEvent{}, &Record{},
	}
}

// jsonFuzzSeeds: the JSON form of every sample message, plus a durable
// job record (JSON only — records have no binary encoding) whose
// envelope marks a stream job.
func jsonFuzzSeeds(tb testing.TB) [][]byte {
	rec := &Record{V: RecordVersion, Kind: RecordJob, Key: "job-1", Spec: "uica@hsw",
		Job: &JobEnvelope{ID: "job-1", State: JobRunning, Spec: "uica@hsw",
			Blocks:  []string{"add rax, rbx", "pop rcx"},
			Config:  ConfigSnapshot{Epsilon: 0.5, PrecisionThreshold: 0.95, CoverageSamples: 1000, BatchSize: 64, Seed: -42},
			Workers: 2, Stream: true,
			Failures: []CorpusResult{{Index: 1, Block: "pop rcx", Error: "nope"}}}}
	var seeds [][]byte
	for _, msg := range append(sampleMessages(), rec) {
		data, err := json.Marshal(msg)
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	return seeds
}

// FuzzDecodeBinary: arbitrary bytes through the full frame+payload
// decoder. A successful decode must re-encode to a frame that decodes to
// the JSON-identical message — the codec has exactly one representation
// per value.
func FuzzDecodeBinary(f *testing.F) {
	for _, s := range fuzzBinarySeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeBinary(data)
		if err != nil {
			return
		}
		re, err := EncodeBinary(msg)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", msg, err)
		}
		msg2, err := DecodeBinary(re)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", msg, err)
		}
		j1, err1 := json.Marshal(msg)
		j2, err2 := json.Marshal(msg2)
		if err1 != nil || err2 != nil || !bytes.Equal(j1, j2) {
			t.Fatalf("round trip changed %T:\n first %s (%v)\nsecond %s (%v)",
				msg, j1, err1, j2, err2)
		}
	})
}

// FuzzScanFrames: the resynchronizing scanner over arbitrary bytes. Every
// yielded payload must be a genuine checksummed frame (re-framing it
// verifies), offsets must stay in bounds, and the strict FrameReader over
// the same bytes must never panic.
func FuzzScanFrames(f *testing.F) {
	for _, s := range fuzzScanSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		res := ScanFrames(data, func(off, size int64, payload []byte) {
			if off < 0 || size < FrameHeaderSize || off+size > int64(len(data)) {
				t.Fatalf("frame out of bounds: off=%d size=%d len=%d", off, size, len(data))
			}
			payloads = append(payloads, append([]byte(nil), payload...))
		})
		if res.Frames != len(payloads) {
			t.Fatalf("Frames=%d but callback ran %d times", res.Frames, len(payloads))
		}
		if res.GoodEnd < 0 || res.GoodEnd > int64(len(data)) {
			t.Fatalf("GoodEnd=%d outside [0,%d]", res.GoodEnd, len(data))
		}
		for _, p := range payloads {
			framed, err := AppendFrame(nil, p)
			if err != nil {
				t.Fatalf("yielded payload does not re-frame: %v", err)
			}
			v, err := VerifyFrame(framed)
			if err != nil || !bytes.Equal(v, p) {
				t.Fatalf("re-framed payload does not verify: %v", err)
			}
		}
		fr := NewFrameReader(bytes.NewReader(data))
		strict := 0
		for {
			if _, err := fr.Next(); err != nil {
				break
			}
			strict++
			if strict > res.Frames {
				// The strict reader stops at the first framing error, so it
				// can never read more intact frames than the scanner found.
				t.Fatalf("FrameReader read %d frames, scanner found %d", strict, res.Frames)
			}
		}
	})
}

// FuzzWireJSON: arbitrary bytes through the JSON facade's unmarshal
// paths. Anything that parses must marshal to a stable fixed point
// (marshal→unmarshal→marshal is byte-identical), the property the
// byte-identity guarantee between encodings is built on.
func FuzzWireJSON(f *testing.F) {
	for _, s := range jsonFuzzSeeds(f) {
		f.Add(s)
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"block":"add rax, rbx","config":{"seed":-1}}`))
	f.Add([]byte(`{"event":"error","error":"stream lagged"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, proto := range jsonFuzzTargets() {
			tgt := reflect.New(reflect.TypeOf(proto).Elem()).Interface()
			if json.Unmarshal(data, tgt) != nil {
				continue
			}
			m1, err := json.Marshal(tgt)
			if err != nil {
				t.Fatalf("%T unmarshaled but does not marshal: %v", tgt, err)
			}
			again := reflect.New(reflect.TypeOf(proto).Elem()).Interface()
			if err := json.Unmarshal(m1, again); err != nil {
				t.Fatalf("%T does not re-parse its own output %s: %v", tgt, m1, err)
			}
			m2, err := json.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(m1, m2) {
				t.Fatalf("%T JSON not a fixed point:\n first %s\nsecond %s", tgt, m1, m2)
			}
		}
	})
}

// TestWriteFuzzSeeds regenerates the committed corpus under
// testdata/fuzz/ when COMET_WRITE_FUZZ_SEEDS=1; otherwise it checks that
// every committed seed is byte-for-byte the seed the generators produce
// now, so a codec change that forgets to re-run the generator fails
// here instead of fuzzing stale frames.
func TestWriteFuzzSeeds(t *testing.T) {
	write := os.Getenv("COMET_WRITE_FUZZ_SEEDS") == "1"
	corpora := map[string][][]byte{
		"FuzzDecodeBinary": fuzzBinarySeeds(t),
		"FuzzScanFrames":   fuzzScanSeeds(t),
		"FuzzWireJSON":     jsonFuzzSeeds(t),
	}
	for name, seeds := range corpora {
		dir := filepath.Join("testdata", "fuzz", name)
		want := make(map[string][]byte, len(seeds))
		for i, seed := range seeds {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\n", strconv.Quote(string(seed)))
			want[fmt.Sprintf("seed-%03d", i)] = []byte(body)
		}
		if !write {
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Errorf("%s: %v (regenerate with COMET_WRITE_FUZZ_SEEDS=1)", dir, err)
				continue
			}
			if len(ents) != len(want) {
				t.Errorf("%s: %d committed seeds, generators give %d (regenerate with COMET_WRITE_FUZZ_SEEDS=1)", dir, len(ents), len(want))
			}
			for _, ent := range ents {
				got, err := os.ReadFile(filepath.Join(dir, ent.Name()))
				if err != nil || !bytes.Equal(got, want[ent.Name()]) {
					t.Errorf("%s/%s: stale committed seed (regenerate with COMET_WRITE_FUZZ_SEEDS=1)", dir, ent.Name())
				}
			}
			continue
		}
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for file, body := range want {
			if err := os.WriteFile(filepath.Join(dir, file), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		t.Logf("%s: wrote %d seeds", dir, len(seeds))
	}
}
