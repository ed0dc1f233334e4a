package service

// End-to-end tests of the binary wire negotiation: byte identity between
// the JSON facade and decoded binary frames on every binary-capable
// endpoint, the interned zero-parse fast path, and the streaming job
// endpoint in both encodings — including the bounded catch-up ring's lag
// behavior.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// postFrame sends msg as a binary frame with a binary Accept header and
// returns the response plus its raw body.
func postFrame(t *testing.T, url string, msg any) (*http.Response, []byte) {
	t.Helper()
	frame, err := wire.EncodeBinary(msg)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.FrameContentType)
	req.Header.Set("Accept", wire.FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// decodeFrameBody verifies the response is a well-formed frame and
// returns the decoded message.
func decodeFrameResponse(t *testing.T, resp *http.Response, body []byte) any {
	t.Helper()
	if ct := resp.Header.Get("Content-Type"); ct != wire.FrameContentType {
		t.Fatalf("binary response Content-Type = %q, want %q", ct, wire.FrameContentType)
	}
	msg, err := wire.DecodeBinary(body)
	if err != nil {
		t.Fatalf("decoding response frame: %v", err)
	}
	return msg
}

// requireJSONIdentity asserts that the decoded binary message marshals to
// exactly the JSON-path body (which writeJSON terminates with a newline).
func requireJSONIdentity(t *testing.T, what string, decoded any, jsonBody []byte) {
	t.Helper()
	remarshaled, err := json.Marshal(decoded)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(append(remarshaled, '\n'), jsonBody) {
		t.Errorf("%s: decoded binary response is not JSON-identical:\n binary %s\n   json %s",
			what, remarshaled, jsonBody)
	}
}

// TestBinaryExplainMatchesJSONByteForByte: the same explain request over
// both encodings produces the same explanation, byte for byte once the
// frame is decoded and re-marshaled.
func TestBinaryExplainMatchesJSONByteForByte(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &wire.ExplainRequest{Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides()}

	jsonResp, jsonBody := postJSON(t, ts.URL+"/v1/explain", req)
	if jsonResp.StatusCode != http.StatusOK {
		t.Fatalf("json explain: status %d: %s", jsonResp.StatusCode, jsonBody)
	}
	binResp, binBody := postFrame(t, ts.URL+"/v1/explain", req)
	if binResp.StatusCode != http.StatusOK {
		t.Fatalf("binary explain: status %d", binResp.StatusCode)
	}
	decoded := decodeFrameResponse(t, binResp, binBody)
	if _, ok := decoded.(*wire.Explanation); !ok {
		t.Fatalf("binary explain returned %T, want *wire.Explanation", decoded)
	}
	requireJSONIdentity(t, "explain", decoded, jsonBody)
}

// TestBinaryInternFastPath: a repeated identical binary request is served
// from the intern table — no frame decode, no model work — and still
// returns the identical bytes.
func TestBinaryInternFastPath(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	s.RegisterModel("counting", x86.Haswell, model, 0)
	req := &wire.ExplainRequest{Block: testBlock, Model: "counting", Config: fastOverrides()}

	_, first := postFrame(t, ts.URL+"/v1/explain", req)
	callsAfterFirst := model.calls.Load()
	if callsAfterFirst == 0 {
		t.Fatal("first request did not reach the model")
	}
	hitsBefore := s.metrics.internHits.Load()

	_, second := postFrame(t, ts.URL+"/v1/explain", req)
	if !bytes.Equal(first, second) {
		t.Error("interned response differs from the computed one")
	}
	if got := s.metrics.internHits.Load(); got != hitsBefore+1 {
		t.Errorf("intern hits = %d, want %d", got, hitsBefore+1)
	}
	if got := model.calls.Load(); got != callsAfterFirst {
		t.Errorf("model called %d more times on the interned request", got-callsAfterFirst)
	}
}

// TestBinaryPredictMatchesJSON: /v1/predict over frames decodes to the
// JSON-identical batch response.
func TestBinaryPredictMatchesJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &wire.PredictRequest{Blocks: []string{testBlock, "add rax, rbx"}, Model: "uica", Arch: "hsw"}

	jsonResp, jsonBody := postJSON(t, ts.URL+"/v1/predict", req)
	if jsonResp.StatusCode != http.StatusOK {
		t.Fatalf("json predict: status %d: %s", jsonResp.StatusCode, jsonBody)
	}
	binResp, binBody := postFrame(t, ts.URL+"/v1/predict", req)
	if binResp.StatusCode != http.StatusOK {
		t.Fatalf("binary predict: status %d", binResp.StatusCode)
	}
	decoded := decodeFrameResponse(t, binResp, binBody)
	requireJSONIdentity(t, "predict", decoded, jsonBody)
}

// TestBinaryShardMatchesJSON: a shard lease over frames returns the same
// per-block results as over JSON — the encoding must never perturb the
// cluster determinism contract.
func TestBinaryShardMatchesJSON(t *testing.T) {
	// Two fresh workers, one per encoding: explanation accounting fields
	// (cache_hits, model_calls) depend on prediction-cache warmth, so only
	// cold-for-cold runs are byte-comparable.
	jsonSrv, jsonTS := newTestServer(t, Config{})
	jsonSrv.SetReady()
	binSrv, binTS := newTestServer(t, Config{})
	binSrv.SetReady()
	sreq := wire.ShardRequest{
		JobID:  "job-neg",
		Lease:  "job-neg/l0",
		Spec:   "uica@hsw",
		Config: shardConfigFor(t, jsonSrv, fastOverrides()),
	}
	for i, b := range clusterTestBlocks[:3] {
		sreq.Blocks = append(sreq.Blocks, wire.ShardBlock{Index: i, Block: b})
	}

	jsonResp, jsonBody := postJSON(t, jsonTS.URL+"/v1/shard", sreq)
	if jsonResp.StatusCode != http.StatusOK {
		t.Fatalf("json shard: status %d: %s", jsonResp.StatusCode, jsonBody)
	}
	binResp, binBody := postFrame(t, binTS.URL+"/v1/shard", &sreq)
	if binResp.StatusCode != http.StatusOK {
		t.Fatalf("binary shard: status %d", binResp.StatusCode)
	}
	decoded := decodeFrameResponse(t, binResp, binBody)
	sres, ok := decoded.(*wire.ShardResponse)
	if !ok {
		t.Fatalf("binary shard returned %T, want *wire.ShardResponse", decoded)
	}
	if len(sres.Results) != 3 {
		t.Fatalf("shard results = %d, want 3", len(sres.Results))
	}
	requireJSONIdentity(t, "shard", decoded, jsonBody)
}

// TestBinaryErrorResponses: a binary-negotiated failure comes back as a
// framed wire.Error, not a JSON envelope the frame decoder would choke on.
func TestBinaryErrorResponses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := &wire.ExplainRequest{Block: testBlock, Model: "no-such-model"}
	resp, body := postFrame(t, ts.URL+"/v1/explain", req)
	if resp.StatusCode == http.StatusOK {
		t.Fatal("unknown model succeeded")
	}
	decoded := decodeFrameResponse(t, resp, body)
	if e, ok := decoded.(*wire.Error); !ok || e.Error == "" {
		t.Fatalf("binary error response decoded to %#v, want non-empty *wire.Error", decoded)
	}
}

// streamJob submits a stream-only corpus job and returns its ID.
func streamJob(t *testing.T, baseURL string, blocks []string) string {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/corpus", wire.CorpusRequest{
		Blocks: blocks, Model: "uica", Config: fastOverrides(), Stream: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d: %s", resp.StatusCode, body)
	}
	var accepted wire.JobAccepted
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	return accepted.ID
}

// waitJobDone polls job status until the job reaches a terminal state.
func waitJobDone(t *testing.T, baseURL, id string) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var st wire.JobStatus
		getJSON(t, baseURL+"/v1/jobs/"+id, &st)
		switch st.State {
		case wire.JobDone, wire.JobFailed, wire.JobCanceled:
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish: %+v", id, st)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestJobStreamNDJSON: the default stream encoding delivers every result
// as a wire.StreamEvent line, ends with a done summary, and the
// stream-only job's status endpoint never pages results.
func TestJobStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	blocks := []string{testBlock, "add rax, rbx", "pop rcx"}
	id := streamJob(t, ts.URL, blocks)

	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream Content-Type = %q, want application/x-ndjson", ct)
	}
	seen := make(map[int]bool)
	var done *wire.JobSummary
	dec := json.NewDecoder(resp.Body)
	for {
		var ev wire.StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		switch {
		case ev.Result != nil:
			if ev.Result.Error != "" {
				t.Fatalf("block %d failed: %s", ev.Result.Index, ev.Result.Error)
			}
			seen[ev.Result.Index] = true
		case ev.Done != nil:
			done = ev.Done
		default:
			t.Fatalf("stream error event: %s", ev.Error)
		}
	}
	if len(seen) != len(blocks) {
		t.Errorf("streamed %d distinct results, want %d", len(seen), len(blocks))
	}
	if done == nil || done.State != wire.JobDone || done.Done != len(blocks) {
		t.Errorf("terminal summary = %+v, want done with %d blocks", done, len(blocks))
	}

	st := waitJobDone(t, ts.URL, id)
	if len(st.Results) != 0 {
		t.Errorf("stream-only job status carries %d results, want none", len(st.Results))
	}
}

// TestJobStreamBinaryFrames: Accept: application/x-comet-frame turns the
// stream into raw frames — CorpusResult frames then a terminal
// JobSummary — each JSON-identical to the NDJSON event payloads.
func TestJobStreamBinaryFrames(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	blocks := []string{testBlock, "add rax, rbx"}
	id := streamJob(t, ts.URL, blocks)
	waitJobDone(t, ts.URL, id)

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", wire.FrameContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != wire.FrameContentType {
		t.Fatalf("binary stream Content-Type = %q, want %q", ct, wire.FrameContentType)
	}

	fr := wire.NewFrameReader(resp.Body)
	results := 0
	var done *wire.JobSummary
	for {
		payload, err := fr.Next()
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		msg, err := wire.DecodeBinaryPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		switch m := msg.(type) {
		case *wire.CorpusResult:
			if done != nil {
				t.Fatal("result frame after the terminal summary")
			}
			if m.Error != "" {
				t.Fatalf("block %d failed: %s", m.Index, m.Error)
			}
			results++
		case *wire.JobSummary:
			done = m
		default:
			t.Fatalf("unexpected stream frame %T", msg)
		}
	}
	if results != len(blocks) {
		t.Errorf("binary stream carried %d results, want %d", results, len(blocks))
	}
	if done == nil || done.State != wire.JobDone {
		t.Errorf("terminal summary = %+v, want done", done)
	}
}

// TestJobStreamLagError: a reader that starts after the catch-up ring has
// trimmed gets a deterministic lag error event instead of silently
// missing results.
func TestJobStreamLagError(t *testing.T) {
	_, ts := newTestServer(t, Config{StreamRingSize: 4})
	blocks := make([]string, 12)
	for i := range blocks {
		// Distinct blocks so every result is a real computation.
		blocks[i] = fmt.Sprintf("add rax, %d\nadd rbx, rax", i+1)
	}
	id := streamJob(t, ts.URL, blocks)
	waitJobDone(t, ts.URL, id)

	// 12 results through a ring of 4 necessarily trimmed the front, so a
	// fresh reader at cursor 0 has already lost data.
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sawLag bool
	dec := json.NewDecoder(resp.Body)
	for {
		var ev wire.StreamEvent
		if err := dec.Decode(&ev); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if ev.Result == nil && ev.Done == nil {
			sawLag = true
			if ev.Error == "" {
				t.Error("lag event has empty error")
			}
		}
	}
	if !sawLag {
		t.Error("late reader on a trimmed stream job saw no lag error event")
	}
}

// TestStatusRecorderFlushes: the instrument wrapper's recorder passes a
// job stream's flushes through to the connection.
func TestStatusRecorderFlushes(t *testing.T) {
	inner := httptest.NewRecorder()
	var w http.ResponseWriter = &statusRecorder{ResponseWriter: inner}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder is not an http.Flusher")
	}
	f.Flush()
	if !inner.Flushed {
		t.Error("Flush did not reach the underlying writer")
	}
}
