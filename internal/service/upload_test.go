package service

import (
	"bytes"
	"encoding/json"
	"io"
	"mime/multipart"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/comet-explain/comet/internal/ingest"
	"github.com/comet-explain/comet/internal/wire"
)

// fixtureELF is the committed ingestion fixture (see
// internal/ingest/testdata/regen.sh); it yields 7 deduplicated blocks.
const (
	fixtureELF    = "../ingest/testdata/fixture.elf"
	fixtureBlocks = 7
)

func readFixtureELF(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(fixtureELF)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// uploadBinary POSTs a binary body to /v1/corpus and returns the response
// with its body read.
func uploadBinary(t *testing.T, base, query, contentType string, data []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(base+"/v1/corpus"+query, contentType, bytes.NewReader(data))
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

// uploadCorpus uploads a binary, expects acceptance, and polls the job to
// completion.
func uploadCorpus(t *testing.T, base, query, contentType string, data []byte) ([]wire.CorpusResult, wire.JobStatus) {
	t.Helper()
	resp, body := uploadBinary(t, base, query, contentType, data)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	return pollJob(t, base, acc.ID)
}

func fetchMetrics(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestCorpusUploadRunsJob: a raw ELF upload is extracted server-side and
// runs through the ordinary async job pipeline, and the ingest counters
// land on /metrics.
func TestCorpusUploadRunsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	results, st := uploadCorpus(t, ts.URL,
		"?model=uica&arch=hsw&seed=1&coverage=150", "application/x-elf", readFixtureELF(t))
	if st.State != wire.JobDone || st.Failed != 0 {
		t.Fatalf("job state %s, %d failed: %+v", st.State, st.Failed, st)
	}
	if len(results) != fixtureBlocks {
		t.Fatalf("got %d results, want %d", len(results), fixtureBlocks)
	}
	for _, r := range results {
		if r.Explanation == nil || r.Error != "" {
			t.Errorf("block %d (%q): missing explanation or error %q", r.Index, r.Block, r.Error)
		}
	}

	metrics := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		"comet_ingest_binaries_total 1",
		"comet_ingest_blocks_total 7",
		"comet_ingest_deduped_total 1",
		"comet_ingest_skipped_total 2",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestCorpusUploadMultipart: the same binary arrives as the first file
// part of a multipart form.
func TestCorpusUploadMultipart(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	fw, err := mw.CreateFormFile("binary", "fixture.elf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fw.Write(readFixtureELF(t)); err != nil {
		t.Fatal(err)
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}

	results, st := uploadCorpus(t, ts.URL,
		"?model=uica&seed=1&coverage=150", mw.FormDataContentType(), buf.Bytes())
	if st.State != wire.JobDone || len(results) != fixtureBlocks {
		t.Fatalf("state %s with %d results, want %s with %d", st.State, len(results), wire.JobDone, fixtureBlocks)
	}
}

// TestCorpusUploadMatchesJSONCorpus is the ingestion determinism
// contract: uploading a binary produces the same per-block explanations
// as extracting it client-side and submitting the blocks as a JSON
// corpus. Cache-warmth accounting (cache_hits/model_calls) is excluded —
// the second job on the same server runs against warm caches.
func TestCorpusUploadMatchesJSONCorpus(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	data := readFixtureELF(t)

	res, err := ingest.ExtractBytes(data, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blocks := make([]string, len(res.Blocks))
	for i, b := range res.Blocks {
		blocks[i] = b.Text
	}

	jsonResults, jsonSt := submitCorpus(t, ts.URL, wire.CorpusRequest{
		Blocks: blocks, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	})
	upResults, upSt := uploadCorpus(t, ts.URL,
		"?model=uica&arch=hsw&seed=1&coverage=150", "application/x-elf", data)
	if jsonSt.State != wire.JobDone || upSt.State != wire.JobDone {
		t.Fatalf("job states: json %s, upload %s", jsonSt.State, upSt.State)
	}
	if len(jsonResults) != len(upResults) {
		t.Fatalf("result counts differ: json %d, upload %d", len(jsonResults), len(upResults))
	}
	// Jobs report results in completion order; each carries its block
	// index for reassembly in input order.
	jsonResults, upResults = byIndex(t, jsonResults), byIndex(t, upResults)
	for i := range jsonResults {
		a, b := jsonResults[i], upResults[i]
		if a.Explanation == nil || b.Explanation == nil {
			t.Fatalf("block %d missing explanation (json %v, upload %v)", i, a.Explanation, b.Explanation)
		}
		ae, be := *a.Explanation, *b.Explanation
		ae.CacheHits, ae.ModelCalls = 0, 0
		be.CacheHits, be.ModelCalls = 0, 0
		aj, _ := json.Marshal(ae)
		bj, _ := json.Marshal(be)
		if !bytes.Equal(aj, bj) {
			t.Errorf("block %d explanations differ:\n json %s\nupload %s", i, aj, bj)
		}
	}
}

// byIndex reassembles a job's results in input order, failing unless
// every block index appears exactly once.
func byIndex(t *testing.T, results []wire.CorpusResult) []wire.CorpusResult {
	t.Helper()
	out := make([]wire.CorpusResult, len(results))
	seen := make([]bool, len(results))
	for _, r := range results {
		if r.Index < 0 || r.Index >= len(out) || seen[r.Index] {
			t.Fatalf("result index %d out of range or repeated (%d results)", r.Index, len(results))
		}
		seen[r.Index] = true
		out[r.Index] = r
	}
	return out
}

// TestUploadParametersCheckedBeforeIngest: a bad ?coverage= or ?model=,
// or a malformed ?seed=, ?workers=, ?stream= or ?threshold=, on a valid
// ELF upload is refused before the binary is ingested.
func TestUploadParametersCheckedBeforeIngest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, query := range []string{
		"?model=c&coverage=10001", "?model=nosuchmodel",
		"?model=c&seed=abc", "?model=c&workers=two", "?model=c&stream=maybe",
		"?model=c&threshold=NaN",
	} {
		resp, body := uploadBinary(t, ts.URL, query, "application/x-elf", readFixtureELF(t))
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("upload %s: status %d, want 400: %s", query, resp.StatusCode, body)
		}
	}
	if metrics := fetchMetrics(t, ts.URL); !strings.Contains(metrics, "comet_ingest_binaries_total 0") {
		t.Error("an upload refused for its parameters was ingested: comet_ingest_binaries_total is not 0")
	}
}

// TestCorpusUploadTooLarge: bodies over MaxUploadBytes are refused with
// 413 and a wire.Error, and counted as rejected.
func TestCorpusUploadTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxUploadBytes: 1024})
	resp, body := uploadBinary(t, ts.URL, "", "application/octet-stream", make([]byte, 4096))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413: %s", resp.StatusCode, body)
	}
	var werr wire.Error
	if err := json.Unmarshal(body, &werr); err != nil {
		t.Fatalf("413 body is not wire.Error JSON: %v (%s)", err, body)
	}
	if !strings.Contains(werr.Error, "max-upload-bytes") {
		t.Errorf("413 error %q does not mention -max-upload-bytes", werr.Error)
	}
	if !strings.Contains(fetchMetrics(t, ts.URL), "comet_ingest_rejected_total 1") {
		t.Error("metrics missing comet_ingest_rejected_total 1")
	}
}

// TestCorpusUploadBadELF: a binary body that is not an ELF is a 400, not
// a decode attempt.
func TestCorpusUploadBadELF(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := uploadBinary(t, ts.URL, "", "application/octet-stream",
		[]byte("this is not an ELF binary, just some text"))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
	}
	var werr wire.Error
	if err := json.Unmarshal(body, &werr); err != nil || werr.Error == "" {
		t.Fatalf("400 body is not wire.Error JSON: %s", body)
	}
}
