package service

import (
	"encoding/json"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// repeatBlock is a block of n instructions.
func repeatBlock(n int) string {
	return strings.TrimSuffix(strings.Repeat("add rax, 1\n", n), "\n")
}

// wantStatus fails unless resp has the given status.
func wantStatus(t *testing.T, route string, resp *http.Response, body []byte, code int) {
	t.Helper()
	if resp.StatusCode != code {
		t.Errorf("%s: status %d, want %d: %s", route, resp.StatusCode, code, body)
	}
}

// TestBlockLengthLimit: every route that carries block text answers 413
// to a block over maxBlockLen instructions and accepts one at the limit.
func TestBlockLengthLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetReady()
	long := repeatBlock(maxBlockLen + 1)
	snap := shardConfigFor(t, s, fastOverrides())
	for route, body := range map[string]any{
		"/v1/explain": wire.ExplainRequest{Block: long, Model: "c"},
		"/v1/predict": wire.PredictRequest{Blocks: []string{testBlock, long}, Model: "c"},
		"/v1/corpus":  wire.CorpusRequest{Blocks: []string{testBlock, long}, Model: "c"},
		"/v1/shard": wire.ShardRequest{JobID: "job-x", Lease: "job-x/l0", Spec: "c@hsw", Config: snap,
			Blocks: []wire.ShardBlock{{Index: 0, Block: long}}},
	} {
		resp, raw := postJSON(t, ts.URL+route, body)
		wantStatus(t, route, resp, raw, http.StatusRequestEntityTooLarge)
	}
	resp, raw := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{
		Blocks: []string{repeatBlock(maxBlockLen)}, Model: "c",
	})
	wantStatus(t, "/v1/predict at the limit", resp, raw, http.StatusOK)

	// A block filling half the body cap is refused before it is parsed:
	// parsing its ~380k instructions would allocate about 200 MiB.
	huge := repeatBlock((4 << 20) / len("add rax, 1\n"))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, raw = postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Blocks: []string{huge}, Model: "c"})
	runtime.ReadMemStats(&after)
	wantStatus(t, "/v1/predict, 4 MiB block", resp, raw, http.StatusRequestEntityTooLarge)
	if mib := (after.TotalAlloc - before.TotalAlloc) >> 20; mib > 64 {
		t.Errorf("refusing a 4 MiB block allocated %d MiB", mib)
	}
}

// TestCoverageSamplesLimit: a client config asking for a coverage pool
// over maxCoverageSamples gets 400 wherever it is compiled — explain and
// corpus JSON, an upload's ?coverage=, a shard's config snapshot — and
// one at the limit is served.
func TestCoverageSamplesLimit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetReady()
	over := &wire.ConfigOverrides{CoverageSamples: maxCoverageSamples + 1}
	snap := shardConfigFor(t, s, fastOverrides())
	snap.CoverageSamples = maxCoverageSamples + 1
	for route, body := range map[string]any{
		"/v1/explain": wire.ExplainRequest{Block: testBlock, Model: "c", Config: over},
		"/v1/corpus":  wire.CorpusRequest{Blocks: []string{testBlock}, Model: "c", Config: over},
		"/v1/shard": wire.ShardRequest{JobID: "job-x", Lease: "job-x/l0", Spec: "c@hsw", Config: snap,
			Blocks: []wire.ShardBlock{{Index: 0, Block: testBlock}}},
	} {
		resp, raw := postJSON(t, ts.URL+route, body)
		wantStatus(t, route, resp, raw, http.StatusBadRequest)
	}
	resp, raw := uploadBinary(t, ts.URL, "?model=c&coverage=10001", "application/octet-stream", readFixtureELF(t))
	wantStatus(t, "upload", resp, raw, http.StatusBadRequest)

	resp, raw = postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "c", Config: &wire.ConfigOverrides{CoverageSamples: maxCoverageSamples},
	})
	wantStatus(t, "/v1/explain at the limit", resp, raw, http.StatusOK)
}

// TestParallelismOverrideRejected: the config object has no parallelism
// field, and decoding is strict.
func TestParallelismOverrideRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", strings.NewReader(
		`{"block":"add rax, rbx","model":"c","config":{"parallelism":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status %d, want 400", resp.StatusCode)
	}
}

// peakModel records the most PredictBatch calls in flight at once. One
// explanation issues its batches one at a time, so the peak counts the
// explanations running concurrently.
type peakModel struct {
	costmodel.BatchModel
	inFlight, peak atomic.Int64
}

func (m *peakModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	n := m.inFlight.Add(1)
	defer m.inFlight.Add(-1)
	for p := m.peak.Load(); n > p && !m.peak.CompareAndSwap(p, n); p = m.peak.Load() {
	}
	time.Sleep(time.Millisecond) // long enough for unclamped workers to overlap
	return m.BatchModel.PredictBatch(blocks)
}

// TestWorkersClampedToExplainSlots: corpus, upload and shard workers
// above MaxConcurrentExplains, or left unset, run at that bound.
func TestWorkersClampedToExplainSlots(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentExplains: 1})
	s.SetReady()

	for _, workers := range []int{10000, 0} {
		resp, raw := postJSON(t, ts.URL+"/v1/corpus", wire.CorpusRequest{
			Blocks: clusterTestBlocks, Model: "c", Config: fastOverrides(), Workers: workers,
		})
		wantStatus(t, "/v1/corpus", resp, raw, http.StatusAccepted)
		checkJobWorkers(t, s, raw)
	}
	for _, query := range []string{"&workers=10000", ""} {
		resp, raw := uploadBinary(t, ts.URL, "?model=c&coverage=150"+query, "application/octet-stream", readFixtureELF(t))
		wantStatus(t, "upload", resp, raw, http.StatusAccepted)
		checkJobWorkers(t, s, raw)
	}

	model := &peakModel{BatchModel: costmodel.AsBatch(uica.New(x86.Haswell))}
	s.RegisterModel("peak", x86.Haswell, model, 0)
	for _, workers := range []int{4, 0} {
		sreq := wire.ShardRequest{JobID: "job-x", Lease: "job-x/l0", Spec: "peak@hsw",
			Config: shardConfigFor(t, s, fastOverrides()), Workers: workers}
		for i, b := range clusterTestBlocks {
			sreq.Blocks = append(sreq.Blocks, wire.ShardBlock{Index: i, Block: b})
		}
		resp, raw := postJSON(t, ts.URL+"/v1/shard", sreq)
		wantStatus(t, "/v1/shard", resp, raw, http.StatusOK)
		if p := model.peak.Load(); p != 1 {
			t.Errorf("shard with workers=%d ran %d explanations at once, want 1", workers, p)
		}
	}
}

// checkJobWorkers checks that the accepted job's worker count was
// clamped to the server's single explain slot.
func checkJobWorkers(t *testing.T, s *Server, accepted []byte) {
	t.Helper()
	var acc wire.JobAccepted
	if err := json.Unmarshal(accepted, &acc); err != nil {
		t.Fatal(err)
	}
	j, ok := s.jobs.get(acc.ID)
	if !ok {
		t.Fatalf("job %s not found", acc.ID)
	}
	if j.workers != 1 {
		t.Errorf("job %s runs %d workers, want 1", acc.ID, j.workers)
	}
}
