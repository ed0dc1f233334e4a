package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

func openTestStore(t *testing.T, dir string) *persist.Log {
	t.Helper()
	log, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// startStoreServer builds a server over an open store, registering the
// counting model and restoring before traffic, like comet-serve does.
func startStoreServer(t *testing.T, store persist.Store, model *countingModel) (*Server, *httptest.Server, RestoreSummary) {
	t.Helper()
	s := New(Config{Store: store, JobCheckpointEvery: 1})
	shutdownAtCleanup(t, s)
	s.RegisterModel("counting", x86.Haswell, model, 0)
	sum, err := s.Restore()
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts, sum
}

// TestWarmRestartServesPersistedExplanations is the warm-restart
// acceptance path: a second process with the same store directory
// answers a repeat explain request byte-identically with zero model
// work.
func TestWarmRestartServesPersistedExplanations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	req := wire.ExplainRequest{Block: testBlock, Model: "counting", Config: fastOverrides()}

	// Process 1: compute and persist.
	store1 := openTestStore(t, dir)
	model1 := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	_, ts1, _ := startStoreServer(t, store1, model1)
	resp, body1 := postJSON(t, ts1.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d: %s", resp.StatusCode, body1)
	}
	if model1.calls.Load() == 0 {
		t.Fatal("first process computed nothing")
	}
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	// Process 2: fresh server, fresh model instance, same directory.
	store2 := openTestStore(t, dir)
	t.Cleanup(func() { store2.Close() })
	model2 := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	s2, ts2, sum := startStoreServer(t, store2, model2)
	if sum.Explanations != 1 {
		t.Fatalf("restored %d explanations, want 1", sum.Explanations)
	}
	resp, body2 := postJSON(t, ts2.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain after restart: %d: %s", resp.StatusCode, body2)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("restarted server served different bytes:\n%s\n%s", body1, body2)
	}
	if calls := model2.calls.Load(); calls != 0 {
		t.Errorf("restarted server cost %d model calls, want 0", calls)
	}
	if s2.metrics.resultStoreHits.Load() == 0 {
		t.Error("restored explanation did not hit the rehydrated result store")
	}

	// The store surfaces on /metrics.
	httpResp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	_, _ = buf.ReadFrom(httpResp.Body)
	httpResp.Body.Close()
	for _, want := range []string{"comet_store_entries 1", "comet_store_puts_total"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestPersistLookupWithoutRestore: even with a cold in-memory LRU (no
// Restore), an explain request falls through to the durable store.
func TestPersistLookupWithoutRestore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	req := wire.ExplainRequest{Block: testBlock, Model: "counting", Config: fastOverrides()}

	store1 := openTestStore(t, dir)
	model1 := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	_, ts1, _ := startStoreServer(t, store1, model1)
	_, body1 := postJSON(t, ts1.URL+"/v1/explain", req)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openTestStore(t, dir)
	t.Cleanup(func() { store2.Close() })
	model2 := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	s2 := New(Config{Store: store2}) // no Restore: LRU is cold
	shutdownAtCleanup(t, s2)
	s2.RegisterModel("counting", x86.Haswell, model2, 0)
	ts2 := httptest.NewServer(s2.Handler())
	t.Cleanup(ts2.Close)

	_, body2 := postJSON(t, ts2.URL+"/v1/explain", req)
	if !bytes.Equal(body1, body2) {
		t.Errorf("durable-store fallback served different bytes:\n%s\n%s", body1, body2)
	}
	if calls := model2.calls.Load(); calls != 0 {
		t.Errorf("fallback cost %d model calls, want 0", calls)
	}
	if s2.metrics.persistHits.Load() != 1 {
		t.Errorf("persist hits = %d, want 1", s2.metrics.persistHits.Load())
	}
}

// TestRestoreSummaryCountsHeldExplanations: Restore reports the
// explanations the result store holds after the scan, not every record
// it scanned — a store of 3 explanations into a 2-key result store
// restores 2.
func TestRestoreSummaryCountsHeldExplanations(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	seed := openTestStore(t, dir)
	for i := 0; i < 3; i++ {
		err := persist.PutExplanation(seed, wire.InternBytes([]byte{byte(i)}), "uica@hsw", wire.ConfigSnapshot{},
			&wire.Explanation{Block: testBlock, Model: "uica", Prediction: float64(i)})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	t.Cleanup(func() { store.Close() })
	s := New(Config{Store: store, ResultStoreSize: 2, HistoryInterval: -1})
	shutdownAtCleanup(t, s)
	sum, err := s.Restore()
	if err != nil {
		t.Fatal(err)
	}
	if sum.Explanations != 2 {
		t.Errorf("restored %d explanations into a 2-key result store, want 2", sum.Explanations)
	}
}

// TestRestoredJobResumesWhereItStopped: a job persisted mid-run (its
// envelope plus block 0's explanation record) is re-enqueued on restore under
// its original ID; the restored result is served verbatim — never
// recomputed — and the remaining blocks are explained with their
// original per-block seeds, exactly as an uninterrupted run would have.
func TestRestoredJobResumesWhereItStopped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	const jobID = "job-cafe0001-1"
	srcs := []string{
		testBlock,
		"imul rax, rbx\nimul rax, rcx",
		"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
	}
	texts := make([]string, len(srcs))
	for i, src := range srcs {
		texts[i] = x86.MustParseBlock(src).String()
	}
	// The snapshot a counting-model job with fastOverrides would persist.
	snap := wire.ConfigSnapshot{
		Epsilon:            0.5,
		PrecisionThreshold: 0.7,
		CoverageSamples:    150,
		Seed:               1,
	}
	// Block 0's persisted explanation carries a marker prediction no
	// computation would produce: if it survives to the final results,
	// the restored record was served, not recomputed.
	marker := &wire.Explanation{Block: texts[0], Model: "counting", Prediction: 42}

	seed := openTestStore(t, dir)
	mustPut := func(rec *wire.Record) {
		t.Helper()
		if err := seed.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	mustPut(&wire.Record{V: wire.RecordVersion, Kind: wire.RecordJob, Key: jobID, Spec: "counting@hsw",
		Job: &wire.JobEnvelope{ID: jobID, State: wire.JobRunning, Spec: "counting@hsw", Blocks: texts, Config: snap, Workers: 1}})
	id0, snap0 := persist.BlockExplanationID("counting@hsw", snap, 0, texts[0])
	if err := persist.PutExplanation(seed, id0, "counting@hsw", snap0, marker); err != nil {
		t.Fatal(err)
	}
	if err := seed.Close(); err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	t.Cleanup(func() { store.Close() })
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	_, ts, sum := startStoreServer(t, store, model)
	if sum.JobsResumed != 1 {
		t.Fatalf("restore summary %+v, want exactly 1 resumed job", sum)
	}

	// The resumed job is pollable under its original, pre-restart ID and
	// discoverable in the jobs listing.
	var st wire.JobStatus
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("resumed job never finished: %+v", st)
		}
		r := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, jobID), &st)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("polling resumed job: status %d", r.StatusCode)
		}
		if st.State == wire.JobDone || st.State == wire.JobFailed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != wire.JobDone || st.Done != 3 || st.Failed != 0 || len(st.Results) != 3 {
		t.Fatalf("resumed job did not complete cleanly: %+v", st)
	}

	// Result 0 is the restored record, byte-for-byte.
	if st.Results[0].Index != 0 || st.Results[0].Explanation == nil || st.Results[0].Explanation.Prediction != 42 {
		t.Errorf("restored result was recomputed or reordered: %+v", st.Results[0])
	}

	// Blocks 1 and 2 were computed with their original per-block seeds:
	// identical to a direct library run at BlockSeed(1, i).
	byIndex := make(map[int]wire.CorpusResult)
	for _, r := range st.Results {
		byIndex[r.Index] = r
	}
	for _, i := range []int{1, 2} {
		res, ok := byIndex[i]
		if !ok || res.Explanation == nil {
			t.Fatalf("block %d missing from resumed results", i)
		}
		cfg := core.DefaultConfig()
		cfg.CoverageSamples = 150
		cfg.Seed = core.BlockSeed(1, i)
		ref, err := core.NewExplainer(uica.New(x86.Haswell), cfg).Explain(x86.MustParseBlock(srcs[i]))
		if err != nil {
			t.Fatal(err)
		}
		want := wire.FromExplanation(ref)
		if res.Explanation.Prediction != want.Prediction ||
			fmt.Sprint(res.Explanation.Features) != fmt.Sprint(want.Features) {
			t.Errorf("block %d: resumed explanation differs from the uninterrupted reference:\n got %+v\nwant %+v",
				i, res.Explanation, want)
		}
	}

	var list wire.JobsResponse
	if r := getJSON(t, ts.URL+"/v1/jobs", &list); r.StatusCode != http.StatusOK {
		t.Fatalf("jobs list: status %d", r.StatusCode)
	}
	found := false
	for _, j := range list.Jobs {
		if j.ID == jobID {
			found = true
			if !j.Restored || j.State != wire.JobDone || j.Done != 3 {
				t.Errorf("listed resumed job wrong: %+v", j)
			}
		}
	}
	if !found {
		t.Errorf("resumed job %s not in GET /v1/jobs: %+v", jobID, list.Jobs)
	}
}

// TestBatchSizeKeyedStoreRestores: a store written by builds that
// carried batch_size in every config snapshot and hashed batch= into
// explanation keys restores cleanly. Its records decode (none is
// corrupt), its running job resumes, and the job finishes with the
// bytes of a fresh run: the old explanation record, keyed under the old
// identity and holding a marker no computation produces, is never
// served under the current key.
func TestBatchSizeKeyedStoreRestores(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	const jobID = "job-ba7c0001-1"
	texts := []string{
		x86.MustParseBlock(testBlock).String(),
		x86.MustParseBlock("imul rax, rbx\nimul rax, rcx").String(),
	}
	config := func(seed int64) string {
		return fmt.Sprintf(`{"epsilon":0.5,"precision_threshold":0.7,"coverage_samples":150,"batch_size":64,"seed":%d}`, seed)
	}
	quote := func(v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	seed0 := core.BlockSeed(1, 0)
	oldKey := sha256.Sum256([]byte(fmt.Sprintf("comet-explanation-v1|counting@hsw|eps=0.5|thr=0.7|cov=150|batch=64|seed=%d|%s", seed0, texts[0])))
	var segment []byte
	for _, payload := range []string{
		`{"v":1,"kind":"explanation","key":"` + hex.EncodeToString(oldKey[:]) + `","spec":"counting@hsw","config":` + config(seed0) +
			`,"explanation":{"block":` + quote(texts[0]) + `,"model":"counting","prediction":42,"features":[],"precision":1,"coverage":1,"certified":true,"queries":1}}`,
		`{"v":1,"kind":"job","key":"` + jobID + `","spec":"counting@hsw","job":{"id":"` + jobID + `","state":"running","spec":"counting@hsw","blocks":` +
			quote(texts) + `,"config":` + config(1) + `,"workers":1}}`,
	} {
		var err error
		if segment, err = wire.AppendFrame(segment, []byte(payload)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), segment, 0o644); err != nil {
		t.Fatal(err)
	}

	store := openTestStore(t, dir)
	t.Cleanup(func() { store.Close() })
	if st := store.Stats(); st.CorruptRecords != 0 || st.Entries != 2 {
		t.Fatalf("old records: %+v, want 2 entries and none corrupt", st)
	}
	_, ts, sum := startStoreServer(t, store, &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))})
	if sum.JobsResumed != 1 {
		t.Fatalf("restore summary %+v, want exactly 1 resumed job", sum)
	}
	resumed, st := pollJob(t, ts.URL, jobID)
	if st.State != wire.JobDone || st.Done != 2 || st.Failed != 0 {
		t.Fatalf("resumed job did not complete cleanly: %+v", st)
	}

	freshStore := openTestStore(t, filepath.Join(t.TempDir(), "fresh"))
	t.Cleanup(func() { freshStore.Close() })
	_, freshTS, _ := startStoreServer(t, freshStore, &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))})
	fresh, _ := submitCorpus(t, freshTS.URL, wire.CorpusRequest{
		Blocks: texts, Model: "counting", Config: fastOverrides(), Workers: 1,
	})
	byIndex := func(rs []wire.CorpusResult) string {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Index < rs[j].Index })
		return quote(rs)
	}
	if got, want := byIndex(resumed), byIndex(fresh); got != want {
		t.Errorf("resumed job differs from a fresh run:\n got %s\nwant %s", got, want)
	}
}

// TestPreviousCertificateRecordsRecomputed: builds that certified
// anchors at the Anchors default level hashed no certification rule into
// explanation keys. A store they wrote restores, but its record, holding
// a marker no computation produces, is never served: /v1/explain
// recomputes the explanation and answers with the bytes of a server
// without a store.
func TestPreviousCertificateRecordsRecomputed(t *testing.T) {
	req := wire.ExplainRequest{Block: testBlock, Model: "counting", Config: fastOverrides()}
	text := x86.MustParseBlock(testBlock).String()
	oldKey := sha256.Sum256([]byte(fmt.Sprintf("comet-explanation-v%d|counting@hsw|eps=0.5|thr=0.7|cov=150|seed=1|%s", wire.RecordVersion, text)))
	store := openTestStore(t, filepath.Join(t.TempDir(), "store"))
	t.Cleanup(func() { store.Close() })
	snap := wire.ConfigSnapshot{Epsilon: 0.5, PrecisionThreshold: 0.7, CoverageSamples: 150, Seed: 1}
	marker := &wire.Explanation{Block: text, Model: "counting", Prediction: 42, Precision: 1, Coverage: 1, Certified: true, Queries: 1}
	if err := persist.PutExplanation(store, wire.ContentID(oldKey), "counting@hsw", snap, marker); err != nil {
		t.Fatal(err)
	}
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	_, ts, sum := startStoreServer(t, store, model)
	if sum.Explanations != 1 {
		t.Fatalf("restored %d explanations, want the old record", sum.Explanations)
	}
	resp, got := postJSON(t, ts.URL+"/v1/explain", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d: %s", resp.StatusCode, got)
	}
	if model.calls.Load() == 0 {
		t.Error("the old record was served without a model query")
	}

	fresh, freshTS := newTestServer(t, Config{})
	fresh.RegisterModel("counting", x86.Haswell, &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}, 0)
	_, want := postJSON(t, freshTS.URL+"/v1/explain", req)
	if !bytes.Equal(got, want) {
		t.Errorf("explanation differs from a server without a store:\n got %s\nwant %s", got, want)
	}
}

// TestJobBlocksAreContentAddressedExplanations: a store-backed job
// persists each explained block as the explanation record its
// per-block identity names, so /v1/explain at that block's seed is
// answered from the durable store without touching the model.
func TestJobBlocksAreContentAddressedExplanations(t *testing.T) {
	store := openTestStore(t, filepath.Join(t.TempDir(), "store"))
	t.Cleanup(func() { store.Close() })
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	_, ts, _ := startStoreServer(t, store, model)
	srcs := []string{testBlock, "imul rax, rbx\nimul rax, rcx", "add rax, rbx\nsub rcx, rdx\nxor rsi, rsi"}
	results, st := submitCorpus(t, ts.URL, wire.CorpusRequest{Blocks: srcs, Model: "counting", Config: fastOverrides()})
	if st.State != wire.JobDone || len(results) != len(srcs) {
		t.Fatalf("job did not finish cleanly: %+v", st)
	}
	rec, ok := store.Get(wire.RecordJob, st.ID)
	if !ok || rec.Job == nil {
		t.Fatalf("job %s has no envelope", st.ID)
	}
	for _, res := range results {
		id, _ := persist.BlockExplanationID(rec.Job.Spec, rec.Job.Config, res.Index, rec.Job.Blocks[res.Index])
		stored, ok := persist.LookupExplanation(store, id)
		if !ok {
			t.Fatalf("block %d has no explanation record under %s", res.Index, id.Hex())
		}
		got, _ := json.Marshal(stored)
		want, _ := json.Marshal(res.Explanation)
		if !bytes.Equal(got, want) {
			t.Errorf("block %d: stored record differs from the job result:\n got %s\nwant %s", res.Index, got, want)
		}
	}

	var block1 wire.CorpusResult
	for _, res := range results {
		if res.Index == 1 {
			block1 = res
		}
	}
	before := model.calls.Load()
	req := wire.ExplainRequest{Block: srcs[1], Model: "counting",
		Config: &wire.ConfigOverrides{CoverageSamples: 150, Seed: core.BlockSeed(1, 1)}}
	resp, body := postJSON(t, ts.URL+"/v1/explain?profile=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: %d: %s", resp.StatusCode, body)
	}
	var served wire.Explanation
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}
	if served.Profile == nil || served.Profile.Source != "persist" {
		t.Errorf("block 1 at its corpus seed was not served from the durable store: profile %+v", served.Profile)
	}
	if calls := model.calls.Load() - before; calls != 0 {
		t.Errorf("explaining a stored job block cost %d model calls, want 0", calls)
	}
	served.Profile = nil
	got, _ := json.Marshal(&served)
	want, _ := json.Marshal(block1.Explanation)
	if !bytes.Equal(got, want) {
		t.Errorf("served explanation differs from the job's block 1:\n got %s\nwant %s", got, want)
	}
}

// abortingModel is a counting model that aborts every query batch
// holding a block of at least poison instructions. Γ only deletes
// instructions, so only blocks that long to begin with fail.
type abortingModel struct {
	countingModel
	poison int
}

func (m *abortingModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	for _, b := range blocks {
		if b.Len() >= m.poison {
			costmodel.AbortQuery(fmt.Errorf("refusing a %d-instruction block", b.Len()))
		}
	}
	return m.countingModel.PredictBatch(blocks)
}

// TestRestoredJobKeepsFailedBlocks: a job that ends failed keeps its
// failed block's result in its envelope, so a restarted server parks it
// in history as failed, with that result byte-identical, at zero model
// cost.
func TestRestoredJobKeepsFailedBlocks(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	srcs := []string{testBlock, "add rax, rbx\nsub rcx, rdx\nxor rsi, rsi\nimul rax, rcx\nor rdi, rax", "imul rax, rbx\nimul rax, rcx"}
	start := func(store persist.Store) (*abortingModel, *httptest.Server, RestoreSummary) {
		model := &abortingModel{countingModel: countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}, poison: 5}
		s := New(Config{Store: store, JobCheckpointEvery: 1})
		shutdownAtCleanup(t, s)
		s.RegisterModel("counting", x86.Haswell, model, 0)
		sum, err := s.Restore()
		if err != nil {
			t.Fatalf("Restore: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return model, ts, sum
	}
	failedResult := func(results []wire.CorpusResult) []byte {
		t.Helper()
		for _, res := range results {
			if res.Index == 1 {
				if res.Error == "" {
					t.Fatalf("block 1 did not fail: %+v", res)
				}
				b, _ := json.Marshal(res)
				return b
			}
		}
		t.Fatal("block 1 missing from the results")
		return nil
	}

	store1 := openTestStore(t, dir)
	_, ts1, _ := start(store1)
	results1, st1 := submitCorpus(t, ts1.URL, wire.CorpusRequest{Blocks: srcs, Model: "counting", Config: fastOverrides()})
	if st1.State != wire.JobFailed || st1.Done != 3 || st1.Failed != 1 {
		t.Fatalf("job with an aborted block: %+v", st1)
	}
	want := failedResult(results1)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openTestStore(t, dir)
	t.Cleanup(func() { store2.Close() })
	model2, ts2, sum := start(store2)
	if sum.JobsRestored != 1 || sum.JobsResumed != 0 || sum.JobsFailed != 0 {
		t.Fatalf("restore summary %+v, want 1 restored (terminal) job", sum)
	}
	results2, st2 := pollJob(t, ts2.URL, st1.ID)
	if st2.State != wire.JobFailed || st2.Done != 3 || st2.Failed != 1 || st2.Error != st1.Error {
		t.Errorf("restored job %+v, want it failed like %+v", st2, st1)
	}
	if got := failedResult(results2); !bytes.Equal(got, want) {
		t.Errorf("restored failed result differs:\n got %s\nwant %s", got, want)
	}
	if calls := model2.calls.Load(); calls != 0 {
		t.Errorf("restoring the failed job cost %d model calls, want 0", calls)
	}
}

// TestRestoredStreamJobStaysStreamOnly: a finished stream-only job comes
// back from the store as a stream-only job — its status pages no
// results, before the restart and after it.
func TestRestoredStreamJobStaysStreamOnly(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	paged := func(base, id string) wire.JobStatus {
		t.Helper()
		var st wire.JobStatus
		if r := getJSON(t, base+"/v1/jobs/"+id, &st); r.StatusCode != http.StatusOK {
			t.Fatalf("job status: %d", r.StatusCode)
		}
		if st.State != wire.JobDone || st.Done != 2 || len(st.Results) != 0 {
			t.Fatalf("stream job %s: state %s, %d done, %d paged results; want done, 2, 0",
				id, st.State, st.Done, len(st.Results))
		}
		return st
	}

	store1 := openTestStore(t, dir)
	_, ts1, _ := startStoreServer(t, store1, &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))})
	id := streamJob(t, ts1.URL, []string{testBlock, "add rax, rbx"})
	waitJobDone(t, ts1.URL, id)
	paged(ts1.URL, id)
	if err := store1.Close(); err != nil {
		t.Fatal(err)
	}

	store2 := openTestStore(t, dir)
	t.Cleanup(func() { store2.Close() })
	_, ts2, sum := startStoreServer(t, store2, &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))})
	if sum.JobsRestored != 1 {
		t.Fatalf("restore summary %+v, want 1 restored job", sum)
	}
	paged(ts2.URL, id)
}

// TestUnresumableJobFailsOnceAndStaysFailed: a persisted job whose model
// can no longer resolve, or whose blocks no longer parse, is marked
// failed — durably, so the next restart does not re-pay the resume
// attempt, rewrite the envelope, or flip the job back to queued.
func TestUnresumableJobFailsOnceAndStaysFailed(t *testing.T) {
	for _, tc := range []struct {
		name, spec string
		texts      []string
	}{
		{"unknown spec", "ghost@hsw", []string{x86.MustParseBlock(testBlock).String()}},
		{"unparseable block", "uica@hsw", []string{"frobnicate rax"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "store")
			const jobID = "job-dead0001-1"

			seed := openTestStore(t, dir)
			err := seed.Put(&wire.Record{V: wire.RecordVersion, Kind: wire.RecordJob, Key: jobID, Spec: tc.spec,
				Job: &wire.JobEnvelope{ID: jobID, State: wire.JobRunning, Spec: tc.spec, Blocks: tc.texts,
					Config: wire.ConfigSnapshot{Epsilon: 0.5, PrecisionThreshold: 0.7, CoverageSamples: 150, Seed: 1}}})
			if err != nil {
				t.Fatal(err)
			}
			if err := seed.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart 1: the resume fails; the failure is persisted.
			store1 := openTestStore(t, dir)
			s1 := New(Config{Store: store1})
			shutdownAtCleanup(t, s1)
			sum, err := s1.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if sum.JobsFailed != 1 || sum.JobsResumed != 0 {
				t.Fatalf("restart 1 summary %+v, want 1 failed", sum)
			}
			j, ok := s1.jobs.get(jobID)
			if !ok || j.summary().State != wire.JobFailed {
				t.Fatalf("job not parked as failed: %v %+v", ok, j)
			}
			if err := store1.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart 2: the persisted failed envelope is honored — no
			// second resume attempt, no write, same terminal state.
			store2 := openTestStore(t, dir)
			t.Cleanup(func() { store2.Close() })
			s2 := New(Config{Store: store2})
			shutdownAtCleanup(t, s2)
			puts := store2.Stats().Puts
			sum2, err := s2.Restore()
			if err != nil {
				t.Fatal(err)
			}
			if sum2.JobsFailed != 0 || sum2.JobsResumed != 0 || sum2.JobsRestored != 1 {
				t.Fatalf("restart 2 summary %+v, want 1 restored (terminal) and nothing re-attempted", sum2)
			}
			if got := store2.Stats().Puts; got != puts {
				t.Errorf("restart 2 wrote %d records, want none", got-puts)
			}
			j2, ok := s2.jobs.get(jobID)
			if !ok || j2.summary().State != wire.JobFailed {
				t.Fatalf("failed job did not stay failed across restarts: %v %+v", ok, j2)
			}
		})
	}
}

// TestJobsListEndpoint: GET /v1/jobs enumerates submitted jobs with
// their states.
func TestJobsListEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.CorpusRequest{Blocks: []string{testBlock}, Model: "uica", Config: fastOverrides()}
	_, st1 := submitCorpus(t, ts.URL, req)
	_, st2 := submitCorpus(t, ts.URL, req)

	var list wire.JobsResponse
	if r := getJSON(t, ts.URL+"/v1/jobs", &list); r.StatusCode != http.StatusOK {
		t.Fatalf("jobs list: status %d", r.StatusCode)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("listed %d jobs, want 2: %+v", len(list.Jobs), list.Jobs)
	}
	for i := 1; i < len(list.Jobs); i++ {
		if list.Jobs[i-1].ID >= list.Jobs[i].ID {
			t.Errorf("jobs not sorted by ID: %+v", list.Jobs)
		}
	}
	seen := map[string]bool{}
	for _, j := range list.Jobs {
		seen[j.ID] = true
		if j.State != wire.JobDone || j.Total != 1 || j.Done != 1 || j.Restored {
			t.Errorf("job summary wrong: %+v", j)
		}
	}
	if !seen[st1.ID] || !seen[st2.ID] {
		t.Errorf("listing %v missing submitted jobs %s / %s", list.Jobs, st1.ID, st2.ID)
	}
}
