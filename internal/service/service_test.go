package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

const testBlock = "add rcx, rax\nmov rdx, rcx\npop rbx"

// fastOverrides keeps test explanations quick.
func fastOverrides() *wire.ConfigOverrides {
	return &wire.ConfigOverrides{CoverageSamples: 150, Seed: 1}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	shutdownAtCleanup(t, s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close) // runs first: cleanups run last-registered first
	return s, ts
}

// shutdownAtCleanup shuts s down when the test ends, so its job workers
// and history sampler do not outlive the test.
func shutdownAtCleanup(t *testing.T, s *Server) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp
}

// TestExplainMatchesLibraryAndRoundTrips is the core serving acceptance
// criterion: the served JSON round-trips byte-stably and its content is
// bit-identical to a library Explain call at the same seed.
func TestExplainMatchesLibraryAndRoundTrips(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var served wire.Explanation
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatal(err)
	}

	// Byte stability: unmarshal → marshal reproduces the served bytes.
	remarshaled, err := json.Marshal(&served)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimRight(body, "\n"), remarshaled) {
		t.Errorf("served JSON not byte-stable:\n served %s\nremarsh %s", body, remarshaled)
	}

	// Bit-identical content to the library at the same seed and config.
	cfg := core.DefaultConfig()
	cfg.CoverageSamples = 150
	cfg.Seed = 1
	lib, err := core.NewExplainer(uica.New(x86.Haswell), cfg).Explain(x86.MustParseBlock(testBlock))
	if err != nil {
		t.Fatal(err)
	}
	want := wire.FromExplanation(lib)
	if served.Prediction != want.Prediction || served.Precision != want.Precision ||
		served.Coverage != want.Coverage || served.Certified != want.Certified ||
		served.Block != want.Block || served.Model != want.Model {
		t.Errorf("served explanation differs from library:\n got %+v\nwant %+v", served, want)
	}
	gotSet, err := served.Features.Lib()
	if err != nil {
		t.Fatal(err)
	}
	if gotSet.Key() != lib.Features.Key() {
		t.Errorf("feature sets differ: %s vs %s", gotSet.Key(), lib.Features.Key())
	}
}

// countingModel counts every block evaluation, for single-flight
// verification by model-call accounting. A non-zero firstDelay stalls
// the first evaluation, holding a computation open while identical
// requests arrive.
type countingModel struct {
	inner      costmodel.BatchModel
	calls      atomic.Int64
	firstDelay time.Duration
	once       sync.Once
}

func (m *countingModel) Name() string   { return "counting" }
func (m *countingModel) Arch() x86.Arch { return m.inner.Arch() }
func (m *countingModel) Predict(b *x86.BasicBlock) float64 {
	m.count(1)
	return m.inner.Predict(b)
}
func (m *countingModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	m.count(len(blocks))
	return m.inner.PredictBatch(blocks)
}
func (m *countingModel) count(n int) {
	m.calls.Add(int64(n))
	m.once.Do(func() { time.Sleep(m.firstDelay) })
}

// TestSingleFlightCoalescesIdenticalRequests: N identical concurrent
// requests cost exactly one explanation computation.
func TestSingleFlightCoalescesIdenticalRequests(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell)), firstDelay: 200 * time.Millisecond}
	s.RegisterModel("counting", x86.Haswell, model, 0)

	const n = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	traces := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// ?trace=1 records every request's root span, which names
			// the tier that served it.
			resp, body := postJSON(t, ts.URL+"/v1/explain?trace=1", wire.ExplainRequest{
				Block: testBlock, Model: "counting", Config: fastOverrides(),
			})
			codes[i], bodies[i] = resp.StatusCode, body
			traces[i] = resp.Header.Get("X-Comet-Trace-Id")
		}(i)
	}
	wg.Wait()

	var first wire.Explanation
	if err := json.Unmarshal(bodies[0], &first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d: response differs from request 0:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := s.metrics.explanations.Load(); got != 1 {
		t.Errorf("computed %d explanations for %d identical requests, want exactly 1", got, n)
	}
	// Model-call accounting: the model saw exactly one explanation's
	// worth of evaluations.
	if got := model.calls.Load(); got != int64(first.ModelCalls) {
		t.Errorf("model evaluated %d blocks, want the single explanation's %d", got, first.ModelCalls)
	}
	// One request computed. The stalled first model call kept its flight
	// open while the others arrived, so they coalesced onto it; any
	// straggler that arrived after it finished hit the result store.
	sources := map[string]int{}
	for _, id := range traces {
		sources[spanAttr(t, s, id, "http.explain", "source")]++
	}
	if sources["computed"] != 1 || sources["coalesced"] == 0 ||
		sources["coalesced"]+sources["result-store"] != n-1 {
		t.Errorf("serving tiers %v, want 1 computed and %d coalesced or result-store, at least one coalesced", sources, n-1)
	}
	if got := s.metrics.coalesced.Load(); got != uint64(sources["coalesced"]) {
		t.Errorf("coalesced counter = %d, want %d", got, sources["coalesced"])
	}
}

// spanAttr waits for the named span of a trace to reach the ring (a
// root span ends after its response is written) and returns one of its
// attributes.
func spanAttr(t *testing.T, s *Server, traceID, span, attr string) string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		for _, rec := range s.tracer.Ring().Trace(traceID) {
			if rec.Name == span {
				return rec.Attrs[attr]
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %q has no %s span", traceID, span)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResultStoreServesRepeatQueries: a repeat query is served from the
// LRU store with zero model work.
func TestResultStoreServesRepeatQueries(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	s.RegisterModel("counting", x86.Haswell, model, 0)

	req := wire.ExplainRequest{Block: testBlock, Model: "counting", Config: fastOverrides()}
	_, body1 := postJSON(t, ts.URL+"/v1/explain", req)
	after := model.calls.Load()
	_, body2 := postJSON(t, ts.URL+"/v1/explain", req)
	if model.calls.Load() != after {
		t.Errorf("repeat query cost %d extra model calls, want 0", model.calls.Load()-after)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("repeat query served different bytes:\n%s\n%s", body1, body2)
	}
	if s.metrics.resultStoreHits.Load() == 0 {
		t.Error("result store recorded no hit")
	}
}

// submitCorpus submits a job and polls it to a terminal state, collecting
// results through offset/limit pagination.
func submitCorpus(t *testing.T, base string, req wire.CorpusRequest) ([]wire.CorpusResult, wire.JobStatus) {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/corpus", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus submit: status %d: %s", resp.StatusCode, body)
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	return pollJob(t, base, acc.ID)
}

// pollJob polls a job to a terminal state, collecting results through
// offset/limit pagination.
func pollJob(t *testing.T, base, id string) ([]wire.CorpusResult, wire.JobStatus) {
	t.Helper()
	acc := wire.JobAccepted{ID: id}
	var collected []wire.CorpusResult
	offset := 0
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s did not finish in time", acc.ID)
		}
		var st wire.JobStatus
		r := getJSON(t, fmt.Sprintf("%s/v1/jobs/%s?offset=%d&limit=2", base, acc.ID, offset), &st)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job poll: status %d", r.StatusCode)
		}
		collected = append(collected, st.Results...)
		offset = st.NextOffset
		terminal := st.State == wire.JobDone || st.State == wire.JobFailed || st.State == wire.JobCanceled
		if terminal && offset >= st.Done {
			return collected, st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCorpusJobReproducibleAtAnyWorkerCount: identical corpora explained
// with different worker counts yield identical explanations per block, and
// results survive polling.
func TestCorpusJobReproducibleAtAnyWorkerCount(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	srcs := []string{
		testBlock,
		"imul rax, rbx\nimul rax, rcx",
		"mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]",
		"vaddss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
		"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
	}
	byIndex := func(results []wire.CorpusResult) map[int]wire.CorpusResult {
		m := make(map[int]wire.CorpusResult, len(results))
		for _, r := range results {
			m[r.Index] = r
		}
		return m
	}

	req := wire.CorpusRequest{Blocks: srcs, Model: "uica", Config: fastOverrides(), Workers: 1}
	seq, st := submitCorpus(t, ts.URL, req)
	if st.State != wire.JobDone || st.Done != len(srcs) || st.Failed != 0 {
		t.Fatalf("workers=1 job: %+v", st)
	}
	req.Workers = 4
	par, st4 := submitCorpus(t, ts.URL, req)
	if st4.State != wire.JobDone || st4.Done != len(srcs) {
		t.Fatalf("workers=4 job: %+v", st4)
	}

	seqBy, parBy := byIndex(seq), byIndex(par)
	if len(seqBy) != len(srcs) || len(parBy) != len(srcs) {
		t.Fatalf("pagination lost results: %d and %d of %d", len(seqBy), len(parBy), len(srcs))
	}
	for i := range srcs {
		a, b := seqBy[i], parBy[i]
		if a.Explanation == nil || b.Explanation == nil {
			t.Fatalf("block %d: missing explanation (%v / %v)", i, a.Error, b.Error)
		}
		// The explanation content must be bit-identical; the cache
		// accounting legitimately differs (the second job hits the shared
		// prediction cache warmed by the first).
		ea, eb := *a.Explanation, *b.Explanation
		ea.CacheHits, eb.CacheHits = 0, 0
		ea.ModelCalls, eb.ModelCalls = 0, 0
		ja, _ := json.Marshal(&ea)
		jb, _ := json.Marshal(&eb)
		if !bytes.Equal(ja, jb) {
			t.Errorf("block %d differs across worker counts:\n w1 %s\n w4 %s", i, ja, jb)
		}
	}

	// The finished job keeps answering polls until evicted.
	var again wire.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%s", ts.URL, st.ID), &again)
	if again.State != wire.JobDone || len(again.Results) != len(srcs) {
		t.Errorf("finished job no longer pollable: %+v", again)
	}
}

// gateModel blocks its first evaluation until released, to hold a job or
// request deterministically in-flight.
type gateModel struct {
	inner   costmodel.Model
	started chan struct{}
	release chan struct{}
	once    sync.Once
}

func newGateModel() *gateModel {
	return &gateModel{
		inner:   uica.New(x86.Haswell),
		started: make(chan struct{}),
		release: make(chan struct{}),
	}
}

func (m *gateModel) Name() string   { return "gate" }
func (m *gateModel) Arch() x86.Arch { return x86.Haswell }
func (m *gateModel) Predict(b *x86.BasicBlock) float64 {
	m.once.Do(func() {
		close(m.started)
		<-m.release
	})
	return m.inner.Predict(b)
}

func TestJobQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	gate := newGateModel()
	s.RegisterModel("gate", x86.Haswell, gate, 0)
	defer func() {
		select {
		case <-gate.release:
		default:
			close(gate.release)
		}
	}()

	req := wire.CorpusRequest{Blocks: []string{testBlock}, Model: "gate", Config: fastOverrides()}
	resp1, body1 := postJSON(t, ts.URL+"/v1/corpus", req)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d: %s", resp1.StatusCode, body1)
	}
	<-gate.started // job 1 is now executing, holding the single worker

	resp2, body2 := postJSON(t, ts.URL+"/v1/corpus", req)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d: %s", resp2.StatusCode, body2)
	}
	resp3, body3 := postJSON(t, ts.URL+"/v1/corpus", req)
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("job 3: status %d, want 429: %s", resp3.StatusCode, body3)
	}
	var e wire.Error
	if err := json.Unmarshal(body3, &e); err != nil || e.Error == "" {
		t.Errorf("429 body is not the error envelope: %s", body3)
	}
	close(gate.release)
}

func TestExplainBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrentExplains: 1})
	gate := newGateModel()
	s.RegisterModel("gate", x86.Haswell, gate, 0)
	released := false
	defer func() {
		if !released {
			close(gate.release)
		}
	}()

	// One computation slot queues four waiters; the sixth request is shed.
	const queued = 4
	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 1+queued)
	post := func(seed int64) {
		o := fastOverrides()
		o.Seed = seed // distinct seeds → distinct keys → no coalescing
		resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
			Block: testBlock, Model: "gate", Config: o,
		})
		results <- result{resp.StatusCode, body}
	}
	go post(1)
	<-gate.started // request 1 holds the single computation slot
	for i := int64(0); i < queued; i++ {
		go post(2 + i)
	}
	// Wait until requests 2–5 fill the derived wait queue.
	deadline := time.Now().Add(5 * time.Second)
	for s.explainWaiting.Load() < queued {
		if time.Now().After(deadline) {
			t.Fatalf("only %d requests queued, want %d", s.explainWaiting.Load(), queued)
		}
		time.Sleep(time.Millisecond)
	}
	resp6, body6 := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "gate", Config: &wire.ConfigOverrides{CoverageSamples: 150, Seed: 6},
	})
	if resp6.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request 6: status %d, want 429: %s", resp6.StatusCode, body6)
	}
	close(gate.release)
	released = true
	for i := 0; i < 1+queued; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Errorf("gated request: status %d: %s", r.code, r.body)
		}
	}
}

func TestJobHistoryEviction(t *testing.T) {
	_, ts := newTestServer(t, Config{JobHistorySize: 1})
	req := wire.CorpusRequest{Blocks: []string{testBlock}, Model: "uica", Config: fastOverrides()}
	_, st1 := submitCorpus(t, ts.URL, req)
	_, st2 := submitCorpus(t, ts.URL, req)
	if r := getJSON(t, ts.URL+"/v1/jobs/"+st1.ID, nil); r.StatusCode != http.StatusNotFound {
		t.Errorf("evicted job 1: status %d, want 404", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/v1/jobs/"+st2.ID, nil); r.StatusCode != http.StatusOK {
		t.Errorf("retained job 2: status %d, want 200", r.StatusCode)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxCorpusBlocks: 2})
	cases := []struct {
		name string
		do   func() int
		want int
	}{
		{"explain GET", func() int { return getJSON(t, ts.URL+"/v1/explain", nil).StatusCode }, http.StatusMethodNotAllowed},
		{"bad block", func() int {
			r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: "not an instruction"})
			return r.StatusCode
		}, http.StatusBadRequest},
		{"unknown model", func() int {
			r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "gpt"})
			return r.StatusCode
		}, http.StatusBadRequest},
		{"unknown arch", func() int {
			r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Arch: "znver4"})
			return r.StatusCode
		}, http.StatusBadRequest},
		{"empty corpus", func() int {
			r, _ := postJSON(t, ts.URL+"/v1/corpus", wire.CorpusRequest{})
			return r.StatusCode
		}, http.StatusBadRequest},
		{"oversized corpus", func() int {
			r, _ := postJSON(t, ts.URL+"/v1/corpus", wire.CorpusRequest{Blocks: []string{testBlock, testBlock, testBlock}})
			return r.StatusCode
		}, http.StatusRequestEntityTooLarge},
		{"unknown job", func() int { return getJSON(t, ts.URL+"/v1/jobs/job-nope-1", nil).StatusCode }, http.StatusNotFound},
		{"bad offset", func() int {
			return getJSON(t, ts.URL+"/v1/jobs/job-nope-1?offset=-2", nil).StatusCode
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if got := tc.do(); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}

	// One case per route row: any method but the row's answers 405 with a
	// wire.Error body, counted under the route's name; a POST row answers
	// 503 while draining. Coordinator rows need a coordinator.
	_, coordTS := newTestServer(t, Config{Coordinator: true})
	drained, drainedTS := newTestServer(t, Config{Coordinator: true})
	if err := drained.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	want405 := map[string]map[string]int{
		ts.URL:      {"explain": 1}, // the "explain GET" case above
		coordTS.URL: {},
	}
	for _, rt := range routes {
		base := ts.URL
		if rt.coordinator {
			base = coordTS.URL
		}
		path := strings.ReplaceAll(rt.pattern, "{id}", "job-nope-1")
		wrong := http.MethodPost
		if rt.method == http.MethodPost {
			wrong = http.MethodGet
		}
		want405[base][rt.name]++
		if got := requestError(t, wrong, base+path, rt.method+" required"); got != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", wrong, rt.pattern, got)
		}
		if rt.method == http.MethodPost {
			if got := requestError(t, rt.method, drainedTS.URL+path, errDraining.Error()); got != http.StatusServiceUnavailable {
				t.Errorf("draining POST %s: status %d, want 503", rt.pattern, got)
			}
		}
	}
	for base, names := range want405 {
		text := fetchMetrics(t, base)
		for name, n := range names {
			if want := fmt.Sprintf(`comet_requests_total{route=%q,code="405"} %d`, name, n); !strings.Contains(text, want) {
				t.Errorf("metrics missing %q", want)
			}
		}
	}
}

// requestError sends an empty request and returns its status, failing
// the test unless the body is the wire.Error carrying msg.
func requestError(t *testing.T, method, url, msg string) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error != msg {
		t.Errorf("%s %s: body %+v (%v), want the wire.Error %q", method, url, e, err, msg)
	}
	return resp.StatusCode
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var health map[string]string
	if r := getJSON(t, ts.URL+"/healthz", &health); r.StatusCode != http.StatusOK || health["status"] != "ok" {
		t.Errorf("healthz: %d %v", r.StatusCode, health)
	}
	postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Config: fastOverrides()})

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`comet_requests_total{route="explain",code="200"} 1`,
		`comet_request_seconds_bucket{route="explain",le="+Inf"} 1`,
		`comet_request_seconds_count{route="explain"} 1`,
		"comet_explanations_computed_total 1",
		"comet_job_queue_depth 0",
		`comet_prediction_cache_hit_rate{model="uica",arch="hsw"}`,
		"comet_result_store_entries 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q\n%s", want, text)
		}
	}
}

// TestPredictionCacheMetricsFollowCheapQuery: c declares
// costmodel.CheapQuery and warms with no prediction cache, so /metrics
// carries no cache series for it; uica keeps its cache and its series.
func TestPredictionCacheMetricsFollowCheapQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, model := range []string{"c", "uica"} {
		if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
			Block: testBlock, Model: model, Config: fastOverrides(),
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %s: status %d: %s", model, resp.StatusCode, body)
		}
	}
	if resp, body := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{
		Blocks: []string{testBlock, testBlock}, Model: "c",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict c: status %d: %s", resp.StatusCode, body)
	}
	text := fetchMetrics(t, ts.URL)
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "comet_prediction_cache_") && strings.Contains(line, `model="c"`) {
			t.Errorf("cache series for c: %s", line)
		}
	}
	for _, family := range []string{"entries", "hit_rate", "hits_total", "misses_total"} {
		if want := "comet_prediction_cache_" + family + `{model="uica",arch="hsw"}`; !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// cheapPlainModel declares costmodel.CheapQuery without a native batch
// path.
type cheapPlainModel struct{ costmodel.Model }

func (cheapPlainModel) CheapQuery() {}

// TestCheapQueryWithoutBatchPathIsUncached: the declaration alone
// decides caching, so a registered plain model that declares
// costmodel.CheapQuery warms with no prediction cache, and its explain
// and predict queries all reach the model.
func TestCheapQueryWithoutBatchPathIsUncached(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.RegisterModel("cheapplain", x86.Haswell, cheapPlainModel{uica.New(x86.Haswell)}, 0)
	resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "cheapplain", Config: fastOverrides(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	var expl wire.Explanation
	if err := json.Unmarshal(body, &expl); err != nil {
		t.Fatal(err)
	}
	if expl.Queries == 0 || expl.CacheHits != 0 || expl.ModelCalls != expl.Queries {
		t.Errorf("queries %d, cache hits %d, model calls %d; want every query evaluated",
			expl.Queries, expl.CacheHits, expl.ModelCalls)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{
		Blocks: []string{testBlock, testBlock}, Model: "cheapplain",
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, body)
	}
	for _, line := range strings.Split(fetchMetrics(t, ts.URL), "\n") {
		if strings.HasPrefix(line, "comet_prediction_cache_") && strings.Contains(line, `model="cheapplain"`) {
			t.Errorf("cache series for a CheapQuery model: %s", line)
		}
	}
}

// TestNegativePredictionCacheSizeMeansDefault: a negative
// PredictionCacheSize sizes the per-model cache like 0 does; it does not
// turn caching off.
func TestNegativePredictionCacheSizeMeansDefault(t *testing.T) {
	s, _ := newTestServer(t, Config{PredictionCacheSize: -1})
	s.RegisterModel("uica", x86.Haswell, uica.New(x86.Haswell), 0)
	e, err := s.models.get("uica@hsw", "", true)
	if err != nil {
		t.Fatal(err)
	}
	if e.cache == nil {
		t.Fatal("no prediction cache for uica at PredictionCacheSize -1")
	}
}

func TestGracefulShutdown(t *testing.T) {
	s := New(Config{JobWorkers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	gate := newGateModel()
	s.RegisterModel("gate", x86.Haswell, gate, 0)

	// A 3-block job: block 0 blocks on the gate; cancellation during
	// shutdown must skip the unstarted blocks and mark the job canceled.
	req := wire.CorpusRequest{
		Blocks: []string{testBlock, testBlock + "\nadd rax, rbx", testBlock + "\nsub rax, rbx"},
		Model:  "gate", Config: fastOverrides(), Workers: 1,
	}
	resp, body := postJSON(t, ts.URL+"/v1/corpus", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	<-gate.started

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Draining: new work is refused while the job winds down.
	time.Sleep(10 * time.Millisecond)
	if r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock}); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("explain during drain: status %d, want 503", r.StatusCode)
	}
	if r := getJSON(t, ts.URL+"/healthz", nil); r.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", r.StatusCode)
	}
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	var st wire.JobStatus
	getJSON(t, ts.URL+"/v1/jobs/"+acc.ID, &st)
	if st.State != wire.JobCanceled {
		t.Errorf("job state after shutdown: %q, want %q (%+v)", st.State, wire.JobCanceled, st)
	}
	if st.Done >= st.Total {
		t.Errorf("canceled job claims all %d blocks done", st.Total)
	}
}

// TestPredictEndpoint: POST /v1/predict answers batch queries that agree
// exactly with the underlying model, flows them through the shared
// prediction cache, and serves the empty-batch discovery handshake.
func TestPredictEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	model := &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}
	s.RegisterModel("counting", x86.Haswell, model, 0)

	blocks := []string{testBlock, "imul rax, rbx\nimul rax, rcx", testBlock}
	resp, body := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{
		Blocks: blocks, Model: "counting",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, body)
	}
	var pr wire.PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "counting" || pr.Arch != "hsw" || pr.Spec != "counting@hsw" || pr.Epsilon != 0.5 {
		t.Errorf("predict identity wrong: %+v", pr)
	}
	if len(pr.Predictions) != len(blocks) {
		t.Fatalf("got %d predictions for %d blocks", len(pr.Predictions), len(blocks))
	}
	for i, src := range blocks {
		want := model.inner.Predict(x86.MustParseBlock(src))
		if pr.Predictions[i] != want {
			t.Errorf("prediction %d = %v, want %v", i, pr.Predictions[i], want)
		}
	}
	// The duplicate block was deduplicated; only 2 distinct evaluations.
	if got := model.calls.Load(); got != 2 {
		t.Errorf("model evaluated %d blocks, want 2 (dedup + cache)", got)
	}
	// A repeat batch is answered fully from the shared cache.
	postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Blocks: blocks, Model: "counting"})
	if got := model.calls.Load(); got != 2 {
		t.Errorf("repeat batch cost %d extra evaluations, want 0", got-2)
	}

	// Directly registered models are addressable by arch aliases too.
	resp, _ = postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Model: "counting@haswell"})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("counting@haswell: status %d, want the registered counting@hsw entry", resp.StatusCode)
	}

	// Handshake: no blocks, just identity.
	resp, body = postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Model: "counting"})
	if err := json.Unmarshal(body, &pr); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("handshake: status %d err %v", resp.StatusCode, err)
	}
	if len(pr.Predictions) != 0 || pr.Spec != "counting@hsw" {
		t.Errorf("handshake response wrong: %+v", pr)
	}

	// Errors: unknown model 400, bad block 400.
	if r, _ := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Model: "gpt"}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown model: status %d, want 400", r.StatusCode)
	}
	if r, _ := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Blocks: []string{"not an instruction"}}); r.StatusCode != http.StatusBadRequest {
		t.Errorf("bad block: status %d, want 400", r.StatusCode)
	}
}

// TestModelsEndpoint: GET /v1/models lists the registry with default
// specs and reports which specs this server has warmed.
func TestModelsEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.RegisterModel("counting", x86.Haswell, &countingModel{inner: costmodel.AsBatch(uica.New(x86.Haswell))}, 0)
	postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "uica", Config: fastOverrides()})

	var mr wire.ModelsResponse
	if r := getJSON(t, ts.URL+"/v1/models", &mr); r.StatusCode != http.StatusOK {
		t.Fatalf("models: status %d", r.StatusCode)
	}
	byName := make(map[string]wire.ModelInfo)
	for _, m := range mr.Models {
		byName[m.Name] = m
	}
	for _, want := range []string{"c", "uica", "mca", "hwsim", "ithemal", "remote"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("models listing missing %q", want)
		}
	}
	if spec := byName["uica"].Spec; spec != "uica@hsw" {
		t.Errorf("uica default spec %q, want uica@hsw", spec)
	}
	if eps := byName["c"].Epsilon; eps != 0.25 {
		t.Errorf("analytical ε %v, want 0.25", eps)
	}
	var hasTrain bool
	for _, p := range byName["ithemal"].Defaults {
		if p.Key == "train" {
			hasTrain = true
		}
	}
	if !hasTrain {
		t.Error("ithemal defaults missing the train parameter")
	}
	warmed := make(map[string]bool)
	for _, w := range mr.Warmed {
		warmed[w] = true
	}
	if !warmed["counting@hsw"] || !warmed["uica@hsw"] {
		t.Errorf("warmed list %v missing counting@hsw / uica@hsw", mr.Warmed)
	}
}

// TestSpecAddressing: requests address models by full spec strings;
// equivalent specs share one warmed entry, distinct parameterizations get
// distinct entries, and the instance table is bounded.
func TestSpecAddressing(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxModelEntries: 2})

	// Alias + explicit arch resolve to the same canonical entry.
	r1, b1 := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "uica@hsw", Config: fastOverrides()})
	r2, b2 := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "uica", Arch: "haswell", Config: fastOverrides()})
	if r1.StatusCode != http.StatusOK || r2.StatusCode != http.StatusOK {
		t.Fatalf("spec addressing: %d / %d (%s / %s)", r1.StatusCode, r2.StatusCode, b1, b2)
	}
	if !bytes.Equal(b1, b2) {
		t.Errorf("equivalent specs produced different explanations:\n%s\n%s", b1, b2)
	}
	if got := s.models.warmedSpecs(); len(got) != 1 || got[0] != "uica@hsw" {
		t.Errorf("warmed specs %v, want exactly [uica@hsw]", got)
	}

	// Bounded instance table: a third distinct spec is shed with 429.
	if r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "uica@skl", Config: fastOverrides()}); r.StatusCode != http.StatusOK {
		t.Fatalf("second spec: status %d", r.StatusCode)
	}
	if r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "mca", Config: fastOverrides()}); r.StatusCode != http.StatusTooManyRequests {
		t.Errorf("instance-table overflow: status %d, want 429", r.StatusCode)
	}
}

// TestRestrictedSpecPolicy: client input may not make the server dial
// URLs (remote@...) or read files (ithemal?load=...) unless the operator
// opts in; operator paths (WarmModel) are never restricted.
func TestRestrictedSpecPolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, spec := range []string{
		"remote@http://127.0.0.1:1",
		"ithemal?load=/etc/passwd",
	} {
		r, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: spec})
		if r.StatusCode != http.StatusForbidden {
			t.Errorf("%s: status %d (%s), want 403", spec, r.StatusCode, body)
		}
		r, _ = postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{Model: spec})
		if r.StatusCode != http.StatusForbidden {
			t.Errorf("predict %s: status %d, want 403", spec, r.StatusCode)
		}
	}

	// Opted in: the spec is resolvable (the dead URL now fails with the
	// dial error — a 400, not a policy 403).
	_, ts2 := newTestServer(t, Config{AllowRestrictedSpecs: true})
	r, _ := postJSON(t, ts2.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "remote@http://127.0.0.1:1?retries=0"})
	if r.StatusCode == http.StatusForbidden {
		t.Errorf("allow-restricted server still refused: %d", r.StatusCode)
	}

	// Operator warming bypasses the policy (and reports the dial error,
	// not the policy error).
	s3, _ := newTestServer(t, Config{})
	if err := s3.WarmModel("remote@http://127.0.0.1:1?retries=0", "hsw"); err == nil || errors.Is(err, errRestrictedSpec) {
		t.Errorf("operator warm of a restricted spec: %v, want a dial error", err)
	}
}

// TestFailedWarmupIsRetriedNotCached: a spec whose warm-up fails is
// evicted from the instance table — the failure doesn't brick the spec
// for the life of the process, and junk specs can't fill the table.
func TestFailedWarmupIsRetriedNotCached(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxModelEntries: 2, AllowRestrictedSpecs: true})

	// Several distinct failing specs never fill the bounded table...
	for i := 0; i < 4; i++ {
		spec := fmt.Sprintf("remote@http://127.0.0.1:1?retries=0&model=m%d", i)
		if r, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: spec}); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("failing spec %d: status %d, want 400", i, r.StatusCode)
		}
	}
	// ...so a valid spec still resolves afterwards.
	if r, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{Block: testBlock, Model: "uica", Config: fastOverrides()}); r.StatusCode != http.StatusOK {
		t.Fatalf("valid spec after failures: status %d (%s)", r.StatusCode, body)
	}
	if got := s.models.warmedSpecs(); len(got) != 1 || got[0] != "uica@hsw" {
		t.Errorf("warmed specs %v, want exactly [uica@hsw]", got)
	}
}
