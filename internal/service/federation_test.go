package service

// Tests for the cluster-wide observability plane: /readyz reasons, the
// flight-recorder surface, explanation-quality telemetry, trace
// propagation through the binary-upload path, and federated trace views
// assembled across a coordinator and its workers.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/inspect"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/remote"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// TestReadyzReasons pins the machine-readable reason each non-200
// /readyz carries: "cold" (warm-up running), "restoring" (durable store
// attached, Restore not finished), "draining" (shutdown in progress).
func TestReadyzReasons(t *testing.T) {
	readyz := func(ts string) (int, map[string]string) {
		var body map[string]string
		resp := getJSON(t, ts+"/readyz", &body)
		return resp.StatusCode, body
	}

	// Cold: no store, SetReady not called yet.
	_, coldTS := newTestServer(t, Config{})
	if code, body := readyz(coldTS.URL); code != http.StatusServiceUnavailable ||
		body["status"] != "starting" || body["reason"] != "cold" {
		t.Errorf("cold /readyz = %d %v, want 503 starting/cold", code, body)
	}

	// Restoring: a durable store is attached and Restore has not run.
	store := openTestStore(t, t.TempDir())
	restoring, restoringTS := newTestServer(t, Config{Store: store})
	if code, body := readyz(restoringTS.URL); code != http.StatusServiceUnavailable ||
		body["reason"] != "restoring" {
		t.Errorf("pre-restore /readyz = %d %v, want 503 reason=restoring", code, body)
	}
	if _, err := restoring.Restore(); err != nil {
		t.Fatal(err)
	}
	// Restored but warm-up still pending: back to plain cold.
	if code, body := readyz(restoringTS.URL); code != http.StatusServiceUnavailable ||
		body["reason"] != "cold" {
		t.Errorf("post-restore /readyz = %d %v, want 503 reason=cold", code, body)
	}
	restoring.SetReady()
	if code, body := readyz(restoringTS.URL); code != http.StatusOK || body["status"] != "ready" {
		t.Errorf("ready /readyz = %d %v", code, body)
	}

	// Draining: shutdown flips the reason regardless of readiness.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := restoring.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code, body := readyz(restoringTS.URL); code != http.StatusServiceUnavailable ||
		body["reason"] != "draining" {
		t.Errorf("draining /readyz = %d %v, want 503 reason=draining", code, body)
	}
}

// flightDump fetches and decodes GET /debug/flight.
func flightDump(t *testing.T, base string) (string, []map[string]any) {
	t.Helper()
	var dump struct {
		Process string           `json:"process"`
		Written uint64           `json:"written"`
		Records []map[string]any `json:"records"`
	}
	resp := getJSON(t, base+"/debug/flight", &dump)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/flight: status %d", resp.StatusCode)
	}
	if dump.Written < uint64(len(dump.Records)) {
		t.Errorf("written %d < records held %d", dump.Written, len(dump.Records))
	}
	return dump.Process, dump.Records
}

// TestDebugFlightEndpoint drives requests and a corpus job through the
// server and asserts the flight recorder saw every request (sampling
// plays no part) and each job state transition.
func TestDebugFlightEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	st := runCorpusJob(t, ts.URL, wire.CorpusRequest{
		Blocks: []string{testBlock}, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	})
	if st.State != wire.JobDone {
		t.Fatalf("job: %+v", st)
	}

	process, recs := flightDump(t, ts.URL)
	if process != "local" {
		t.Errorf("process label %q, want %q", process, "local")
	}
	routes := map[string]bool{}
	jobStates := map[string]bool{}
	for _, r := range recs {
		switch r["kind"] {
		case "request":
			routes[r["route"].(string)] = true
			if r["status"] == nil || r["latency_us"] == nil {
				t.Errorf("request record missing status/latency: %v", r)
			}
		case "job":
			jobStates[r["state"].(string)] = true
			if r["id"] != st.ID {
				t.Errorf("job record for %v, want %s", r["id"], st.ID)
			}
			if r["trace_id"] == nil {
				t.Errorf("job record carries no trace (jobs are force-traced): %v", r)
			}
		}
	}
	for _, want := range []string{"explain", "corpus", "jobs"} {
		if !routes[want] {
			t.Errorf("no flight record for route %q (have %v)", want, routes)
		}
	}
	for _, want := range []string{wire.JobQueued, wire.JobRunning, wire.JobDone} {
		if !jobStates[want] {
			t.Errorf("no flight record for job state %q (have %v)", want, jobStates)
		}
	}
}

// TestQualityTelemetryPerSpec asserts computed explanations feed the
// per-spec quality families: precision/coverage/queries histograms plus
// the sample and epsilon-violation counters.
func TestQualityTelemetryPerSpec(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 3
	for i := 0; i < n; i++ {
		block := fmt.Sprintf("%s\nadd rax, %d", testBlock, i+1)
		if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
			Block: block, Model: "uica", Arch: "hsw", Config: fastOverrides(),
		}); resp.StatusCode != http.StatusOK {
			t.Fatalf("explain %d: status %d: %s", i, resp.StatusCode, body)
		}
	}

	text := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		`comet_explanation_precision_count{spec="uica@hsw"} ` + fmt.Sprint(n),
		`comet_explanation_coverage_count{spec="uica@hsw"} ` + fmt.Sprint(n),
		`comet_explanation_queries_count{spec="uica@hsw"} ` + fmt.Sprint(n),
		`comet_explanation_quality_samples_total{spec="uica@hsw"} ` + fmt.Sprint(n),
		`comet_explanation_uncertified_total{spec="uica@hsw"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// Precision lives in [0,1]: the +Inf bucket count equals the le="1"
	// bucket count.
	if !strings.Contains(text, `comet_explanation_precision_bucket{spec="uica@hsw",le="1"} `+fmt.Sprint(n)) {
		t.Errorf("precision histogram le=1 bucket does not hold all %d samples:\n%s", n, text)
	}

	// A cache hit is not a computed explanation: repeating a block must
	// not inflate the sample count.
	if resp, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock + "\nadd rax, 1", Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatal("repeat explain failed")
	}
	text = fetchMetrics(t, ts.URL)
	if !strings.Contains(text, `comet_explanation_quality_samples_total{spec="uica@hsw"} `+fmt.Sprint(n)) {
		t.Errorf("cache hit inflated quality samples:\n%s", text)
	}
}

// TestComputedCountsJobAndShardBlocks: corpus-job blocks and shard-lease
// blocks are computed explanations like sync requests, so they feed the
// computed counter and the latency histogram as well as the quality
// families, one sample each.
func TestComputedCountsJobAndShardBlocks(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.SetReady()
	if st := runCorpusJob(t, ts.URL, wire.CorpusRequest{
		Blocks: clusterTestBlocks[:3], Model: "uica", Config: fastOverrides(),
	}); st.State != wire.JobDone {
		t.Fatalf("job: %+v", st)
	}
	sreq := wire.ShardRequest{JobID: "job-x", Lease: "job-x/l0", Spec: "uica@hsw",
		Config: shardConfigFor(t, s, fastOverrides())}
	for i, b := range clusterTestBlocks[2:] {
		sreq.Blocks = append(sreq.Blocks, wire.ShardBlock{Index: i, Block: b})
	}
	resp, raw := postJSON(t, ts.URL+"/v1/shard", sreq)
	wantStatus(t, "/v1/shard", resp, raw, http.StatusOK)

	text := fetchMetrics(t, ts.URL)
	for _, want := range []string{
		"comet_explanations_computed_total 5\n",
		`comet_explanation_seconds_count{spec="uica@hsw"} 5` + "\n",
		`comet_explanation_quality_samples_total{spec="uica@hsw"} 5` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestUploadTracePropagation (PR-8 regression coverage): the spans of a
// binary upload form one connected trace — ingest.extract parents under
// the http.corpus root, and the async job.run span carries the same
// trace ID after the accepting request has finished.
func TestUploadTracePropagation(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := uploadBinary(t, ts.URL,
		"?model=uica&arch=hsw&coverage_samples=150&seed=1",
		"application/octet-stream", readFixtureELF(t))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	if traceID == "" {
		t.Fatal("upload response carries no X-Comet-Trace-Id (corpus is a force-traced route)")
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if _, st := pollJob(t, ts.URL, acc.ID); st.State != wire.JobDone {
		t.Fatalf("upload job: %+v", st)
	}

	// job.run ends asynchronously after the job flips to done.
	byName := map[string]obs.SpanRecord{}
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got struct {
			Spans []obs.SpanRecord `json:"spans"`
		}
		getJSON(t, ts.URL+"/debug/traces/"+traceID, &got)
		byName = map[string]obs.SpanRecord{}
		for _, sp := range got.Spans {
			byName[sp.Name] = sp
		}
		if _, ok := byName["job.run"]; ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job.run span never reached trace %s (have %v)", traceID, byName)
		}
		time.Sleep(10 * time.Millisecond)
	}

	root, ok := byName["http.corpus"]
	if !ok {
		t.Fatalf("trace %s has no http.corpus root (have %v)", traceID, byName)
	}
	extract, ok := byName["ingest.extract"]
	if !ok {
		t.Fatalf("trace %s has no ingest.extract span", traceID)
	}
	if extract.ParentID != root.SpanID {
		t.Errorf("ingest.extract parent %q, want the http.corpus span %q", extract.ParentID, root.SpanID)
	}
	if run := byName["job.run"]; run.TraceID != traceID || run.ParentID == "" {
		t.Errorf("job.run did not resume the upload trace: %+v", run)
	}
}

// TestJobTraceReachesRemoteBackend: a corpus job on a remote@ model
// carries its trace to the backend, whose predict spans join the job's
// trace ID.
func TestJobTraceReachesRemoteBackend(t *testing.T) {
	backend, backendTS := newTestServer(t, Config{})
	backend.SetReady()
	model, err := remote.Dial(backendTS.URL, remote.Options{Model: "c"})
	if err != nil {
		t.Fatal(err)
	}
	front, frontTS := newTestServer(t, Config{})
	front.RegisterModel("backend", x86.Haswell, model, 0)

	resp, body := postJSON(t, frontTS.URL+"/v1/corpus", wire.CorpusRequest{
		Blocks: clusterTestBlocks[:2], Model: "backend", Config: fastOverrides(),
	})
	wantStatus(t, "/v1/corpus", resp, body, http.StatusAccepted)
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	if traceID == "" {
		t.Fatal("corpus response carries no X-Comet-Trace-Id")
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if _, st := pollJob(t, frontTS.URL, acc.ID); st.State != wire.JobDone {
		t.Fatalf("job: %+v", st)
	}

	var got struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	getJSON(t, backendTS.URL+"/debug/traces/"+traceID, &got)
	predicts := 0
	for _, sp := range got.Spans {
		if sp.Name == "http.predict" {
			predicts++
		}
	}
	if predicts == 0 {
		t.Errorf("backend trace %s holds no http.predict span (have %d spans)", traceID, len(got.Spans))
	}
}

// TestFederatedTraceAcrossProcesses: a coordinator shards a traced job
// across two in-process workers, then GET /debug/traces/{id}?cluster=1
// on the coordinator returns one merged span set containing spans
// labeled with all three processes, which WriteTree renders as a single
// parent-linked tree.
func TestFederatedTraceAcrossProcesses(t *testing.T) {
	w1, ts1 := newTestServer(t, Config{})
	w2, ts2 := newTestServer(t, Config{})
	w1.SetReady()
	w2.SetReady()

	_, coordTS := newTestServer(t, Config{
		ClusterWorkers: []string{ts1.URL, ts2.URL},
		Cluster: cluster.Options{
			LeaseBlocks:  1,
			ProbeBackoff: 10 * time.Millisecond,
			Tick:         5 * time.Millisecond,
		},
	})

	raw, _ := json.Marshal(wire.CorpusRequest{
		Blocks: clusterTestBlocks, Model: "uica", Config: fastOverrides(),
	})
	resp, err := http.Post(coordTS.URL+"/v1/corpus", "application/json", strings.NewReader(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var acc wire.JobAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d, err %v", resp.StatusCode, err)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	if traceID == "" {
		t.Fatal("corpus submission carries no trace ID")
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st wire.JobStatus
		getJSON(t, coordTS.URL+"/v1/jobs/"+acc.ID, &st)
		if st.State == wire.JobDone {
			break
		}
		if st.State == wire.JobFailed || st.State == wire.JobCanceled || time.Now().After(deadline) {
			t.Fatalf("job: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Workers finish their shard spans asynchronously; poll the federated
	// view until spans from all three processes are present.
	var fed struct {
		TraceID   string `json:"trace_id"`
		Cluster   bool   `json:"cluster"`
		Processes []struct {
			Process string `json:"process"`
			Spans   int    `json:"spans"`
			Error   string `json:"error"`
		} `json:"processes"`
		Spans []obs.SpanRecord `json:"spans"`
	}
	procSpans := map[string]int{}
	deadline = time.Now().Add(10 * time.Second)
	for {
		getJSON(t, coordTS.URL+"/debug/traces/"+traceID+"?cluster=1", &fed)
		procSpans = map[string]int{}
		for _, sp := range fed.Spans {
			procSpans[sp.Process]++
		}
		if len(procSpans) >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated trace never gathered spans from 3 processes: %v\nprocesses: %+v",
				procSpans, fed.Processes)
		}
		time.Sleep(20 * time.Millisecond)
	}

	if !fed.Cluster || fed.TraceID != traceID {
		t.Errorf("federated envelope: cluster=%v trace=%s", fed.Cluster, fed.TraceID)
	}
	if len(fed.Processes) != 3 {
		t.Errorf("federated view lists %d processes, want 3: %+v", len(fed.Processes), fed.Processes)
	}
	for _, p := range fed.Processes {
		if p.Error != "" {
			t.Errorf("process %s unreachable during federation: %s", p.Process, p.Error)
		}
	}
	for _, proc := range []string{"coordinator", ts1.URL, ts2.URL} {
		if procSpans[proc] == 0 {
			t.Errorf("no spans from process %q in federated trace (have %v)", proc, procSpans)
		}
	}

	// The merged set is one connected tree: every span's parent is either
	// present or absent-because-remote — but the worker roots must parent
	// under coordinator spans (traceparent propagated across the lease).
	byID := map[string]bool{}
	for _, sp := range fed.Spans {
		byID[sp.SpanID] = true
	}
	for _, sp := range fed.Spans {
		if sp.Process != "coordinator" && sp.Name == "http.shard" && !byID[sp.ParentID] {
			t.Errorf("worker shard span %s (parent %q) is orphaned in the merged view", sp.SpanID, sp.ParentID)
		}
	}

	// And the tree renders: every process label appears in WriteTree
	// output, the human surface comet-trace prints.
	var sb strings.Builder
	inspect.WriteTree(&sb, fed.Spans, 30)
	rendered := sb.String()
	for _, proc := range []string{"process=coordinator", "process=" + ts1.URL, "process=" + ts2.URL} {
		if !strings.Contains(rendered, proc) {
			t.Errorf("rendered tree missing %q:\n%s", proc, rendered)
		}
	}

	// A plain (non-cluster) fetch on the coordinator stays local: no
	// process labels, no federation envelope.
	var local struct {
		Cluster bool             `json:"cluster"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	getJSON(t, coordTS.URL+"/debug/traces/"+traceID, &local)
	if local.Cluster {
		t.Error("plain trace fetch returned the federated envelope")
	}
	for _, sp := range local.Spans {
		if sp.Process != "" {
			t.Errorf("local span %s carries a process label %q", sp.Name, sp.Process)
		}
	}
}
