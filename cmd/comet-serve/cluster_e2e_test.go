package main

// The cluster acceptance criterion (make test-cluster): a corpus job
// sharded across two real comet-serve worker processes produces
// per-block JSON byte-identical to a single-process run at the same
// seed — including after one worker is SIGKILLed mid-lease and the
// coordinator itself is SIGKILLed and restarted on the same -store-dir.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/wire"
)

// clusterJSON compares explanation content; the cache-warmth accounting
// legitimately differs between runs.
func clusterJSON(t *testing.T, results []wire.CorpusResult) map[int][]byte {
	t.Helper()
	m := make(map[int][]byte, len(results))
	for _, r := range results {
		if r.Explanation == nil {
			t.Fatalf("result %d has no explanation: %+v", r.Index, r)
		}
		e := *r.Explanation
		e.CacheHits, e.ModelCalls = 0, 0
		b, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		m[r.Index] = b
	}
	return m
}

// fetchTraceSpans polls one process's /debug/traces/{id} until spans
// for the trace appear (spans land in the ring when they end, which can
// trail the observable effect by a beat) and returns their names.
func fetchTraceSpans(t *testing.T, base, traceID string, timeout time.Duration) map[string]bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(base + "/debug/traces/" + traceID)
		if err != nil {
			t.Fatalf("debug/traces: %v", err)
		}
		var body struct {
			Spans []struct {
				TraceID string `json:"trace_id"`
				Name    string `json:"name"`
			} `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && err == nil && len(body.Spans) > 0 {
			names := map[string]bool{}
			for _, sp := range body.Spans {
				if sp.TraceID != traceID {
					t.Fatalf("%s returned span of trace %s under trace %s", base, sp.TraceID, traceID)
				}
				names[sp.Name] = true
			}
			return names
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared at %s/debug/traces", traceID, base)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// assertFramedLeases scrapes a worker's /metrics after a job and
// asserts comet_frame_requests_total > 0: coordinator→worker leases
// travel as binary frames across real processes.
func assertFramedLeases(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, "comet_frame_requests_total "); ok {
			if n, err := strconv.ParseFloat(v, 64); err != nil || n <= 0 {
				t.Errorf("worker %s: comet_frame_requests_total = %q, want > 0 (leases must travel as frames)", base, v)
			}
			return
		}
	}
	t.Errorf("worker %s exports no comet_frame_requests_total", base)
}

// traceLogLines counts the JSON log records in a process's stderr that
// carry the trace ID, so the cross-process story is greppable from logs
// alone as well as from the trace rings.
func traceLogLines(t *testing.T, logs, traceID string) (count int, msgs map[string]bool) {
	t.Helper()
	msgs = map[string]bool{}
	for _, line := range strings.Split(logs, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || line[0] != '{' {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Errorf("-log-format json emitted a non-JSON line: %q (%v)", line, err)
			continue
		}
		if rec["trace_id"] == traceID {
			count++
			if msg, ok := rec["msg"].(string); ok {
				msgs[msg] = true
			}
		}
	}
	return count, msgs
}

// TestClusterE2ETraceSpansProcesses asserts the observability
// acceptance criterion: a corpus job submitted to a coordinator carries
// ONE trace ID across both processes — retrievable from each process's
// /debug/traces ring and greppable in both processes' JSON logs.
func TestClusterE2ETraceSpansProcesses(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cluster e2e test in -short mode")
	}
	bin := buildServe(t)
	obsArgs := []string{"-addr", "127.0.0.1:0", "-coverage-samples", "250",
		"-log-format", "json", "-trace-sample", "1"}
	worker := startServe(t, bin, obsArgs...)
	co := startServe(t, bin, append([]string{"-workers", worker.base, "-lease-blocks", "1"}, obsArgs...)...)

	req := wire.CorpusRequest{
		Blocks: []string{
			"add rcx, rax\nmov rdx, rcx\npop rbx",
			"imul rax, rbx\nimul rax, rcx",
			"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
		},
		Model: "uica",
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(co.base+"/v1/corpus", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	var acc wire.JobAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d, decode err %v", resp.StatusCode, err)
	}
	if traceID == "" {
		t.Fatal("corpus submission returned no X-Comet-Trace-Id header")
	}

	st := waitJobDone(t, co.base, acc.ID, 4*time.Minute)
	if st.State != wire.JobDone || st.Done != len(req.Blocks) || st.Failed != 0 {
		t.Fatalf("cluster job did not complete cleanly: %+v\ncoordinator stderr:\n%s", st, co.stderr.String())
	}
	if len(st.Workers) == 0 {
		t.Fatalf("job was not distributed (no worker attribution): %+v\ncoordinator stderr:\n%s", st, co.stderr.String())
	}
	assertFramedLeases(t, worker.base)

	// The coordinator's ring holds the submission and the resumed job
	// span; the worker's ring holds the lease executions — all under the
	// one trace ID minted at submission.
	coordSpans := fetchTraceSpans(t, co.base, traceID, 10*time.Second)
	for _, want := range []string{"http.corpus", "job.run"} {
		if !coordSpans[want] {
			t.Errorf("coordinator trace %s is missing span %q (have %v)", traceID, want, coordSpans)
		}
	}
	workerSpans := fetchTraceSpans(t, worker.base, traceID, 10*time.Second)
	if !workerSpans["http.shard"] {
		t.Errorf("worker trace %s is missing span %q (have %v)", traceID, "http.shard", workerSpans)
	}

	// The same trace ID is greppable in both processes' JSON logs.
	coCount, coMsgs := traceLogLines(t, co.stderr.String(), traceID)
	if coCount == 0 || !coMsgs["job finished"] {
		t.Errorf("coordinator logs carry %d lines for trace %s (msgs %v); want a %q line",
			coCount, traceID, coMsgs, "job finished")
	}
	wCount, wMsgs := traceLogLines(t, worker.stderr.String(), traceID)
	if wCount == 0 || !wMsgs["shard lease executed"] {
		t.Errorf("worker logs carry %d lines for trace %s (msgs %v); want a %q line",
			wCount, traceID, wMsgs, "shard lease executed")
	}
}

// TestClusterE2EFederatedTraceAndFlight asserts the cluster-wide
// observability plane end to end with real processes: a coordinator and
// two workers run one traced corpus job, GET /debug/traces/{id}?cluster=1
// on the coordinator returns ONE federated trace containing spans from
// all three processes, the comet-trace CLI renders it, and SIGQUITing a
// worker dumps its flight recorder as parseable JSON on stderr.
func TestClusterE2EFederatedTraceAndFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cluster e2e test in -short mode")
	}
	bin := buildServe(t)
	obsArgs := []string{"-addr", "127.0.0.1:0", "-coverage-samples", "250",
		"-log-format", "json", "-trace-sample", "1"}
	w1 := startServe(t, bin, obsArgs...)
	w2 := startServe(t, bin, obsArgs...)
	co := startServe(t, bin,
		append([]string{"-workers", w1.base + "," + w2.base, "-lease-blocks", "1"}, obsArgs...)...)

	req := wire.CorpusRequest{
		Blocks: []string{
			"add rcx, rax\nmov rdx, rcx\npop rbx",
			"imul rax, rbx\nimul rax, rcx",
			"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
			"imul rdx, rsi\nadd rdx, rdi\nmov rax, rdx",
			"xor rax, rax\nadd rax, rcx\nimul rax, rax",
			"mov rbx, rcx\nadd rbx, rdx\nsub rbx, rsi",
			"vaddss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
			"mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]",
		},
		Model: "uica",
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(co.base+"/v1/corpus", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	var acc wire.JobAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted || traceID == "" {
		t.Fatalf("corpus: status %d, decode err %v, trace %q", resp.StatusCode, err, traceID)
	}
	st := waitJobDone(t, co.base, acc.ID, 4*time.Minute)
	if st.State != wire.JobDone || st.Done != len(req.Blocks) || st.Failed != 0 {
		t.Fatalf("cluster job did not complete cleanly: %+v\ncoordinator stderr:\n%s", st, co.stderr.String())
	}
	if len(st.Workers) < 2 {
		t.Fatalf("job was not spread across both workers: %+v", st.Workers)
	}
	assertFramedLeases(t, w1.base)
	assertFramedLeases(t, w2.base)

	// One federated trace with spans from all three processes. Workers
	// finish their shard spans asynchronously, so poll.
	type fedBody struct {
		TraceID   string `json:"trace_id"`
		Cluster   bool   `json:"cluster"`
		Processes []struct {
			Process string `json:"process"`
			Spans   int    `json:"spans"`
			Error   string `json:"error"`
		} `json:"processes"`
		Spans []struct {
			TraceID  string `json:"trace_id"`
			SpanID   string `json:"span_id"`
			ParentID string `json:"parent_id"`
			Name     string `json:"name"`
			Process  string `json:"process"`
		} `json:"spans"`
	}
	var fed fedBody
	procSpans := map[string]int{}
	deadline := time.Now().Add(15 * time.Second)
	for {
		resp, err := http.Get(co.base + "/debug/traces/" + traceID + "?cluster=1")
		if err != nil {
			t.Fatal(err)
		}
		fed = fedBody{}
		err = json.NewDecoder(resp.Body).Decode(&fed)
		resp.Body.Close()
		procSpans = map[string]int{}
		if resp.StatusCode == http.StatusOK && err == nil {
			for _, sp := range fed.Spans {
				if sp.TraceID != traceID {
					t.Fatalf("federated view leaked span of trace %s", sp.TraceID)
				}
				procSpans[sp.Process]++
			}
			if len(procSpans) >= 3 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated trace never gathered spans from 3 processes: %v\nprocesses: %+v",
				procSpans, fed.Processes)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !fed.Cluster || len(fed.Processes) != 3 {
		t.Errorf("federated envelope: cluster=%v processes=%+v", fed.Cluster, fed.Processes)
	}
	for _, proc := range []string{"coordinator", w1.base, w2.base} {
		if procSpans[proc] == 0 {
			t.Errorf("no spans from %q in the federated trace (have %v)", proc, procSpans)
		}
	}
	names := map[string]bool{}
	for _, sp := range fed.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"http.corpus", "job.run", "http.shard"} {
		if !names[want] {
			t.Errorf("federated trace is missing span %q (have %v)", want, names)
		}
	}
	// Worker shard roots parent under coordinator spans: the merged view
	// is one connected tree, not three disjoint ones.
	byID := map[string]bool{}
	for _, sp := range fed.Spans {
		byID[sp.SpanID] = true
	}
	for _, sp := range fed.Spans {
		if sp.Name == "http.shard" && !byID[sp.ParentID] {
			t.Errorf("worker shard span %s has no parent in the merged view (parent %q)", sp.SpanID, sp.ParentID)
		}
	}

	// The comet-trace CLI renders the same federated view.
	traceBin := filepath.Join(t.TempDir(), "comet-trace")
	if out, err := exec.Command("go", "build", "-o", traceBin, "../comet-trace").CombinedOutput(); err != nil {
		t.Fatalf("building comet-trace: %v\n%s", err, out)
	}
	out, err := exec.Command(traceBin, co.base, traceID).CombinedOutput()
	if err != nil {
		t.Fatalf("comet-trace: %v\n%s", err, out)
	}
	rendered := string(out)
	for _, want := range []string{
		"3 processes", "http.corpus", "job.run", "http.shard",
		"process=coordinator", "process=" + w1.base, "process=" + w2.base, "▐",
	} {
		if !strings.Contains(rendered, want) {
			t.Errorf("comet-trace output missing %q:\n%s", want, rendered)
		}
	}

	// SIGQUIT a worker: the process dumps its flight recorder to stderr
	// as a single JSON document and exits.
	if err := w1.cmd.Process.Signal(syscall.SIGQUIT); err != nil {
		t.Fatal(err)
	}
	select {
	case <-w1.exited:
	case <-time.After(30 * time.Second):
		t.Fatal("worker did not exit after SIGQUIT")
	}
	var dump struct {
		Process string `json:"process"`
		Written uint64 `json:"written"`
		Records []struct {
			Kind  string `json:"kind"`
			Route string `json:"route"`
			State string `json:"state"`
		} `json:"records"`
	}
	found := false
	for _, line := range strings.Split(w1.stderr.String(), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"records"`) {
			continue
		}
		if json.Unmarshal([]byte(line), &dump) == nil {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no parseable flight dump on worker stderr after SIGQUIT:\n%s", w1.stderr.String())
	}
	if dump.Process != "worker" && dump.Process != "local" {
		t.Errorf("flight dump process label %q", dump.Process)
	}
	if dump.Written == 0 || len(dump.Records) == 0 {
		t.Fatalf("flight dump is empty: written=%d records=%d", dump.Written, len(dump.Records))
	}
	kinds := map[string]bool{}
	shardRequests := 0
	for _, r := range dump.Records {
		kinds[r.Kind] = true
		if r.Kind == "request" && r.Route == "shard" {
			shardRequests++
		}
	}
	if !kinds["request"] || shardRequests == 0 {
		t.Errorf("worker flight dump records no shard requests (kinds %v, shard requests %d):\n%s",
			kinds, shardRequests, w1.stderr.String())
	}
	if !kinds["lease"] {
		t.Errorf("worker flight dump records no lease executions (kinds %v)", kinds)
	}
}

func TestClusterE2EKillWorkerAndCoordinator(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping cluster e2e test in -short mode")
	}
	storeRoot := os.Getenv("COMET_E2E_STORE_DIR")
	if storeRoot == "" {
		storeRoot = t.TempDir()
	}
	storeDir := filepath.Join(storeRoot, "cluster")
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}

	bin := buildServe(t)
	workerArgs := []string{"-addr", "127.0.0.1:0", "-coverage-samples", "250"}
	w1 := startServe(t, bin, workerArgs...)
	w2 := startServe(t, bin, workerArgs...)

	coordArgs := func(workers string) []string {
		return []string{
			"-addr", "127.0.0.1:0",
			"-workers", workers,
			"-store-dir", storeDir,
			"-checkpoint-every", "1",
			"-lease-blocks", "1",
			"-lease-retries", "6",
			"-lease-timeout", "2m",
			"-coverage-samples", "250",
			"-drain-timeout", "30s",
		}
	}
	co := startServe(t, bin, coordArgs(w1.base+","+w2.base)...)

	req := wire.CorpusRequest{
		Blocks: []string{
			"add rcx, rax\nmov rdx, rcx\npop rbx",
			"imul rax, rbx\nimul rax, rcx",
			"mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]",
			"vaddss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
			"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
			"imul rdx, rsi\nadd rdx, rdi\nmov rax, rdx",
			"xor rax, rax\nadd rax, rcx\nimul rax, rax",
			"mov rbx, rcx\nadd rbx, rdx\nsub rbx, rsi",
		},
		Model: "uica",
	}
	acc := postCorpus(t, co.base, req)

	// Phase 1: SIGKILL worker 1 as soon as the job has made some
	// progress — leases it holds die with it and must land on worker 2.
	waitProgress := func(base string, min int) wire.JobStatus {
		t.Helper()
		deadline := time.Now().Add(3 * time.Minute)
		var st wire.JobStatus
		for {
			if time.Now().After(deadline) {
				t.Fatalf("job never reached %d done blocks: %+v", min, st)
			}
			st, _ = pollJob(t, base, acc.ID)
			if st.Done >= min || st.State == wire.JobDone || st.State == wire.JobFailed {
				return st
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	atKill := waitProgress(co.base, 1)
	if err := w1.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-w1.exited
	if atKill.State == wire.JobDone {
		t.Logf("note: job finished (%d/%d) before the worker kill", atKill.Done, len(req.Blocks))
	}

	// Phase 2: SIGKILL the coordinator mid-job and restart it on the same
	// store, now with only the surviving worker.
	atCoordKill := waitProgress(co.base, 2)
	if err := co.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-co.exited
	if atCoordKill.State == wire.JobDone {
		t.Logf("note: job finished (%d/%d) before the coordinator kill; exercising restore-finished instead of resume", atCoordKill.Done, len(req.Blocks))
	}

	co2 := startServe(t, bin, coordArgs(w2.base)...)
	resumed := waitJobDone(t, co2.base, acc.ID, 4*time.Minute)
	if resumed.State != wire.JobDone || resumed.Done != len(req.Blocks) || resumed.Failed != 0 {
		t.Fatalf("resumed cluster job did not complete cleanly: %+v\ncoordinator stderr:\n%s", resumed, co2.stderr.String())
	}
	if resumed.Total != len(req.Blocks) {
		t.Errorf("progress fields out of step: %+v", resumed)
	}

	// Reference: the same request on a plain single-process server (the
	// surviving worker) — an uninterrupted local ExplainAll at the same
	// seed.
	ref := waitJobDone(t, w2.base, postCorpus(t, w2.base, req).ID, 4*time.Minute)
	if ref.State != wire.JobDone || ref.Done != len(req.Blocks) {
		t.Fatalf("reference job did not complete: %+v", ref)
	}

	got, want := clusterJSON(t, resumed.Results), clusterJSON(t, ref.Results)
	for i := 0; i < len(req.Blocks); i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("block %d: cluster result differs from single-process run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// The cluster surfaces report the topology: the restarted coordinator
	// knows its worker, and distributed blocks carry worker attribution
	// (blocks finished before the coordinator kill were restored from the
	// store, so attribution covers at least the post-restart remainder).
	resp, err := http.Get(co2.base + "/v1/cluster")
	if err != nil {
		t.Fatal(err)
	}
	var cs wire.ClusterStatus
	err = json.NewDecoder(resp.Body).Decode(&cs)
	resp.Body.Close()
	if err != nil || len(cs.Workers) != 1 {
		t.Errorf("cluster status after restart: %+v (err %v)", cs, err)
	}
	if len(resumed.Workers) == 0 && resumed.Done > atCoordKill.Done {
		t.Errorf("resumed job carries no worker attribution: %+v", resumed)
	}

	// Graceful exits: the surviving worker and coordinator drain cleanly.
	for _, p := range []*serveProc{co2, w2} {
		if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-p.exited:
			if err != nil {
				t.Fatalf("process exited uncleanly: %v\n%s", err, p.stderr.String())
			}
		case <-time.After(time.Minute):
			t.Fatal("process did not exit after SIGTERM")
		}
	}
}
