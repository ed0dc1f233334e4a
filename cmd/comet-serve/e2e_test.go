package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/wire"
)

// buildServe compiles the real comet-serve binary with the race detector.
func buildServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "comet-serve")
	build := exec.Command("go", "build", "-race", "-o", bin, ".")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building comet-serve: %v\n%s", err, out)
	}
	return bin
}

// syncBuffer collects a live process's stderr; exec.Cmd writes from its
// copier goroutine while the test reads, so access is locked.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// serveProc is one running comet-serve process under test.
type serveProc struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	stderr *syncBuffer
	exited chan error
}

// startServe launches the binary and waits for its readiness line.
func startServe(t *testing.T, bin string, args ...string) *serveProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	p := &serveProc{cmd: cmd, stderr: &syncBuffer{}, exited: make(chan error, 1)}
	cmd.Stderr = p.stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		p.exited <- cmd.Wait()
		close(p.exited) // later receives return immediately
	}()
	t.Cleanup(func() {
		captureArtifacts(t, p)
		_ = cmd.Process.Kill() // no-op if already exited
		<-p.exited
	})

	// Readiness: parse the "listening on host:port" line.
	addrc := make(chan string, 1)
	go func() {
		scanner := bufio.NewScanner(stdout)
		for scanner.Scan() {
			line := scanner.Text()
			if rest, ok := strings.CutPrefix(line, "comet-serve: listening on "); ok {
				addrc <- strings.TrimSpace(rest)
				return
			}
		}
	}()
	select {
	case addr := <-addrc:
		p.base = "http://" + addr
	case err := <-p.exited:
		t.Fatalf("server exited before listening: %v\n%s", err, p.stderr.String())
	case <-time.After(30 * time.Second):
		t.Fatal("server never reported its listen address")
	}
	return p
}

// captureArtifacts preserves a failing test's post-mortem. When the test
// failed and COMET_E2E_ARTIFACT_DIR is set (make test-e2e/test-cluster
// export it; CI uploads the directory on failure), the server's stderr
// log and — if the process still answers — its /debug/flight dump are
// written there before the process is killed.
func captureArtifacts(t *testing.T, p *serveProc) {
	dir := os.Getenv("COMET_E2E_ARTIFACT_DIR")
	if dir == "" || !t.Failed() {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("post-mortem: creating %s: %v", dir, err)
		return
	}
	name := strings.NewReplacer("/", "_", ":", "_").Replace(
		t.Name() + "-" + strings.TrimPrefix(p.base, "http://"))
	_ = os.WriteFile(filepath.Join(dir, name+".stderr.log"), []byte(p.stderr.String()), 0o644)
	if p.base != "" {
		client := &http.Client{Timeout: 3 * time.Second}
		if resp, err := client.Get(p.base + "/debug/flight"); err == nil {
			dump, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			_ = os.WriteFile(filepath.Join(dir, name+".flight.json"), dump, 0o644)
		} else {
			t.Logf("post-mortem: flight dump from %s: %v", p.base, err)
		}
	}
	t.Logf("post-mortem artifacts for %s written to %s", p.base, dir)
}

// postCorpus submits a corpus job and returns its acceptance.
func postCorpus(t *testing.T, base string, req wire.CorpusRequest) wire.JobAccepted {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+"/v1/corpus", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("corpus: %v", err)
	}
	var acc wire.JobAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d, decode err %v", resp.StatusCode, err)
	}
	return acc
}

// pollJob fetches a job's full status (limit 0 = every result).
func pollJob(t *testing.T, base, id string) (wire.JobStatus, int) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s", base, id))
	if err != nil {
		t.Fatalf("job poll: %v", err)
	}
	var st wire.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	code := resp.StatusCode
	resp.Body.Close()
	if err != nil && code == http.StatusOK {
		t.Fatalf("job poll decode: %v", err)
	}
	return st, code
}

// waitJobDone polls until the job reaches a terminal state.
func waitJobDone(t *testing.T, base, id string, timeout time.Duration) wire.JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var st wire.JobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", id, st)
		}
		var code int
		st, code = pollJob(t, base, id)
		if code != http.StatusOK {
			t.Fatalf("job %s: status %d", id, code)
		}
		if st.State == wire.JobDone || st.State == wire.JobFailed || st.State == wire.JobCanceled {
			return st
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestServeEndToEnd is the service smoke test CI runs (make test-e2e): it
// builds the real comet-serve binary with the race detector, starts it on
// a random port, exercises the API over real HTTP, and shuts it down
// gracefully with SIGTERM.
func TestServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e smoke test in -short mode")
	}
	bin := buildServe(t)
	p := startServe(t, bin,
		"-addr", "127.0.0.1:0", // random port
		"-coverage-samples", "200",
		"-drain-timeout", "30s",
	)
	base := p.base

	// Liveness.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}

	// Explain one block; assert a valid wire explanation comes back.
	body, _ := json.Marshal(wire.ExplainRequest{
		Block: "add rcx, rax\nmov rdx, rcx\npop rbx",
		Model: "uica",
	})
	resp, err = http.Post(base+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("explain: %v", err)
	}
	var expl wire.Explanation
	err = json.NewDecoder(resp.Body).Decode(&expl)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d, decode err %v", resp.StatusCode, err)
	}
	if expl.Model != "uica" || expl.Prediction <= 0 || expl.Queries == 0 {
		t.Errorf("implausible explanation: %+v", expl)
	}
	if _, err := expl.Core(); err != nil {
		t.Errorf("served explanation does not convert back to a library value: %v", err)
	}

	// Model discovery: the registry is visible over HTTP.
	var models wire.ModelsResponse
	resp, err = http.Get(base + "/v1/models")
	if err != nil {
		t.Fatalf("models: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&models)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("models: status %d, decode err %v", resp.StatusCode, err)
	}
	names := make(map[string]string)
	for _, m := range models.Models {
		names[m.Name] = m.Spec
	}
	for _, want := range []string{"c", "uica", "mca", "hwsim", "ithemal", "remote"} {
		if _, ok := names[want]; !ok {
			t.Errorf("GET /v1/models missing %q (got %v)", want, names)
		}
	}
	warmed := strings.Join(models.Warmed, ",")
	if !strings.Contains(warmed, "uica@hsw") {
		t.Errorf("warmed specs %q missing uica@hsw after the explain above", warmed)
	}

	// Batch predictions: the remote-model backend endpoint.
	body, _ = json.Marshal(wire.PredictRequest{
		Blocks: []string{"add rcx, rax\nmov rdx, rcx", "imul rax, rbx"},
		Model:  "uica",
	})
	resp, err = http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("predict: %v", err)
	}
	var pred wire.PredictResponse
	err = json.NewDecoder(resp.Body).Decode(&pred)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d, decode err %v", resp.StatusCode, err)
	}
	if pred.Spec != "uica@hsw" || pred.Model != "uica" || len(pred.Predictions) != 2 ||
		pred.Predictions[0] <= 0 || pred.Predictions[1] <= 0 {
		t.Errorf("implausible predict response: %+v", pred)
	}

	// Submit a two-block corpus job and poll it to completion; it must
	// also appear in the jobs listing.
	acc := postCorpus(t, base, wire.CorpusRequest{
		Blocks: []string{"add rcx, rax\nmov rdx, rcx", "imul rax, rbx\nimul rax, rcx"},
		Model:  "uica",
	})
	st := waitJobDone(t, base, acc.ID, 2*time.Minute)
	if st.State != wire.JobDone || st.Done != 2 || st.Failed != 0 || len(st.Results) != 2 {
		t.Fatalf("job did not complete cleanly: %+v", st)
	}
	var list wire.JobsResponse
	resp, err = http.Get(base + "/v1/jobs")
	if err != nil {
		t.Fatalf("jobs list: %v", err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("jobs list: status %d, decode err %v", resp.StatusCode, err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != acc.ID || list.Jobs[0].State != wire.JobDone {
		t.Errorf("GET /v1/jobs = %+v, want the finished job %s", list.Jobs, acc.ID)
	}

	// Metrics expose the traffic we just generated.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	var metrics bytes.Buffer
	_, _ = metrics.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`comet_requests_total{route="explain",code="200"} 1`,
		`comet_requests_total{route="corpus",code="202"} 1`,
		"comet_explanations_computed_total",
		"comet_job_queue_depth 0",
	} {
		if !strings.Contains(metrics.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// Graceful shutdown on SIGTERM: clean exit, no panic, no race report.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		if err != nil {
			t.Fatalf("server exited uncleanly: %v\n%s", err, p.stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !strings.Contains(p.stderr.String(), "comet-serve: bye") {
		t.Errorf("missing drain farewell in stderr:\n%s", p.stderr.String())
	}
}

// TestServeIngestELF is the ingestion byte-identity criterion (make
// test-e2e): uploading an x86-64 ELF binary to a live comet-serve and
// extracting the same binary client-side with `comet -corpus elf:`
// produce byte-identical per-block explanations (cache accounting
// aside), each through its own content-addressed store.
func TestServeIngestELF(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e ingestion test in -short mode")
	}
	storeRoot := os.Getenv("COMET_E2E_STORE_DIR")
	if storeRoot == "" {
		storeRoot = t.TempDir()
	}
	serveStore := filepath.Join(storeRoot, "ingest-serve")
	cliStore := filepath.Join(storeRoot, "ingest-cli")
	for _, dir := range []string{serveStore, cliStore} {
		if err := os.RemoveAll(dir); err != nil {
			t.Fatal(err)
		}
	}

	fixture, err := filepath.Abs("../../internal/ingest/testdata/fixture.elf")
	if err != nil {
		t.Fatal(err)
	}
	elfData, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}

	// Server side: upload the binary; the server extracts its blocks and
	// runs them as an ordinary corpus job. Every config knob that feeds
	// the explanation is pinned so the CLI run below can match it.
	p := startServe(t, buildServe(t),
		"-addr", "127.0.0.1:0",
		"-store-dir", serveStore,
		"-drain-timeout", "30s",
	)
	resp, err := http.Post(
		p.base+"/v1/corpus?model=uica&arch=hsw&seed=1&coverage=150&workers=1",
		"application/x-elf", bytes.NewReader(elfData))
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	var acc wire.JobAccepted
	err = json.NewDecoder(resp.Body).Decode(&acc)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("upload: status %d, decode err %v", resp.StatusCode, err)
	}
	st := waitJobDone(t, p.base, acc.ID, 4*time.Minute)
	if st.State != wire.JobDone || st.Failed != 0 || st.Done == 0 {
		t.Fatalf("upload job did not complete cleanly: %+v\nstderr:\n%s", st, p.stderr.String())
	}

	// CLI side: the real comet binary extracts the same ELF itself.
	cometBin := filepath.Join(t.TempDir(), "comet")
	build := exec.Command("go", "build", "-race", "-o", cometBin, "../comet")
	build.Env = os.Environ()
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building comet: %v\n%s", err, out)
	}
	cli := exec.Command(cometBin,
		"-model", "uica",
		"-corpus", "elf:"+fixture, "-json",
		"-seed", "1", "-coverage-samples", "150",
		"-workers", "1",
		"-store", cliStore,
	)
	var cliOut, cliErr bytes.Buffer
	cli.Stdout, cli.Stderr = &cliOut, &cliErr
	if err := cli.Run(); err != nil {
		t.Fatalf("comet -corpus elf: %v\nstderr:\n%s", err, cliErr.String())
	}
	var cliResults []wire.CorpusResult
	dec := json.NewDecoder(&cliOut)
	for dec.More() {
		var r wire.CorpusResult
		if err := dec.Decode(&r); err != nil {
			t.Fatalf("decoding CLI output: %v", err)
		}
		cliResults = append(cliResults, r)
	}
	if len(cliResults) != len(st.Results) {
		t.Fatalf("CLI extracted %d blocks, server extracted %d", len(cliResults), len(st.Results))
	}

	// Byte identity per block index, cache-warmth accounting aside.
	normalize := func(results []wire.CorpusResult) map[int][]byte {
		m := make(map[int][]byte, len(results))
		for _, r := range results {
			if r.Explanation == nil {
				t.Fatalf("result %d has no explanation: error %q", r.Index, r.Error)
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
	got, want := normalize(cliResults), normalize(st.Results)
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("block %d: CLI explanation differs from server upload:\n   cli %s\nserver %s", i, got[i], want[i])
		}
	}

	// Graceful exit leaves the server store clean.
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p.exited:
		if err != nil {
			t.Fatalf("server exited uncleanly: %v\n%s", err, p.stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("server did not exit after SIGTERM")
	}
}

// TestServeKillResumeByteIdentical is the durability acceptance
// criterion: a comet-serve SIGKILLed mid-corpus-job and restarted with
// the same -store-dir resumes the job under its original ID and produces
// results byte-identical (per block, cache accounting aside) to an
// uninterrupted run at the same seed.
//
// The store directory defaults to a test temp dir; set
// COMET_E2E_STORE_DIR (as make test-e2e does) to keep the artifacts
// around for `make verify-store`.
func TestServeKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping e2e kill/resume test in -short mode")
	}
	storeRoot := os.Getenv("COMET_E2E_STORE_DIR")
	if storeRoot == "" {
		storeRoot = t.TempDir()
	}
	storeDir := filepath.Join(storeRoot, "kill-resume")
	if err := os.RemoveAll(storeDir); err != nil {
		t.Fatal(err)
	}

	bin := buildServe(t)
	args := func() []string {
		return []string{
			"-addr", "127.0.0.1:0",
			"-store-dir", storeDir,
			"-checkpoint-every", "1",
			"-coverage-samples", "300",
			"-drain-timeout", "30s",
		}
	}
	req := wire.CorpusRequest{
		Blocks: []string{
			"add rcx, rax\nmov rdx, rcx\npop rbx",
			"imul rax, rbx\nimul rax, rcx",
			"mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]",
			"vaddss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
			"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
			"imul rdx, rsi\nadd rdx, rdi\nmov rax, rdx",
		},
		Model:   "uica",
		Workers: 1,
	}

	// Process 1: submit, wait for the first completed block, SIGKILL.
	p1 := startServe(t, bin, args()...)
	acc := postCorpus(t, p1.base, req)
	deadline := time.Now().Add(2 * time.Minute)
	var atKill wire.JobStatus
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job made no progress before the kill: %+v", atKill)
		}
		atKill, _ = pollJob(t, p1.base, acc.ID)
		if atKill.Done >= 1 {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := p1.cmd.Process.Kill(); err != nil { // SIGKILL: no drain, no cleanup
		t.Fatal(err)
	}
	<-p1.exited
	if atKill.Done >= len(req.Blocks) {
		t.Logf("note: job finished (%d/%d) before the kill; exercising the restore-finished path instead of resume", atKill.Done, len(req.Blocks))
	}

	// Process 2: same store directory; the job resumes under its
	// original ID and runs to completion.
	p2 := startServe(t, bin, args()...)
	resumed := waitJobDone(t, p2.base, acc.ID, 4*time.Minute)
	if resumed.State != wire.JobDone || resumed.Done != len(req.Blocks) || resumed.Failed != 0 {
		t.Fatalf("resumed job did not complete cleanly: %+v\nstderr:\n%s", resumed, p2.stderr.String())
	}
	if len(resumed.Results) != len(req.Blocks) {
		t.Fatalf("resumed job returned %d results, want %d", len(resumed.Results), len(req.Blocks))
	}

	// Reference: the identical request, uninterrupted, on the restarted
	// server. Deterministic per-block seeding makes it comparable.
	ref := waitJobDone(t, p2.base, postCorpus(t, p2.base, req).ID, 4*time.Minute)
	if ref.State != wire.JobDone || ref.Done != len(req.Blocks) {
		t.Fatalf("reference job did not complete: %+v", ref)
	}

	normalize := func(results []wire.CorpusResult) map[int][]byte {
		m := make(map[int][]byte, len(results))
		for _, r := range results {
			if r.Explanation == nil {
				t.Fatalf("result %d has no explanation: %+v", r.Index, r)
			}
			// The explanation content must be bit-identical; the cache
			// accounting legitimately differs with cache warmth.
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
	got, want := normalize(resumed.Results), normalize(ref.Results)
	for i := 0; i < len(req.Blocks); i++ {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("block %d: resumed result differs from uninterrupted run:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// The restart reported what it restored.
	if !strings.Contains(p2.stderr.String(), "resuming 1 interrupted job") &&
		!strings.Contains(p2.stderr.String(), "restored") {
		t.Errorf("restart did not report restoring state:\n%s", p2.stderr.String())
	}

	// Graceful exit leaves the store clean for make verify-store.
	if err := p2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-p2.exited:
		if err != nil {
			t.Fatalf("restarted server exited uncleanly: %v\n%s", err, p2.stderr.String())
		}
	case <-time.After(time.Minute):
		t.Fatal("restarted server did not exit after SIGTERM")
	}
}
