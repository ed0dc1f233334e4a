package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/wire"
)

// The tests drive the real command: the test binary re-executes itself
// with cliEnv set, and TestMain then runs main with the given arguments
// instead of the test suite.
const cliEnv = "COMET_CLI_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(cliEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// fastArgs keeps CLI explanations on the analytical model quick.
var fastArgs = []string{"-model", "c", "-coverage-samples", "300", "-workers", "2"}

// runComet runs the comet command to completion and returns its stdout
// and stderr; a non-zero exit fails the test.
func runComet(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append(append([]string{}, fastArgs...), args...)...)
	cmd.Env = append(os.Environ(), cliEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		t.Fatalf("comet %s: %v\nstderr:\n%s", strings.Join(args, " "), err, errOut.String())
	}
	return out.String(), errOut.String()
}

// blockLines indexes the per-block lines of a -json corpus run by block
// index, keeping each line's exact bytes (results stream in completion
// order, so only the per-index bytes are comparable across runs).
func blockLines(t *testing.T, stdout string) map[int]string {
	t.Helper()
	lines := make(map[int]string)
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		var r wire.CorpusResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("decoding result line %q: %v", line, err)
		}
		if r.Explanation == nil {
			t.Fatalf("block %d failed: %s", r.Index, r.Error)
		}
		if _, dup := lines[r.Index]; dup {
			t.Fatalf("block %d emitted twice", r.Index)
		}
		lines[r.Index] = line
	}
	return lines
}

// normalized re-encodes each block's result with the cache-warmth
// counters zeroed: cache_hits and model_calls depend on what the
// prediction cache held, everything else on the inputs alone.
func normalized(t *testing.T, lines map[int]string) map[int]string {
	t.Helper()
	out := make(map[int]string, len(lines))
	for i, line := range lines {
		var r wire.CorpusResult
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatal(err)
		}
		r.Explanation.CacheHits, r.Explanation.ModelCalls = 0, 0
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func sameLines(t *testing.T, what string, got, want map[int]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, want %d", what, len(got), len(want))
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("%s: block %d differs:\n got %s\nwant %s", what, i, got[i], w)
		}
	}
}

func wantContains(t *testing.T, what, text, sub string) {
	t.Helper()
	if !strings.Contains(text, sub) {
		t.Errorf("%s: missing %q in:\n%s", what, sub, text)
	}
}

// TestCorpusStoreServesRepeatRun: a second -store run over the same
// corpus is answered entirely from disk, with byte-identical per-block
// output; only a run over a store that holds blocks reports resuming.
func TestCorpusStoreServesRepeatRun(t *testing.T) {
	store := t.TempDir()
	out1, err1 := runComet(t, "-corpus", "gen:8", "-json", "-store", store)
	wantContains(t, "first run", err1, "store:   0 blocks served from disk, 8 computed and persisted")
	if strings.Contains(err1, "resuming") {
		t.Errorf("a run over an empty store reports resuming:\n%s", err1)
	}
	out2, err2 := runComet(t, "-corpus", "gen:8", "-json", "-store", store)
	wantContains(t, "second run", err2, "comet: resuming: 8/8 blocks already in the store")
	wantContains(t, "second run", err2, "store:   8 blocks served from disk, 0 computed and persisted")
	sameLines(t, "repeat run", blockLines(t, out2), blockLines(t, out1))
}

// TestCorpusStoreResume: a run interrupted after half the corpus is
// resumed from the store, and the union matches an uninterrupted run
// without a store.
func TestCorpusStoreResume(t *testing.T) {
	store := t.TempDir()
	runComet(t, "-corpus", "gen:4", "-json", "-store", store)
	resumed, errText := runComet(t, "-corpus", "gen:8", "-json", "-store", store)
	wantContains(t, "resumed run", errText, "comet: resuming: 4/8 blocks already in the store")
	wantContains(t, "resumed run", errText, "store:   4 blocks served from disk, 4 computed and persisted")
	plain, _ := runComet(t, "-corpus", "gen:8", "-json")
	sameLines(t, "resumed vs uninterrupted", normalized(t, blockLines(t, resumed)), normalized(t, blockLines(t, plain)))
}

// TestSingleBlockStore: a repeated single-block -store invocation is
// served from disk and prints the same explanation.
func TestSingleBlockStore(t *testing.T) {
	store := t.TempDir()
	block := filepath.Join(t.TempDir(), "block.s")
	if err := os.WriteFile(block, []byte("add rcx, rax\nmov rdx, rcx\npop rbx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out1, err1 := runComet(t, "-in", block, "-json", "-store", store)
	if strings.Contains(err1, "served from store") {
		t.Errorf("first run claims a store hit:\n%s", err1)
	}
	out2, err2 := runComet(t, "-in", block, "-json", "-store", store)
	wantContains(t, "second run", err2, "comet: explanation served from store "+store)
	if out1 != out2 {
		t.Errorf("stored explanation differs:\n got %s\nwant %s", out2, out1)
	}
	// -profile still reports the store write of a computed explanation.
	prof, _ := runComet(t, "-in", block, "-store", t.TempDir(), "-profile")
	wantContains(t, "profile", prof, "artifact-store write")
}

// TestRejectsInvalidSettings: a negative coverage pool or ε exits with
// the validation error instead of panicking or falling back to the
// default.
func TestRejectsInvalidSettings(t *testing.T) {
	block := filepath.Join(t.TempDir(), "block.s")
	if err := os.WriteFile(block, []byte("add rcx, rax\nmov rdx, rcx\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for flag, want := range map[string]string{
		"-coverage-samples": "coverage samples -5 is below 1",
		"-epsilon":          "epsilon -5 is not finite and positive",
	} {
		cmd := exec.Command(os.Args[0], append(append([]string{}, fastArgs...), "-in", block, flag, "-5")...)
		cmd.Env = append(os.Environ(), cliEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("comet %s -5 succeeded:\n%s", flag, out)
		}
		wantContains(t, flag, string(out), want)
	}
}

// startWorkers runs two in-process comet-serve workers for -cluster.
func startWorkers(t *testing.T) string {
	t.Helper()
	var urls []string
	for range 2 {
		s := service.New(service.Config{})
		s.SetReady()
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_ = s.Shutdown(ctx)
		})
		urls = append(urls, ts.URL)
	}
	return strings.Join(urls, ",")
}

// TestClusterServedFromLocalStore: a store filled by a local run serves
// a -cluster run over the same corpus without leasing a single block.
func TestClusterServedFromLocalStore(t *testing.T) {
	store := t.TempDir()
	local, _ := runComet(t, "-corpus", "gen:8", "-json", "-store", store)
	clustered, errText := runComet(t, "-corpus", "gen:8", "-json", "-store", store, "-cluster", startWorkers(t))
	wantContains(t, "cluster run", errText, "cluster: 0 leases dispatched")
	wantContains(t, "cluster run", errText, "store:   8 blocks served from disk, 0 computed and persisted")
	sameLines(t, "cluster vs local", blockLines(t, clustered), blockLines(t, local))
}

// TestClusterResumesLocalStore: a -cluster run computes only the blocks
// the store lacks and persists them, so a later local run is served
// entirely from disk; all three runs agree with an uninterrupted run.
func TestClusterResumesLocalStore(t *testing.T) {
	store := t.TempDir()
	runComet(t, "-corpus", "gen:4", "-json", "-store", store)
	clustered, errText := runComet(t, "-corpus", "gen:8", "-json", "-store", store, "-cluster", startWorkers(t))
	wantContains(t, "cluster run", errText, "comet: resuming: 4/8 blocks already in the store")
	wantContains(t, "cluster run", errText, "store:   4 blocks served from disk, 4 computed and persisted")
	if strings.Contains(errText, "cluster: 0 leases dispatched") {
		t.Errorf("cluster run leased nothing:\n%s", errText)
	}
	warm, warmErr := runComet(t, "-corpus", "gen:8", "-json", "-store", store)
	wantContains(t, "warm local run", warmErr, "store:   8 blocks served from disk, 0 computed and persisted")
	sameLines(t, "warm local vs cluster", blockLines(t, warm), blockLines(t, clustered))
	plain, _ := runComet(t, "-corpus", "gen:8", "-json")
	sameLines(t, "cluster vs uninterrupted", normalized(t, blockLines(t, clustered)), normalized(t, blockLines(t, plain)))
}
