package cluster

// Scheduler tests against scripted fake workers: the failure matrix
// (worker death, lease timeout, bounded retries, stragglers) is
// exercised with deterministic HTTP stand-ins so every path is fast and
// reliable. End-to-end determinism against real comet-serve processes
// lives in cmd/comet-serve's cluster e2e test.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/wire"
)

// fastOpts keeps scheduler test iterations tight.
func fastOpts() Options {
	return Options{
		LeaseBlocks:    2,
		LeaseTimeout:   2 * time.Second,
		LeaseRetries:   3,
		ProbeBackoff:   10 * time.Millisecond,
		StragglerAfter: 10 * time.Second, // off unless a test shrinks it
		ReadyTimeout:   2 * time.Second,
		Tick:           5 * time.Millisecond,
	}
}

// fakeWorker is a scripted shard endpoint. Its explanation "bytes" are a
// pure function of (block, seed), so any two fake workers agree — the
// same property real workers get from deterministic seeding.
type fakeWorker struct {
	ts *httptest.Server
	// shards counts shard requests; behave, if non-nil, may hijack a
	// request (return false to have the handler produce the normal
	// deterministic response).
	shards atomic.Int64
	behave func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool
}

func newFakeWorker(t *testing.T, behave func(http.ResponseWriter, *http.Request, wire.ShardRequest) bool) *fakeWorker {
	t.Helper()
	f := &fakeWorker{behave: behave}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/shard", func(w http.ResponseWriter, r *http.Request) {
		// Speak the protocol as comet-serve does: the request body's format
		// follows its Content-Type, the answer's follows Accept.
		req, err := decodeShardRequest(r)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.shards.Add(1)
		if f.behave != nil && f.behave(w, r, req) {
			return
		}
		resp := wire.ShardResponse{JobID: req.JobID, Lease: req.Lease}
		for _, b := range req.Blocks {
			resp.Results = append(resp.Results, fakeResult(req.Config.Seed, b))
		}
		if strings.Contains(r.Header.Get("Accept"), wire.FrameContentType) {
			frame, err := wire.EncodeBinary(&resp)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", wire.FrameContentType)
			_, _ = w.Write(frame)
			return
		}
		_ = json.NewEncoder(w).Encode(resp)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

// decodeShardRequest reads a shard request body, framed or JSON by its
// Content-Type.
func decodeShardRequest(r *http.Request) (wire.ShardRequest, error) {
	var req wire.ShardRequest
	if r.Header.Get("Content-Type") != wire.FrameContentType {
		err := json.NewDecoder(r.Body).Decode(&req)
		return req, err
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return req, err
	}
	msg, err := wire.DecodeBinary(body)
	if err != nil {
		return req, err
	}
	framed, ok := msg.(*wire.ShardRequest)
	if !ok {
		return req, fmt.Errorf("shard body frame carries %T", msg)
	}
	return *framed, nil
}

// fakeResult derives a deterministic result from a shard block at the
// seed a real worker would run it under: the lease's base seed and the
// block's corpus index.
func fakeResult(base int64, b wire.ShardBlock) wire.CorpusResult {
	seed := core.BlockSeed(base, b.Index)
	return wire.CorpusResult{
		Index: b.Index,
		Block: b.Block,
		Explanation: &wire.Explanation{
			Block:      b.Block,
			Model:      "fake",
			Prediction: float64(seed%1000) + float64(b.Index),
		},
	}
}

func testJob(n int) Job {
	blocks := make([]string, n)
	for i := range blocks {
		blocks[i] = fmt.Sprintf("add rcx, rax ; %d", i)
	}
	return Job{
		ID:     "job-test",
		Spec:   "uica@hsw",
		Config: wire.ConfigSnapshot{Epsilon: 0.5, CoverageSamples: 100, Seed: 7},
		Blocks: blocks,
	}
}

// collect runs the job and gathers emitted results by index.
func collect(t *testing.T, c *Coordinator, job Job) (map[int]Result, error) {
	t.Helper()
	got := make(map[int]Result)
	err := c.Run(context.Background(), job, func(res Result) {
		if _, dup := got[res.Index]; dup {
			t.Errorf("block %d emitted twice", res.Index)
		}
		got[res.Index] = res
	})
	return got, err
}

// TestRunShardsAllBlocks: the happy path — every block emitted exactly
// once, with the coordinator-derived per-block seed, across two workers.
func TestRunShardsAllBlocks(t *testing.T) {
	w1 := newFakeWorker(t, nil)
	w2 := newFakeWorker(t, nil)
	opts := fastOpts()
	c := New(NewPool([]string{w1.ts.URL, w2.ts.URL}, opts), opts)
	job := testJob(10)

	got, err := collect(t, c, job)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("emitted %d blocks, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		res, ok := got[i]
		if !ok {
			t.Fatalf("block %d never emitted", i)
		}
		// The fake worker folded BlockSeed(lease base, index) into the
		// prediction, so a wrong base seed or index is visible here.
		want := fakeResult(job.Config.Seed, wire.ShardBlock{Index: i, Block: job.Blocks[i]})
		if res.Explanation == nil || res.Explanation.Prediction != want.Explanation.Prediction {
			t.Errorf("block %d: got %+v, want prediction %v", i, res.Explanation, want.Explanation.Prediction)
		}
		if res.Worker == "" {
			t.Errorf("block %d has no worker attribution", i)
		}
	}
	if w1.shards.Load() == 0 || w2.shards.Load() == 0 {
		t.Errorf("work was not spread: w1=%d w2=%d shards", w1.shards.Load(), w2.shards.Load())
	}
	if got := c.Stats().BlocksDone.Load(); got != 10 {
		t.Errorf("stats.BlocksDone = %d, want 10", got)
	}
}

// TestWorkerDeathReleases: a worker that dies mid-lease (connection
// errors) has its leases re-dispatched to the live worker, and the job
// still completes with every block.
func TestWorkerDeathReleases(t *testing.T) {
	dead := newFakeWorker(t, nil)
	live := newFakeWorker(t, nil)
	// Kill the "dead" worker's listener after readiness has been probed
	// by pointing its behavior at a hard close.
	var killed atomic.Bool
	dead.behave = func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		if killed.Load() {
			panic(http.ErrAbortHandler) // slam the connection: worker death mid-lease
		}
		killed.Store(true)
		panic(http.ErrAbortHandler)
	}
	opts := fastOpts()
	c := New(NewPool([]string{dead.ts.URL, live.ts.URL}, opts), opts)

	got, err := collect(t, c, testJob(8))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 8 {
		t.Fatalf("emitted %d blocks, want 8", len(got))
	}
	for i, res := range got {
		if res.Error != "" {
			t.Errorf("block %d failed: %s", i, res.Error)
		}
	}
	if c.Stats().LeasesReleased.Load() == 0 {
		t.Error("no lease was re-leased despite a dying worker")
	}
	if c.Stats().ShardErrors.Load() == 0 {
		t.Error("no shard error recorded despite a dying worker")
	}
}

// TestLeaseTimeoutReleases: a hung worker trips the lease timeout and
// the lease lands on the live worker.
func TestLeaseTimeoutReleases(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	slow := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		select {
		case <-hang:
		case <-r.Context().Done():
		}
		return true
	})
	live := newFakeWorker(t, nil)
	opts := fastOpts()
	opts.LeaseTimeout = 100 * time.Millisecond
	c := New(NewPool([]string{slow.ts.URL, live.ts.URL}, opts), opts)

	got, err := collect(t, c, testJob(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("emitted %d blocks, want 6", len(got))
	}
	for i, res := range got {
		if res.Error != "" {
			t.Errorf("block %d failed: %s", i, res.Error)
		}
	}
	if c.Stats().LeasesReleased.Load() == 0 {
		t.Error("hung worker never tripped a lease timeout")
	}
}

// TestBoundedRetriesAbandon: when every dispatch fails, each lease is
// retried exactly LeaseRetries times and then abandoned — the run
// terminates with ErrLeasesAbandoned and the blocks are NOT emitted
// (they were never computed; the caller's fallback engine owns them).
func TestBoundedRetriesAbandon(t *testing.T) {
	broken := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		http.Error(w, `{"error":"shard exploded"}`, http.StatusInternalServerError)
		return true
	})
	opts := fastOpts()
	opts.LeaseRetries = 2
	opts.LeaseBlocks = 4
	c := New(NewPool([]string{broken.ts.URL}, opts), opts)

	got, err := collect(t, c, testJob(4))
	if !errors.Is(err, ErrLeasesAbandoned) {
		t.Fatalf("err = %v, want ErrLeasesAbandoned", err)
	}
	if len(got) != 0 {
		t.Fatalf("emitted %d blocks for abandoned leases, want 0: %v", len(got), got)
	}
	// One lease of 4 blocks, 2 attempts.
	if got := c.Stats().LeasesDispatched.Load(); got != 2 {
		t.Errorf("dispatched %d times, want exactly LeaseRetries=2", got)
	}
}

// TestDuplicateResultIndicesRejected: a worker answering the right
// number of results but duplicating an index must fail validation — a
// silent accept would lose the un-answered block.
func TestDuplicateResultIndicesRejected(t *testing.T) {
	var saneWorker atomic.Bool
	buggy := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		if saneWorker.Load() || len(req.Blocks) < 2 {
			return false
		}
		resp := wire.ShardResponse{JobID: req.JobID, Lease: req.Lease}
		dup := fakeResult(req.Config.Seed, req.Blocks[0])
		for range req.Blocks {
			resp.Results = append(resp.Results, dup)
		}
		_ = json.NewEncoder(w).Encode(resp)
		saneWorker.Store(true) // behave on the retry
		return true
	})
	opts := fastOpts()
	opts.LeaseBlocks = 2
	c := New(NewPool([]string{buggy.ts.URL}, opts), opts)

	got, err := collect(t, c, testJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("emitted %d blocks, want 2 (duplicate response must be retried, not accepted)", len(got))
	}
	if c.Stats().ShardErrors.Load() == 0 {
		t.Error("duplicate-index response was not counted as a shard error")
	}
}

// TestRejectedLeaseKeepsFrames: a worker's 400 to a framed lease is an
// ordinary failed dispatch. The retry and every later lease still travel
// as frames; nothing downgrades the coordinator to JSON.
func TestRejectedLeaseKeepsFrames(t *testing.T) {
	var mu sync.Mutex
	var ctypes []string
	w := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		mu.Lock()
		ctypes = append(ctypes, r.Header.Get("Content-Type"))
		first := len(ctypes) == 1
		mu.Unlock()
		if first {
			http.Error(w, `{"error":"lease rejected"}`, http.StatusBadRequest)
			return true
		}
		return false
	})
	opts := fastOpts()
	c := New(NewPool([]string{w.ts.URL}, opts), opts)

	got, err := collect(t, c, testJob(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("emitted %d blocks, want 6", len(got))
	}
	mu.Lock()
	defer mu.Unlock()
	// Three leases of two blocks, plus the retry of the rejected one.
	if len(ctypes) != 4 {
		t.Errorf("worker saw %d leases, want 4: %v", len(ctypes), ctypes)
	}
	for i, ct := range ctypes {
		if ct != wire.FrameContentType {
			t.Errorf("lease %d sent as %q, want %q (all: %v)", i, ct, wire.FrameContentType, ctypes)
		}
	}
}

// TestStragglerRedispatch: with the pending queue dry and an idle
// worker, an in-flight lease older than StragglerAfter is duplicated;
// the fast copy wins and the job finishes without waiting out the hang.
func TestStragglerRedispatch(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	// The fast worker holds its first lease until the slow one has one,
	// so it cannot finish both leases before the slow worker is ready.
	slowLeased := make(chan struct{})
	var hangs, fastLeases atomic.Int64
	slow := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		if hangs.Add(1) == 1 {
			close(slowLeased)
			select { // hang only the first lease; stay "alive" otherwise
			case <-release:
			case <-r.Context().Done():
			}
			return true
		}
		return false
	})
	fast := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		if fastLeases.Add(1) == 1 {
			select {
			case <-slowLeased:
			case <-time.After(5 * time.Second):
				t.Error("the slow worker never received a lease")
			}
		}
		return false
	})
	opts := fastOpts()
	opts.LeaseBlocks = 3
	opts.StragglerAfter = 50 * time.Millisecond
	opts.LeaseTimeout = 30 * time.Second // only the straggler path can rescue
	c := New(NewPool([]string{slow.ts.URL, fast.ts.URL}, opts), opts)

	done := make(chan struct{})
	var got map[int]Result
	var err error
	go func() {
		defer close(done)
		got, err = collect(t, c, testJob(6))
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler re-dispatch never rescued the hung lease")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 {
		t.Fatalf("emitted %d blocks, want 6", len(got))
	}
	if c.Stats().StragglerDispatches.Load() == 0 {
		t.Error("no straggler re-dispatch recorded")
	}

	// The hung worker's abandoned dispatch must hand its inflight slot
	// back once Run's context cancels it — the pool outlives the run, and
	// a leaked slot would make the worker undispatchable for every later
	// job.
	deadline := time.Now().Add(5 * time.Second)
	for {
		stuck := 0
		for _, w := range c.Pool().Snapshot() {
			stuck += w.Inflight
		}
		if stuck == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inflight slots leaked after Run returned: %+v", c.Pool().Snapshot())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestNoWorkers: an empty pool fails fast; a pool of unreachable workers
// fails after ReadyTimeout. Both return ErrNoWorkers so callers can fall
// back to local execution.
func TestNoWorkers(t *testing.T) {
	opts := fastOpts()
	c := New(NewPool(nil, opts), opts)
	if err := c.Run(context.Background(), testJob(2), func(Result) {}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("empty pool: err = %v, want ErrNoWorkers", err)
	}

	opts = fastOpts()
	opts.ReadyTimeout = 200 * time.Millisecond
	c = New(NewPool([]string{"http://127.0.0.1:1"}, opts), opts)
	start := time.Now()
	err := c.Run(context.Background(), testJob(2), func(Result) {})
	if !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("unreachable pool: err = %v, want ErrNoWorkers", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("starvation took %v to surface, want about ReadyTimeout", elapsed)
	}
}

// TestSkipAndPartition: skipped indices are never leased (the resume
// path), and leases chunk the remaining blocks with their original
// indices and seeds.
func TestSkipAndPartition(t *testing.T) {
	var mu sync.Mutex
	leased := make(map[int]bool)
	w := newFakeWorker(t, func(_ http.ResponseWriter, _ *http.Request, req wire.ShardRequest) bool {
		mu.Lock()
		for _, b := range req.Blocks {
			leased[b.Index] = true
		}
		mu.Unlock()
		return false
	})
	opts := fastOpts()
	c := New(NewPool([]string{w.ts.URL}, opts), opts)
	job := testJob(9)
	job.Skip = func(i int) bool { return i%3 == 0 }

	got, err := collect(t, c, job)
	if err != nil {
		t.Fatal(err)
	}
	var wantIdx []int
	for i := 0; i < 9; i++ {
		if i%3 != 0 {
			wantIdx = append(wantIdx, i)
		}
	}
	var gotIdx []int
	for i := range got {
		gotIdx = append(gotIdx, i)
	}
	sort.Ints(gotIdx)
	if fmt.Sprint(gotIdx) != fmt.Sprint(wantIdx) {
		t.Errorf("emitted indices %v, want %v", gotIdx, wantIdx)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 9; i += 3 {
		if leased[i] {
			t.Errorf("skipped block %d was leased", i)
		}
	}
}

// TestDynamicJoinAndExpiry: a worker joined via the pool becomes
// dispatchable, and one whose heartbeats stop is not.
func TestDynamicJoinAndExpiry(t *testing.T) {
	w := newFakeWorker(t, nil)
	opts := fastOpts()
	opts.HeartbeatTTL = 80 * time.Millisecond
	pool := NewPool(nil, opts)
	c := New(pool, opts)
	if _, _, err := pool.Join(w.ts.URL, 2); err != nil {
		t.Fatal(err)
	}

	got, err := collect(t, c, testJob(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 {
		t.Fatalf("emitted %d blocks, want 4", len(got))
	}

	// Let the heartbeat lapse: the worker must stop being dispatchable
	// and the next run starves out.
	time.Sleep(120 * time.Millisecond)
	opts2 := fastOpts()
	opts2.ReadyTimeout = 150 * time.Millisecond
	c2 := New(pool, opts2)
	if err := c2.Run(context.Background(), testJob(2), func(Result) {}); !errors.Is(err, ErrNoWorkers) {
		t.Fatalf("expired worker still served: err = %v, want ErrNoWorkers", err)
	}

	// A fresh heartbeat revives it.
	if _, _, err := pool.Join(w.ts.URL, 1); err != nil {
		t.Fatal(err)
	}
	got, err = collect(t, c, testJob(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("revived worker emitted %d blocks, want 2", len(got))
	}
}

// TestHeartbeatKeepsWorkerJoined: a worker heartbeating through
// Heartbeat paces itself by the TTL its join returns, so it stays
// dispatchable for several TTLs with no interval of its own, and expires
// once its context is canceled.
func TestHeartbeatKeepsWorkerJoined(t *testing.T) {
	const ttl = 200 * time.Millisecond
	pool := NewPool(nil, Options{HeartbeatTTL: ttl})
	coord := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req wire.JoinRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		id, ttl, err := pool.Join(req.URL, req.Capacity)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		json.NewEncoder(w).Encode(wire.JoinResponse{Worker: id, TTLSeconds: ttl.Seconds()})
	}))
	defer coord.Close()
	worker := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	defer worker.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Heartbeat(ctx, coord.URL, worker.URL, 1)
	}()

	waitFor := func(what string, ok func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !ok() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, pool.Snapshot())
			}
			pool.probe(http.DefaultClient)
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitFor("the worker to join and turn ready", func() bool { return pool.readyCount() == 1 })
	for end := time.Now().Add(time.Second); time.Now().Before(end); time.Sleep(10 * time.Millisecond) {
		if pool.readyCount() != 1 {
			t.Fatalf("heartbeating worker lapsed: %+v", pool.Snapshot())
		}
	}

	cancel()
	<-done
	waitFor("the worker to expire", func() bool {
		ws := pool.Snapshot()
		return len(ws) == 1 && ws[0].State == "expired"
	})
}

// TestRunContextCancel: canceling the run's context stops the scheduler
// promptly.
func TestRunContextCancel(t *testing.T) {
	hang := make(chan struct{})
	defer close(hang)
	w := newFakeWorker(t, func(w http.ResponseWriter, r *http.Request, req wire.ShardRequest) bool {
		select {
		case <-hang:
		case <-r.Context().Done():
		}
		return true
	})
	opts := fastOpts()
	c := New(NewPool([]string{w.ts.URL}, opts), opts)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := c.Run(ctx, testJob(4), func(Result) {})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}
