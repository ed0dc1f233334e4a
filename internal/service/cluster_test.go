package service

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/wire"
)

// TestReadyzGatesOnWarmup: /readyz is 503 until SetReady, 200 after, and
// 503 again while draining — while /healthz stays a pure liveness probe.
func TestReadyzGatesOnWarmup(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp := getJSON(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cold /readyz status %d, want 503", resp.StatusCode)
	}
	resp = getJSON(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("cold /healthz status %d, want 200 (liveness is not readiness)", resp.StatusCode)
	}

	s.SetReady()
	var body map[string]string
	resp = getJSON(t, ts.URL+"/readyz", &body)
	if resp.StatusCode != http.StatusOK || body["status"] != "ready" {
		t.Errorf("ready /readyz = %d %v, want 200 ready", resp.StatusCode, body)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp = getJSON(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz status %d, want 503", resp.StatusCode)
	}
}

// shardConfigFor reproduces the effective config a uica corpus job
// built from the given overrides runs under — what a coordinator puts on
// the wire.
func shardConfigFor(t *testing.T, s *Server, overrides *wire.ConfigOverrides) wire.ConfigSnapshot {
	t.Helper()
	return shardConfigForModel(t, s, "uica", overrides)
}

// shardConfigForModel is shardConfigFor for any model spec.
func shardConfigForModel(t *testing.T, s *Server, model string, overrides *wire.ConfigOverrides) wire.ConfigSnapshot {
	t.Helper()
	entry, err := s.models.get(model, "hsw", true)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.ApplyOptions(s.cfg.Base, requestOptions(entry, overrides)...)
	return wire.SnapshotConfig(cfg)
}

// normalizeAccounting zeroes the cache-warmth-dependent counters; all
// other explanation bytes must match exactly.
func normalizeAccounting(t *testing.T, res []wire.CorpusResult) map[int]string {
	t.Helper()
	out := make(map[int]string, len(res))
	for _, r := range res {
		if r.Explanation == nil {
			t.Fatalf("block %d has no explanation: %+v", r.Index, r)
		}
		e := *r.Explanation
		e.CacheHits, e.ModelCalls = 0, 0
		raw, err := json.Marshal(&e)
		if err != nil {
			t.Fatal(err)
		}
		out[r.Index] = string(raw)
	}
	return out
}

// runCorpusJob submits a corpus job and polls it to a terminal state.
func runCorpusJob(t *testing.T, baseURL string, req wire.CorpusRequest) wire.JobStatus {
	t.Helper()
	resp, body := postJSON(t, baseURL+"/v1/corpus", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d: %s", resp.StatusCode, body)
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(4 * time.Minute)
	for {
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		var st wire.JobStatus
		getJSON(t, baseURL+"/v1/jobs/"+acc.ID, &st)
		if st.State == wire.JobDone || st.State == wire.JobFailed || st.State == wire.JobCanceled {
			return st
		}
		time.Sleep(20 * time.Millisecond)
	}
}

var clusterTestBlocks = []string{
	"add rcx, rax\nmov rdx, rcx\npop rbx",
	"imul rax, rbx\nimul rax, rcx",
	"add rax, rbx\nsub rcx, rdx\nxor rsi, rsi",
	"imul rdx, rsi\nadd rdx, rdi\nmov rax, rdx",
}

// TestShardEndpointMatchesLocalJob: POST /v1/shard on a fresh worker
// produces per-block explanation bytes identical to a local corpus job
// for the same blocks — the worker-side half of the cluster determinism
// contract. A lease names its blocks by corpus index alone, so a lease
// of non-contiguous indices must seed each block by its index, not its
// position in the lease, and the lease's spec alone must carry the
// model's target.
func TestShardEndpointMatchesLocalJob(t *testing.T) {
	local, localTS := newTestServer(t, Config{})
	worker, workerTS := newTestServer(t, Config{})
	worker.SetReady()
	// A division costs more cycles on Haswell than on Skylake, so block 4
	// explains differently under the two targets.
	blocks := append(clusterTestBlocks[:len(clusterTestBlocks):len(clusterTestBlocks)], "div rcx\nadd rax, rbx")
	jobs := map[string]wire.JobStatus{}
	for _, tc := range []struct {
		name    string
		model   string // the local job's model
		spec    string // the canonical spec the lease carries
		indices []int  // the leased corpus indices
	}{
		{"whole corpus", "uica", "uica@hsw", []int{0, 1, 2, 3, 4}},
		{"non-contiguous indices", "uica", "uica@hsw", []int{1, 3}},
		{"skylake target", "uica@skl", "uica@skl", []int{0, 1, 2, 3, 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, ok := jobs[tc.model]
			if !ok {
				st = runCorpusJob(t, localTS.URL, wire.CorpusRequest{
					Blocks: blocks, Model: tc.model, Config: fastOverrides(),
				})
				if st.State != wire.JobDone {
					t.Fatalf("local job: %+v", st)
				}
				jobs[tc.model] = st
			}
			sreq := wire.ShardRequest{
				JobID:  "job-x",
				Lease:  "job-x/l0",
				Spec:   tc.spec,
				Config: shardConfigForModel(t, local, tc.model, fastOverrides()),
			}
			for _, i := range tc.indices {
				sreq.Blocks = append(sreq.Blocks, wire.ShardBlock{Index: i, Block: blocks[i]})
			}
			resp, body := postJSON(t, workerTS.URL+"/v1/shard", sreq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("shard: status %d: %s", resp.StatusCode, body)
			}
			var sres wire.ShardResponse
			if err := json.Unmarshal(body, &sres); err != nil {
				t.Fatal(err)
			}
			if sres.Lease != "job-x/l0" || len(sres.Results) != len(tc.indices) {
				t.Fatalf("shard response: %+v", sres)
			}

			want := normalizeAccounting(t, st.Results)
			got := normalizeAccounting(t, sres.Results)
			for _, i := range tc.indices {
				if got[i] != want[i] {
					t.Errorf("block %d: shard bytes differ from local job:\n got %s\nwant %s", i, got[i], want[i])
				}
			}
			if hsw, ok := jobs["uica"]; ok && tc.model != "uica" && normalizeAccounting(t, hsw.Results)[4] == want[4] {
				t.Errorf("block 4 explains alike under %s and uica@hsw: this case cannot tell the targets apart", tc.spec)
			}
		})
	}
}

// TestShardColdWorkerSheds: a worker that has not reported ready refuses
// leases with 503, so a coordinator retry lands elsewhere.
func TestShardColdWorkerSheds(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // no SetReady
	resp, body := postJSON(t, ts.URL+"/v1/shard", wire.ShardRequest{
		Spec:   "uica@hsw",
		Blocks: []wire.ShardBlock{{Index: 0, Block: testBlock}},
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold shard: status %d (%s), want 503", resp.StatusCode, body)
	}
}

// TestJobProgressFields: GET /v1/jobs/{id} carries the job's progress
// in its total, done and failed fields.
func TestJobProgressFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	st := runCorpusJob(t, ts.URL, wire.CorpusRequest{
		Blocks: clusterTestBlocks[:2], Model: "uica", Config: fastOverrides(),
	})
	if st.State != wire.JobDone {
		t.Fatalf("job: %+v", st)
	}
	if st.Total != 2 || st.Done != 2 || st.Failed != 0 {
		t.Errorf("progress fields %d/%d/%d, want 2/2/0", st.Done, st.Total, st.Failed)
	}
}

// TestCoordinatorShardsJobAcrossWorkers is the in-process version of the
// cluster acceptance criterion: a coordinator with two static workers
// runs a corpus job with results byte-identical to a plain single-server
// job, attributes blocks to the workers, and exposes comet_cluster_*
// metrics.
func TestCoordinatorShardsJobAcrossWorkers(t *testing.T) {
	w1, ts1 := newTestServer(t, Config{})
	w2, ts2 := newTestServer(t, Config{})
	w1.SetReady()
	w2.SetReady()

	fast := cluster.Options{
		LeaseBlocks:  1,
		ProbeBackoff: 10 * time.Millisecond,
		Tick:         5 * time.Millisecond,
	}
	_, coordTS := newTestServer(t, Config{
		ClusterWorkers: []string{ts1.URL, ts2.URL},
		Cluster:        fast,
	})

	req := wire.CorpusRequest{Blocks: clusterTestBlocks, Model: "uica", Config: fastOverrides()}
	distributed := runCorpusJob(t, coordTS.URL, req)
	if distributed.State != wire.JobDone || distributed.Failed != 0 {
		t.Fatalf("distributed job: %+v", distributed)
	}

	_, plainTS := newTestServer(t, Config{})
	local := runCorpusJob(t, plainTS.URL, req)
	if local.State != wire.JobDone {
		t.Fatalf("local job: %+v", local)
	}

	want := normalizeAccounting(t, local.Results)
	got := normalizeAccounting(t, distributed.Results)
	for i := range clusterTestBlocks {
		if got[i] != want[i] {
			t.Errorf("block %d: distributed bytes differ from local:\n got %s\nwant %s", i, got[i], want[i])
		}
	}

	// Attribution: every block accounted to some worker, spread across
	// both (1-block leases over two ready workers).
	total := 0
	for _, wb := range distributed.Workers {
		if wb.Worker == "local" {
			t.Errorf("coordinator fell back to local execution: %+v", distributed.Workers)
		}
		total += wb.Blocks
	}
	if total != len(clusterTestBlocks) {
		t.Errorf("worker attribution covers %d blocks, want %d: %+v", total, len(clusterTestBlocks), distributed.Workers)
	}
	if len(distributed.Workers) != 2 {
		t.Errorf("expected both workers attributed, got %+v", distributed.Workers)
	}

	// Cluster status and metrics surfaces.
	var cs wire.ClusterStatus
	resp := getJSON(t, coordTS.URL+"/v1/cluster", &cs)
	if resp.StatusCode != http.StatusOK || len(cs.Workers) != 2 || cs.BlocksDone != uint64(len(clusterTestBlocks)) {
		t.Errorf("cluster status: %d %+v", resp.StatusCode, cs)
	}
	metricsResp, err := http.Get(coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 1<<16)
	for {
		n, err := metricsResp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	metricsResp.Body.Close()
	for _, wantMetric := range []string{
		"comet_cluster_leases_dispatched_total",
		"comet_cluster_blocks_done_total 4",
		`comet_cluster_workers{state="ready"} 2`,
	} {
		if !strings.Contains(sb.String(), wantMetric) {
			t.Errorf("metrics missing %q", wantMetric)
		}
	}
}

// TestCoordinatorFallsBackWithoutWorkers: a coordinator whose pool never
// produces a ready worker still completes jobs — locally — and says so
// in the attribution.
func TestCoordinatorFallsBackWithoutWorkers(t *testing.T) {
	_, coordTS := newTestServer(t, Config{
		Coordinator: true,
		Cluster: cluster.Options{
			ReadyTimeout: 100 * time.Millisecond,
			Tick:         5 * time.Millisecond,
		},
	})
	st := runCorpusJob(t, coordTS.URL, wire.CorpusRequest{
		Blocks: clusterTestBlocks[:2], Model: "uica", Config: fastOverrides(),
	})
	if st.State != wire.JobDone || st.Done != 2 {
		t.Fatalf("fallback job: %+v", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Worker != "local" || st.Workers[0].Blocks != 2 {
		t.Errorf("fallback attribution = %+v, want 2 blocks on local", st.Workers)
	}
}

// TestCoordinatorFallsBackOnAbandonedLeases: workers that pass /readyz
// but fail every shard exhaust the lease retries; the affected blocks
// must be finished by the coordinator's local engine (never recorded as
// failed), with attribution saying so.
func TestCoordinatorFallsBackOnAbandonedLeases(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(http.StatusOK) })
	mux.HandleFunc("/v1/shard", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"worker cannot resolve this spec"}`, http.StatusBadRequest)
	})
	broken := httptest.NewServer(mux)
	defer broken.Close()

	_, coordTS := newTestServer(t, Config{
		ClusterWorkers: []string{broken.URL},
		Cluster: cluster.Options{
			LeaseBlocks:  2,
			LeaseRetries: 2,
			ProbeBackoff: 10 * time.Millisecond,
			Tick:         5 * time.Millisecond,
		},
	})
	st := runCorpusJob(t, coordTS.URL, wire.CorpusRequest{
		Blocks: clusterTestBlocks[:2], Model: "uica", Config: fastOverrides(),
	})
	if st.State != wire.JobDone || st.Done != 2 || st.Failed != 0 {
		t.Fatalf("job after abandoned leases: %+v (infrastructure failure must not fail blocks)", st)
	}
	if len(st.Workers) != 1 || st.Workers[0].Worker != "local" || st.Workers[0].Blocks != 2 {
		t.Errorf("attribution = %+v, want 2 blocks on local", st.Workers)
	}
}

// TestClusterJoinEndpoint: dynamic worker self-registration shows up in
// the pool; non-coordinators 404 the cluster routes.
func TestClusterJoinEndpoint(t *testing.T) {
	_, coordTS := newTestServer(t, Config{Coordinator: true})
	resp, body := postJSON(t, coordTS.URL+"/v1/cluster/join", wire.JoinRequest{URL: "http://127.0.0.1:59999", Capacity: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: status %d: %s", resp.StatusCode, body)
	}
	var jr wire.JoinResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Worker != "http://127.0.0.1:59999" || jr.TTLSeconds <= 0 {
		t.Errorf("join response: %+v", jr)
	}
	var cs wire.ClusterStatus
	getJSON(t, coordTS.URL+"/v1/cluster", &cs)
	if len(cs.Workers) != 1 || cs.Workers[0].Static || cs.Workers[0].Capacity != 2 {
		t.Errorf("pool after join: %+v", cs.Workers)
	}

	_, plainTS := newTestServer(t, Config{})
	resp, _ = postJSON(t, plainTS.URL+"/v1/cluster/join", wire.JoinRequest{URL: "http://x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("join on a non-coordinator: status %d, want 404", resp.StatusCode)
	}
}
