package service

// Cluster endpoints. Every server is a capable worker: POST /v1/shard
// executes one lease of a sharded corpus job under the effective config
// the lease carries, each block at the seed its corpus index derives, so
// its results are byte-identical to the single-process run that would
// have produced them. Servers started in coordinator mode additionally
// accept worker self-registration (POST /v1/cluster/join, which doubles
// as the heartbeat) and expose the pool and lease-scheduler counters on
// GET /v1/cluster; their corpus jobs route through the cluster
// scheduler (see Server.runJob) instead of the local engine.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
)

// handleShard serves POST /v1/shard: one lease of a sharded corpus job.
// The response carries one result per leased block, sorted by corpus
// index; per-block explanation failures surface in CorpusResult.Error,
// never as a non-2xx status (the coordinator must be able to tell "the
// block is hard" from "the worker is broken").
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request, in inbound) error {
	if !s.ready.Load() {
		// A cold worker sheds leases; the coordinator's readiness probe
		// keeps them away in the first place.
		if in.frame != nil {
			wire.PutBuffer(in.frame)
		}
		return errorf(http.StatusServiceUnavailable, "server is warming up")
	}
	req, err := decodeRequest[wire.ShardRequest](s, w, r, in)
	if err != nil {
		return err
	}
	if len(req.Blocks) == 0 {
		return errorf(http.StatusBadRequest, "shard has no blocks")
	}
	texts := make([]string, len(req.Blocks))
	for i, sb := range req.Blocks {
		texts[i] = sb.Block
	}
	blocks, err := s.parseBlocks(nil, texts...)
	if err != nil {
		return err
	}
	entry, err := s.resolveModel(req.Spec, "")
	if err != nil {
		return err
	}
	// The lease's config snapshot is authoritative: it is the job's
	// effective configuration, so the worker computes exactly what the
	// coordinator would have.
	cfg := req.Config.Apply(s.cfg.Base)
	if err := s.checkConfig(cfg); err != nil {
		return err
	}

	// The request span (shard is a force-traced route, parented on the
	// coordinator's traceparent) identifies the lease this worker ran.
	leaseStart := time.Now()
	span := obs.SpanFromContext(r.Context())
	if span != nil {
		span.Set("job_id", req.JobID)
		span.Set("lease", req.Lease)
		span.Set("spec", req.Spec)
		span.SetInt("blocks", int64(len(req.Blocks)))
	}

	// One explain slot bounds the whole lease — the coordinator controls
	// fan-out by lease count, the worker by its slot budget.
	if err := s.acquireExplainSlot(); err != nil {
		return errorf(http.StatusTooManyRequests, "%v", err)
	}
	defer s.releaseExplainSlot()

	// The run stops when the coordinator hangs up (lease timeout,
	// re-lease, its own death) as well as on server shutdown — an
	// abandoned lease must not keep burning this worker's slot.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.ctx, cancel)()

	results := make([]wire.CorpusResult, 0, len(blocks))
	// Index maps the lease's slice positions onto the original corpus:
	// seeds and results (error messages included) come out exactly as
	// the whole-corpus run would have produced them.
	s.explainCorpus(ctx, entry, cfg, blocks, core.CorpusOptions{
		Workers: s.clampWorkers(req.Workers),
		Index:   func(i int) int { return req.Blocks[i].Index },
	}, func(res wire.CorpusResult) { results = append(results, res) })
	if len(results) < len(blocks) {
		// The run was cut short (shutdown or a vanished coordinator); an
		// incomplete lease is a failed lease.
		return errorf(http.StatusServiceUnavailable, "shard interrupted after %d of %d blocks", len(results), len(blocks))
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Index < results[j].Index })
	s.metrics.shardBlocks.Add(uint64(len(results)))
	failed := 0
	for _, res := range results {
		if res.Error != "" {
			failed++
		}
	}
	// The worker's flight recorder keeps its own record of every lease it
	// executed — after a crash, the worker-side black box tells which
	// leases this process actually ran.
	s.flight.Record(obs.FlightRecord{
		Kind:      obs.FlightLease,
		ID:        req.Lease,
		State:     "executed",
		Spec:      req.Spec,
		LatencyUS: time.Since(leaseStart).Microseconds(),
		Trace:     span.TraceID(),
	})
	s.log.Info("shard lease executed",
		"job_id", req.JobID, "lease", req.Lease, "spec", req.Spec,
		"blocks", len(results), "failed", failed,
		"elapsed", time.Since(leaseStart),
		obs.TraceAttr(span.TraceID()))
	writeNegotiated(w, in.binResp, http.StatusOK, &wire.ShardResponse{
		JobID:   req.JobID,
		Lease:   req.Lease,
		Results: results,
	})
	return nil
}

// handleClusterJoin serves POST /v1/cluster/join (coordinator mode
// only): worker self-registration and heartbeats.
func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request, in inbound) error {
	req, err := decodeRequest[wire.JoinRequest](s, w, r, in)
	if err != nil {
		return err
	}
	id, ttl, err := s.coordinator.Pool().Join(req.URL, req.Capacity)
	if err != nil {
		return errorf(http.StatusBadRequest, "%v", err)
	}
	writeJSON(w, http.StatusOK, wire.JoinResponse{Worker: id, TTLSeconds: ttl.Seconds()})
	return nil
}

// handleCluster serves GET /v1/cluster (coordinator mode only): the
// worker pool and lease-scheduler counters.
func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request, _ inbound) error {
	writeJSON(w, http.StatusOK, s.coordinator.Status())
	return nil
}

// renderClusterWorkers writes comet_cluster_workers: the pool's workers
// counted by state (coordinator mode only).
func renderClusterWorkers(sb *strings.Builder, workers []wire.ClusterWorker) {
	byState := map[string]int{}
	for _, w := range workers {
		byState[w.State]++
	}
	if len(byState) == 0 {
		return
	}
	states := make([]string, 0, len(byState))
	for state := range byState {
		states = append(states, state)
	}
	sort.Strings(states)
	writeFamily(sb, "comet_cluster_workers")
	for _, state := range states {
		fmt.Fprintf(sb, "comet_cluster_workers{state=%q} %d\n", state, byState[state])
	}
}

// runCluster executes a corpus job through the cluster scheduler,
// feeding every emitted result into the same bookkeeping and durable
// checkpoints the local engine uses (Server.record). ctx carries the
// job's resumed span (see Server.runJob); its trace context rides every
// lease dispatch. It returns cluster.ErrNoWorkers when dispatch starved —
// the caller falls back to the local engine for whatever was not
// emitted.
func (s *Server) runCluster(ctx context.Context, j *job) error {
	skip := j.doneIndices()
	traceparent := ""
	if sc := obs.ContextSpanContext(ctx); !sc.IsZero() {
		traceparent = sc.Traceparent()
	}
	return s.coordinator.Run(ctx, cluster.Job{
		ID:          j.id,
		Spec:        j.spec,
		Config:      j.snapshot,
		Blocks:      j.blockTexts(),
		Skip:        skip.Has,
		Workers:     j.workers,
		Traceparent: traceparent,
	}, func(res cluster.Result) {
		s.record(j, res.CorpusResult, res.Worker)
	})
}
