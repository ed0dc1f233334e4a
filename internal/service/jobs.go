package service

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/comet-explain/comet/internal/bitset"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// errQueueFull signals job-queue backpressure; the handler maps it to 429.
var errQueueFull = errors.New("job queue full")

// errDraining signals shutdown; the handler maps it to 503.
var errDraining = errors.New("server is shutting down")

// job is one asynchronous corpus-explanation run. Results accumulate in
// completion order (they only ever append, never reorder), which is what
// makes offset-based polling of GET /v1/jobs/{id} race-free: a client that
// resumes from next_offset never misses or re-reads a result. Each result
// carries its corpus block index for reassembly in input order.
//
// With a durable store attached, the job's envelope (inputs, spec,
// effective config, failed blocks) is persisted on every state
// transition and each explained block appends its content-addressed
// explanation record, so a killed process resumes the job on restart:
// restored results are replayed into the results slice and ExplainAll
// skips their indices. Per-block seeds depend only on the block index,
// so the resumed union is identical to an uninterrupted run.
type job struct {
	id      string
	blocks  []*x86.BasicBlock
	texts   []string // canonical block texts (persisted envelope; built lazily)
	entry   *modelEntry
	cfg     core.Config
	workers int
	// spec and snapshot are the job's persistence identity: the
	// canonical model spec and the effective explanation configuration.
	spec     string
	snapshot wire.ConfigSnapshot
	// fromStore marks the job as surviving a restart.
	fromStore bool
	// streamOnly jobs deliver results through GET /v1/jobs/{id}/stream
	// and retain only the last ringCap results for catch-up reads, so a
	// million-block corpus never buffers its full result set.
	streamOnly bool
	ringCap    int
	// trace is the span context of the accepting POST /v1/corpus request;
	// the job's async execution resumes it, so submission, execution, and
	// every worker lease share one trace ID. Zero for restored jobs (their
	// originating request died with the previous process).
	trace obs.SpanContext

	mu      sync.Mutex
	state   string
	done    int
	failed  int
	err     string
	results []wire.CorpusResult
	// failures holds every failed block's result, which the persisted
	// envelope carries (the stream ring may have dropped them from
	// results).
	failures []wire.CorpusResult
	// trimmed counts results evicted from the front of the slice by the
	// stream ring; the stream sequence number of results[i] is trimmed+i.
	trimmed int
	// doneSet tracks every block index that has a result (restored ones
	// included) — a bitset, because a map[int]bool over a million indices
	// costs tens of megabytes.
	doneSet *bitset.Set
	// notify wakes stream readers on every append and state change;
	// created lazily by the first waiter or appender that needs it.
	notify *sync.Cond
	// workerDone attributes completed blocks to the cluster workers that
	// produced them ("local" for coordinator-fallback blocks); nil for
	// plain single-node jobs.
	workerDone map[string]int
	// Quality aggregates, accumulated from every appended result's
	// explanation (local and cluster alike — the wire fields survive the
	// shard hop) and emitted on the "job finished" log line.
	qPrecisionSum float64
	qPrecisionMin float64
	qCoverageSum  float64
	qQueries      int64
	qUncertified  int
	qCount        int
}

// appendResult records one completed block: counters, the done bitset,
// the (possibly ring-bounded) results slice, worker attribution, and a
// stream wakeup. It returns the job's done count.
func (j *job) appendResult(res wire.CorpusResult, worker string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.done++
	if res.Error != "" {
		j.failed++
		j.failures = append(j.failures, res)
	}
	if j.doneSet == nil {
		j.doneSet = bitset.New(len(j.blocks))
	}
	j.doneSet.Add(res.Index)
	if e := res.Explanation; e != nil {
		if j.qCount == 0 || e.Precision < j.qPrecisionMin {
			j.qPrecisionMin = e.Precision
		}
		j.qPrecisionSum += e.Precision
		j.qCoverageSum += e.Coverage
		j.qQueries += int64(e.Queries)
		if !e.Certified {
			j.qUncertified++
		}
		j.qCount++
	}
	j.results = append(j.results, res)
	if j.streamOnly && j.ringCap > 0 && len(j.results) > j.ringCap {
		// Drop the oldest half in one move — amortized O(1) per result.
		// Stream readers that far behind get a lag error, not a stall.
		drop := len(j.results) - j.ringCap/2
		if drop < 1 {
			drop = 1
		}
		n := copy(j.results, j.results[drop:])
		tail := j.results[n:]
		for i := range tail {
			tail[i] = wire.CorpusResult{} // release for GC
		}
		j.results = j.results[:n]
		j.trimmed += drop
	}
	if worker != "" {
		if j.workerDone == nil {
			j.workerDone = make(map[string]int)
		}
		j.workerDone[worker]++
	}
	if j.notify != nil {
		j.notify.Broadcast()
	}
	return j.done
}

// wake broadcasts to stream readers (used on state transitions and by
// disconnect watchers).
func (j *job) wake() {
	j.mu.Lock()
	if j.notify != nil {
		j.notify.Broadcast()
	}
	j.mu.Unlock()
}

// blockTexts returns (building once, under the job lock) the canonical
// block texts — the persistence envelope's and the shard protocol's view
// of the corpus.
func (j *job) blockTexts() []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.texts == nil {
		j.texts = make([]string, len(j.blocks))
		for i, b := range j.blocks {
			j.texts[i] = b.String()
		}
	}
	return j.texts
}

// status snapshots the job with results[offset:offset+limit]. Stream
// jobs carry no result pages (the ring is the stream's catch-up buffer,
// not a stable pagination window); their counters still report progress.
func (j *job) status(offset, limit int) wire.JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	var page []wire.CorpusResult
	end := offset
	if !j.streamOnly {
		if offset < 0 {
			offset = 0
		}
		if offset > len(j.results) {
			offset = len(j.results)
		}
		end = len(j.results)
		if limit > 0 && offset+limit < end {
			end = offset + limit
		}
		page = make([]wire.CorpusResult, end-offset)
		copy(page, j.results[offset:end])
	}
	var workers []wire.WorkerBlocks
	if len(j.workerDone) > 0 {
		ids := make([]string, 0, len(j.workerDone))
		for id := range j.workerDone {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		workers = make([]wire.WorkerBlocks, len(ids))
		for i, id := range ids {
			workers[i] = wire.WorkerBlocks{Worker: id, Blocks: j.workerDone[id]}
		}
	}
	return wire.JobStatus{
		ID:         j.id,
		State:      j.state,
		Total:      len(j.blocks),
		Done:       j.done,
		Failed:     j.failed,
		Error:      j.err,
		Workers:    workers,
		Offset:     offset,
		NextOffset: end,
		Results:    page,
	}
}

// summary snapshots the job for GET /v1/jobs.
func (j *job) summary() wire.JobSummary {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.summaryLocked()
}

// summaryLocked is summary with j.mu already held.
func (j *job) summaryLocked() wire.JobSummary {
	return wire.JobSummary{
		ID:       j.id,
		State:    j.state,
		Total:    len(j.blocks),
		Done:     j.done,
		Failed:   j.failed,
		Error:    j.err,
		Restored: j.fromStore,
	}
}

// jobManager owns the bounded job queue, the job workers, the LRU
// history of finished jobs and job-ID minting. What a job does when it
// runs is the server's (Server.runJob).
type jobManager struct {
	queue   chan *job
	history *lruStore[string, *job]
	active  sync.Map // id → *job, for jobs not yet in (or evicted from) history
	wg      sync.WaitGroup
	// closeMu serializes queue sends against the one-time close in
	// shutdown: submissions hold the read side, so a send can never hit a
	// closed channel.
	closeMu  sync.RWMutex
	draining bool
	seq      atomic.Uint64
	instance string // random per-process tag so job IDs don't collide across restarts

	queued  atomic.Int64 // jobs waiting in the queue
	running atomic.Int64 // jobs currently executing
}

// newJobManager starts cfg.JobWorkers job workers, each handing the jobs
// it dequeues to run; cfg has been through Config.withDefaults.
func newJobManager(cfg Config, run func(*job)) *jobManager {
	tag := make([]byte, 4)
	if _, err := rand.Read(tag); err != nil {
		// Fall back to a fixed tag; IDs stay unique within the process
		// through the sequence number.
		copy(tag, []byte{0xc0, 0x3e, 0x70, 0x01})
	}
	m := &jobManager{
		queue:    make(chan *job, cfg.JobQueueDepth),
		history:  newLRUStore[string, *job](cfg.JobHistorySize),
		instance: hex.EncodeToString(tag),
	}
	for w := 0; w < cfg.JobWorkers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.queued.Add(-1)
				m.running.Add(1)
				run(j)
				m.running.Add(-1)
			}
		}()
	}
	return m
}

// enqueue queues a job, failing fast with errQueueFull when the bounded
// queue is at capacity (the HTTP layer turns that into 429
// backpressure). A new job gets a fresh ID; a job restored from the
// durable store keeps its persisted one (clients keep polling the ID
// they were given before the restart).
func (m *jobManager) enqueue(j *job) error {
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if m.draining {
		return errDraining
	}
	if j.id == "" {
		j.id = fmt.Sprintf("job-%s-%d", m.instance, m.seq.Add(1))
	}
	j.state = wire.JobQueued
	m.active.Store(j.id, j)
	select {
	case m.queue <- j:
		m.queued.Add(1)
		return nil
	default:
		m.active.Delete(j.id)
		return errQueueFull
	}
}

// get finds a job by ID, live or in history.
func (m *jobManager) get(id string) (*job, bool) {
	if v, ok := m.active.Load(id); ok {
		return v.(*job), true
	}
	return m.history.get(id)
}

// list snapshots every known job — queued, running, and retained
// history — sorted by ID.
func (m *jobManager) list() []wire.JobSummary {
	seen := make(map[string]bool)
	var out []wire.JobSummary
	m.active.Range(func(_, v any) bool {
		j := v.(*job)
		if !seen[j.id] {
			seen[j.id] = true
			out = append(out, j.summary())
		}
		return true
	})
	for _, j := range m.history.values() {
		if !seen[j.id] {
			seen[j.id] = true
			out = append(out, j.summary())
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	return out
}

// finish moves a terminal job into the LRU history, where it survives
// polling until evicted by capacity.
func (m *jobManager) finish(j *job) {
	m.history.put(j.id, j)
	m.active.Delete(j.id)
}

// shutdown stops accepting jobs and waits (up to ctx) for the job
// workers to wind down. The server's context — canceled before calling
// shutdown — makes running jobs skip their remaining blocks and
// still-queued jobs end canceled. With a store attached, interrupted
// jobs persist in a resumable state: the next process's Restore picks
// them up where they stopped.
func (m *jobManager) shutdown(ctx context.Context) error {
	m.closeMu.Lock()
	if m.draining {
		m.closeMu.Unlock()
		return nil
	}
	m.draining = true
	close(m.queue)
	m.closeMu.Unlock()
	waited := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(waited)
	}()
	select {
	case <-waited:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submitJob queues a job and records and persists its queued state.
func (s *Server) submitJob(j *job) error {
	if err := s.jobs.enqueue(j); err != nil {
		return err
	}
	s.flightJob(j, wire.JobQueued)
	s.persistJob(j)
	return nil
}

// flightJob records one job state transition in the flight recorder —
// every queue/run/terminal transition leaves a black-box entry whether
// or not the job's trace is sampled.
func (s *Server) flightJob(j *job, state string) {
	s.flight.Record(obs.FlightRecord{
		Kind:  obs.FlightJob,
		ID:    j.id,
		State: state,
		Spec:  j.spec,
		Trace: j.trace.Trace,
	})
}

// runJob executes one dequeued corpus job: through the cluster in
// coordinator mode, and through the local engine for whatever the
// cluster did not emit.
func (s *Server) runJob(j *job) {
	// Resume the trace of the request that submitted the job: the
	// accepting span ended when the 202 was written, and this span picks
	// the trace back up for the async half. Everything the job does —
	// local explanation stages, cluster lease dispatches, worker-side
	// shard handling — parents under it.
	start := time.Now()
	ctx, span := s.tracer.Resume(s.ctx, "job.run", j.trace)
	span.Set("job_id", j.id)
	defer func() {
		j.mu.Lock()
		state, done, failed := j.state, j.done, j.failed
		qCount, qUncertified, qQueries := j.qCount, j.qUncertified, j.qQueries
		qPrecSum, qPrecMin, qCovSum := j.qPrecisionSum, j.qPrecisionMin, j.qCoverageSum
		j.mu.Unlock()
		span.Set("state", state)
		span.SetInt("done", int64(done))
		span.SetInt("failed", int64(failed))
		span.End()
		s.flightJob(j, state)
		attrs := []slog.Attr{
			slog.String("job_id", j.id),
			slog.String("spec", j.spec),
			slog.String("state", state),
			slog.Int("done", done),
			slog.Int("failed", failed),
			slog.Duration("elapsed", time.Since(start)),
			obs.TraceAttr(j.trace.Trace),
		}
		// Quality aggregates: how good the explanations this job produced
		// actually were, visible without scraping /metrics.
		if qCount > 0 {
			attrs = append(attrs,
				slog.Float64("precision_mean", qPrecSum/float64(qCount)),
				slog.Float64("precision_min", qPrecMin),
				slog.Float64("coverage_mean", qCovSum/float64(qCount)),
				slog.Int64("queries_total", qQueries),
				slog.Int("uncertified", qUncertified))
		}
		s.log.LogAttrs(context.Background(), slog.LevelInfo, "job finished", attrs...)
	}()

	if s.ctx.Err() != nil {
		s.finalize(j) // dequeued during shutdown: canceled, resumable
		return
	}
	j.mu.Lock()
	j.state = wire.JobRunning
	j.mu.Unlock()
	s.flightJob(j, wire.JobRunning)
	s.persistJob(j)

	// Coordinator mode: shard the job across the cluster. Any dispatch
	// shortfall — no ready workers, leases abandoned after retries —
	// leaves the affected blocks unemitted, and the local engine below
	// finishes exactly those; per-block seeding makes the mixed run
	// byte-identical to either pure path. Only shutdown ends the job
	// with blocks missing.
	worker := ""
	if s.coordinator != nil {
		err := s.runCluster(ctx, j)
		if err == nil || s.ctx.Err() != nil {
			s.finalize(j)
			return
		}
		worker = "local"
	}

	// Resume support (and cluster fallback): indices restored from the
	// store — or already emitted by a partial cluster run — are never
	// re-fed to a worker. Their results are already in j.results, and
	// because every block runs under BlockSeed(cfg.Seed, index), the
	// blocks that do run produce exactly what an uninterrupted run would
	// have.
	skip := j.doneIndices()
	s.explainCorpus(ctx, j.entry, j.cfg, j.blocks, core.CorpusOptions{
		Workers: j.workers,
		Skip:    skip.Has,
	}, func(res wire.CorpusResult) { s.record(j, res, worker) })
	s.finalize(j)
}

// explainCorpus explains blocks under entry and cfg through the engine
// and hands each result to emit: the one engine path of corpus jobs and
// shard leases. Each block runs at core.BlockSeed(cfg.Seed, its corpus
// index), so a lease's blocks come out byte-identical to the same
// blocks of a local job, and every explained block counts in
// comet_explanations_computed_total under the entry's canonical spec.
// ctx cancels the run (blocks not yet started are skipped) and carries
// the trace a remote@ model joins.
func (s *Server) explainCorpus(ctx context.Context, entry *modelEntry, cfg core.Config, blocks []*x86.BasicBlock,
	opts core.CorpusOptions, emit func(wire.CorpusResult)) {
	opts.Context = ctx
	spec := entry.specString()
	explainer := core.NewExplainerWithCache(traceModel(ctx, entry.model), cfg, entry.cache)
	for res := range explainer.ExplainAll(blocks, opts) {
		if res.Explanation != nil {
			s.metrics.observeComputed(spec, res.Explanation)
		}
		emit(wire.FromCorpusResult(res))
	}
}

// record appends one completed block to the job and checkpoints it, for
// the local engine and the cluster alike. An explained block is one
// all-or-nothing store append of its content-addressed explanation
// record (survives SIGKILL); a failed block rides the envelope
// persistJob writes at the next state transition. The periodic Sync is
// the power-loss checkpoint.
func (s *Server) record(j *job, res wire.CorpusResult, worker string) {
	done := j.appendResult(res, worker)
	if s.store == nil {
		return
	}
	if res.Explanation != nil {
		id, snap := persist.BlockExplanationID(j.spec, j.snapshot, res.Index, j.blockTexts()[res.Index])
		if err := persist.PutExplanation(s.store, id, j.spec, snap, res.Explanation); err != nil {
			s.storeError(err)
		}
	}
	if done%s.cfg.JobCheckpointEvery == 0 {
		if err := s.store.Sync(); err != nil {
			s.storeError(err)
		}
	}
}

// settleLocked sets a job's terminal state from its counters: canceled
// with blocks missing (a shutdown stopped it), failed with a failed
// block, done otherwise. j.mu must be held.
func (j *job) settleLocked() {
	switch {
	case j.done < len(j.blocks):
		j.state = wire.JobCanceled
		j.err = "canceled during shutdown"
	case j.failed > 0:
		j.state = wire.JobFailed
		j.err = fmt.Sprintf("%d of %d blocks failed", j.failed, len(j.blocks))
	default:
		j.state = wire.JobDone
	}
}

// finalize settles a job's terminal state, persists it, and moves it to
// history.
func (s *Server) finalize(j *job) {
	j.mu.Lock()
	j.settleLocked()
	if j.notify != nil {
		j.notify.Broadcast()
	}
	j.mu.Unlock()
	s.persistJob(j)
	if s.store != nil {
		if err := s.store.Sync(); err != nil {
			s.storeError(err)
		}
	}
	s.jobs.finish(j)
}

// doneIndices snapshots the block indices that already have results —
// restored from the store or emitted by a partial cluster run — for the
// local engine's and the cluster's Skip hooks.
func (j *job) doneIndices() *bitset.Set {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.doneSet.Clone()
}

// persistJob writes the job's envelope (inputs, current state, failed
// blocks) to the durable store, superseding the previous envelope
// record.
func (s *Server) persistJob(j *job) {
	if s.store == nil {
		return
	}
	texts := j.blockTexts()
	j.mu.Lock()
	env := &wire.JobEnvelope{
		ID:      j.id,
		State:   j.state,
		Spec:    j.spec,
		Blocks:  texts,
		Config:  j.snapshot,
		Workers: j.workers,
		Stream:  j.streamOnly,
		Error:   j.err,
		// failures only grows, so the slice up to its current length
		// never changes under a concurrent appendResult.
		Failures: j.failures,
	}
	j.mu.Unlock()
	err := s.store.Put(&wire.Record{
		V:    wire.RecordVersion,
		Kind: wire.RecordJob,
		Key:  j.id,
		Spec: j.spec,
		Job:  env,
	})
	if err != nil {
		s.storeError(err)
	}
}
