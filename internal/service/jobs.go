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
	"github.com/comet-explain/comet/internal/cluster"
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

// jobManager owns the bounded job queue, the job workers, and the LRU
// history of finished jobs. With a store attached it also checkpoints
// every job's envelope and explained blocks.
type jobManager struct {
	queue   chan *job
	history *lruStore[string, *job]
	active  sync.Map // id → *job, for jobs not yet in (or evicted from) history
	ctx     context.Context
	wg      sync.WaitGroup
	// closeMu serializes queue sends against the one-time close in
	// shutdown: submissions hold the read side, so a send can never hit a
	// closed channel.
	closeMu  sync.RWMutex
	draining bool
	seq      atomic.Uint64
	instance string // random per-process tag so job IDs don't collide across restarts

	// store, when non-nil, receives job envelopes and per-block
	// explanation records; checkpointEvery is the fsync cadence in
	// completed blocks, and storeErr counts (never fails on) persistence
	// errors.
	store           persist.Store
	checkpointEvery int
	storeErr        func(error)

	// cluster, when non-nil, is the coordinator jobs shard through; the
	// local engine remains the fallback when no worker is ready, so a
	// coordinator with an empty (or dead) pool degrades to a single node
	// instead of stalling. Determinism makes the two paths emit
	// identical bytes.
	cluster *cluster.Coordinator

	// tracer, log, metrics, and flight are injected by the server; all
	// are optional (nil tracer records nothing, nil log stays silent, a
	// nil flight recorder drops records).
	tracer  *obs.Tracer
	log     *slog.Logger
	metrics *metrics
	flight  *obs.FlightRecorder

	queued  atomic.Int64 // jobs waiting in the queue
	running atomic.Int64 // jobs currently executing
}

// newJobManager starts cfg.JobWorkers job workers; cfg has been through
// Config.withDefaults.
func newJobManager(ctx context.Context, cfg Config, storeErr func(error)) *jobManager {
	tag := make([]byte, 4)
	if _, err := rand.Read(tag); err != nil {
		// Fall back to a fixed tag; IDs stay unique within the process
		// through the sequence number.
		copy(tag, []byte{0xc0, 0x3e, 0x70, 0x01})
	}
	m := &jobManager{
		queue:           make(chan *job, cfg.JobQueueDepth),
		history:         newLRUStore[string, *job](cfg.JobHistorySize),
		ctx:             ctx,
		instance:        hex.EncodeToString(tag),
		store:           cfg.Store,
		checkpointEvery: cfg.JobCheckpointEvery,
		storeErr:        storeErr,
	}
	for w := 0; w < cfg.JobWorkers; w++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			for j := range m.queue {
				m.queued.Add(-1)
				m.run(j)
			}
		}()
	}
	return m
}

// submit enqueues a job, failing fast with errQueueFull when the bounded
// queue is at capacity (the HTTP layer turns that into 429 backpressure),
// and on success persists the queued envelope. A new job gets a fresh
// ID; a job restored from the durable store keeps its persisted one
// (clients keep polling the ID they were given before the restart).
func (m *jobManager) submit(j *job) error {
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
		m.flightJob(j, wire.JobQueued)
		m.persistJob(j)
		return nil
	default:
		m.active.Delete(j.id)
		return errQueueFull
	}
}

// flightJob records one job state transition in the flight recorder —
// every queue/run/terminal transition leaves a black-box entry whether
// or not the job's trace is sampled.
func (m *jobManager) flightJob(j *job, state string) {
	m.flight.Record(obs.FlightRecord{
		Kind:  obs.FlightJob,
		ID:    j.id,
		State: state,
		Spec:  j.spec,
		Trace: j.trace.Trace,
	})
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

// run executes one corpus job through the shared explanation engine.
func (m *jobManager) run(j *job) {
	m.running.Add(1)
	defer m.running.Add(-1)

	// Resume the trace of the request that submitted the job: the
	// accepting span ended when the 202 was written, and this span picks
	// the trace back up for the async half. Everything the job does —
	// local explanation stages, cluster lease dispatches, worker-side
	// shard handling — parents under it.
	start := time.Now()
	ctx, span := m.tracer.Resume(m.ctx, "job.run", j.trace)
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
		m.flightJob(j, state)
		if m.log != nil {
			attrs := []slog.Attr{
				slog.String("job_id", j.id),
				slog.String("spec", j.spec),
				slog.String("state", state),
				slog.Int("done", done),
				slog.Int("failed", failed),
				slog.Duration("elapsed", time.Since(start)),
				obs.TraceAttr(j.trace.Trace),
			}
			// Quality aggregates: how good the explanations this job
			// produced actually were, visible without scraping /metrics.
			if qCount > 0 {
				attrs = append(attrs,
					slog.Float64("precision_mean", qPrecSum/float64(qCount)),
					slog.Float64("precision_min", qPrecMin),
					slog.Float64("coverage_mean", qCovSum/float64(qCount)),
					slog.Int64("queries_total", qQueries),
					slog.Int("uncertified", qUncertified))
			}
			m.log.LogAttrs(context.Background(), slog.LevelInfo, "job finished", attrs...)
		}
	}()

	if m.ctx.Err() != nil {
		m.finalize(j) // dequeued during shutdown: canceled, resumable
		return
	}
	j.mu.Lock()
	j.state = wire.JobRunning
	j.mu.Unlock()
	m.flightJob(j, wire.JobRunning)
	m.persistJob(j)

	// Coordinator mode: shard the job across the cluster. Any dispatch
	// shortfall — no ready workers, leases abandoned after retries —
	// leaves the affected blocks unemitted, and the local engine below
	// finishes exactly those; per-block seeding makes the mixed run
	// byte-identical to either pure path. Only shutdown ends the job
	// with blocks missing.
	if m.cluster != nil {
		err := m.runCluster(ctx, j)
		if err == nil || m.ctx.Err() != nil {
			m.finalize(j)
			return
		}
	}

	// Resume support (and cluster fallback): indices restored from the
	// store — or already emitted by a partial cluster run — are never
	// re-fed to a worker. Their results are already in j.results, and
	// because every block runs under BlockSeed(cfg.Seed, index), the
	// blocks that do run produce exactly what an uninterrupted run would
	// have.
	skip := j.doneIndices()

	explainer := core.NewExplainerWithCache(traceModel(ctx, j.entry.model), j.cfg, j.entry.cache)
	worker := ""
	if m.cluster != nil {
		worker = "local"
	}
	for res := range explainer.ExplainAll(j.blocks, core.CorpusOptions{
		Workers: j.workers,
		Context: ctx,
		Skip:    skip.Has,
	}) {
		if res.Explanation != nil && m.metrics != nil {
			m.metrics.observeComputed(j.spec, res.Explanation)
		}
		m.record(j, wire.FromCorpusResult(res), worker)
	}

	m.finalize(j)
}

// record appends one completed block to the job and checkpoints it, for
// the local engine and the cluster alike. An explained block is one
// all-or-nothing store append of its content-addressed explanation
// record (survives SIGKILL); a failed block rides the envelope
// persistJob writes at the next state transition. The periodic Sync is
// the power-loss checkpoint.
func (m *jobManager) record(j *job, res wire.CorpusResult, worker string) {
	done := j.appendResult(res, worker)
	if m.store == nil {
		return
	}
	if res.Explanation != nil {
		id, snap := persist.BlockExplanationID(j.spec, j.snapshot, res.Index, j.blockTexts()[res.Index])
		if err := persist.PutExplanation(m.store, id, j.spec, snap, res.Explanation); err != nil {
			m.storeErr(err)
		}
	}
	if done%m.checkpointEvery == 0 {
		if err := m.store.Sync(); err != nil {
			m.storeErr(err)
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
func (m *jobManager) finalize(j *job) {
	j.mu.Lock()
	j.settleLocked()
	if j.notify != nil {
		j.notify.Broadcast()
	}
	j.mu.Unlock()
	m.persistJob(j)
	if m.store != nil {
		if err := m.store.Sync(); err != nil {
			m.storeErr(err)
		}
	}
	m.finish(j)
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
func (m *jobManager) persistJob(j *job) {
	if m.store == nil {
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
	err := m.store.Put(&wire.Record{
		V:    wire.RecordVersion,
		Kind: wire.RecordJob,
		Key:  persist.JobKey(j.id),
		Spec: j.spec,
		Job:  env,
	})
	if err != nil {
		m.storeErr(err)
	}
}

// finish moves a terminal job into the LRU history, where it survives
// polling until evicted by capacity.
func (m *jobManager) finish(j *job) {
	m.history.put(j.id, j)
	m.active.Delete(j.id)
}

// shutdown stops accepting jobs, marks still-queued jobs canceled, and
// waits (up to ctx) for running jobs to wind down. The manager's own
// context — canceled by the server before calling shutdown — makes running
// jobs skip their remaining blocks. With a store attached, interrupted
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
