package service

import (
	"fmt"
	"net/http"
	"sort"

	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
)

// Warm restarts: with a durable store attached, a restarted server
// reloads the explanation result store and every persisted corpus job.
// Finished jobs go back into the pollable history under their original
// IDs; interrupted jobs (queued, running, or canceled mid-run by a
// drain) are re-enqueued and resume exactly where they stopped — a
// job's finished blocks are its envelope's failures plus every block
// whose content-addressed explanation record the store holds (whoever
// computed it), the remaining blocks run under their original per-block
// seeds, and the union is bit-identical to an uninterrupted run.

// RestoreSummary reports what Restore reloaded from the durable store.
type RestoreSummary struct {
	// Explanations is the number of explanations the in-memory result
	// store holds after the scan (bounded by its capacity).
	Explanations int
	// JobsRestored counts finished jobs reloaded into the poll history.
	JobsRestored int
	// JobsResumed counts interrupted jobs re-enqueued for completion.
	JobsResumed int
	// JobsFailed counts jobs that could not be resumed (unparseable
	// envelope, unresolvable model spec, or a full queue); they land in
	// history in the failed state with the reason.
	JobsFailed int
}

// Restore reloads the server's warm state from its durable store. Call
// it once, after New and before serving traffic: resuming jobs resolves
// (and may train) their models, so it can take as long as a -preload.
// Without a store it is a no-op.
func (s *Server) Restore() (RestoreSummary, error) {
	var sum RestoreSummary
	if s.store == nil || !s.restored.CompareAndSwap(false, true) {
		return sum, nil
	}
	var envs []*wire.JobEnvelope
	err := s.store.Scan(func(rec *wire.Record) bool {
		switch rec.Kind {
		case wire.RecordExplanation:
			if rec.Explanation != nil {
				// Scan order is LRU→MRU, so the rehydrated result store
				// inherits the previous process's recency order. On-disk
				// keys are hex content IDs; unparseable ones are skipped.
				if id, ok := wire.ParseContentID(rec.Key); ok {
					s.results.put(id, newCachedExplanation(rec.Explanation))
				}
			}
		case wire.RecordJob:
			if rec.Job != nil {
				envs = append(envs, rec.Job)
			}
		}
		return true
	})
	// The store keeps the most recent ResultStoreSize of the scanned
	// explanations; report what it holds, not what was scanned.
	sum.Explanations = s.results.len()
	if err != nil {
		return sum, err
	}
	// Envelopes restore in ID order so resumption is deterministic.
	sort.Slice(envs, func(i, k int) bool { return envs[i].ID < envs[k].ID })
	for _, env := range envs {
		s.restoreJob(env, &sum)
	}
	return sum, nil
}

// restoreJob rebuilds one persisted job and either retires it to
// history (terminal) or re-enqueues it (interrupted).
func (s *Server) restoreJob(env *wire.JobEnvelope, sum *RestoreSummary) {
	j := s.newJob(env.Spec, env.Config, env.Workers, env.Stream)
	j.id = env.ID
	j.texts = env.Blocks
	j.fromStore = true
	fail := func(format string, args ...any) {
		j.state = wire.JobFailed
		j.err = fmt.Sprintf("restore: "+format, args...)
		// Persist the terminal state so the next restart doesn't pay the
		// (possibly expensive) resume attempt again.
		s.jobs.persistJob(j)
		s.jobs.finish(j)
		sum.JobsFailed++
	}

	blocks, err := s.parseBlocks(nil, env.Blocks...)
	switch {
	case err != nil && env.State == wire.JobFailed:
		// A previous restore already failed these blocks (an opcode or a
		// limit this build refuses); park the job as it was recorded.
		j.state = wire.JobFailed
		j.err = env.Error
		s.jobs.finish(j)
		sum.JobsRestored++
		return
	case err != nil:
		fail("%v", err)
		return
	}
	j.blocks = blocks

	// Replay finished blocks in block-index order. (An uninterrupted
	// single-worker run completes in index order too, so a client that
	// kept its pagination offset across the restart re-reads nothing.)
	failures := make(map[int]wire.CorpusResult, len(env.Failures))
	for _, res := range env.Failures {
		failures[res.Index] = res
	}
	for i, text := range env.Blocks {
		res, ok := failures[i]
		if !ok {
			id, _ := persist.BlockExplanationID(env.Spec, env.Config, i, text)
			e, found := persist.LookupExplanation(s.store, id)
			if !found {
				continue
			}
			res = wire.CorpusResult{Index: i, Block: text, Explanation: e}
		}
		j.appendResult(res, "")
	}

	switch {
	case j.done >= len(j.blocks):
		// Every block persisted before the restart: terminal, straight
		// into the poll history under its original ID.
		j.mu.Lock()
		j.settleLocked()
		j.mu.Unlock()
		if env.State != j.state {
			s.jobs.persistJob(j) // settle the envelope's recorded state
		}
	case env.State == wire.JobFailed:
		// A previous restore already declared this job unresumable;
		// honor that instead of re-attempting (and re-paying) the
		// resume on every restart.
		j.state = wire.JobFailed
		j.err = env.Error
	default:
		// Interrupted: resolve the model (operator-trusted — the spec
		// was accepted and canonicalized before it was persisted) and
		// resume.
		entry, err := s.models.get(env.Spec, "hsw", true)
		if err != nil {
			fail("resolving %s: %v", env.Spec, err)
			return
		}
		j.entry = entry
		if err := s.jobs.submit(j); err != nil {
			fail("re-enqueueing: %v", err)
			return
		}
		sum.JobsResumed++
		return
	}
	s.jobs.finish(j)
	sum.JobsRestored++
}

// handleJobs serves GET /v1/jobs: every job the server knows — queued,
// running, finished (until history eviction), and jobs restored from the
// durable store after a restart — so resumed jobs are discoverable
// without the client having remembered their IDs.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request, _ inbound) error {
	writeJSON(w, http.StatusOK, wire.JobsResponse{Jobs: s.jobs.list()})
	return nil
}
