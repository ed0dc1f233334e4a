package service

// Streaming job results: GET /v1/jobs/{id}/stream delivers every corpus
// result in completion order as a chunked response, so a client consumes
// a million-block job without the server (or the client) ever holding
// the full result set. The default encoding is NDJSON — one
// wire.StreamEvent per line — and a client whose Accept header lists
// application/x-comet-frame gets raw binary frames instead: one
// CorpusResult frame per result, a JobSummary frame as the terminal
// event, and a framed wire.Error on lag.

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"github.com/comet-explain/comet/internal/wire"
)

// waitStream blocks until the job has results past cursor, reaches a
// terminal state, or cancelled reports true. It returns the next batch
// (copied into buf), the new cursor, whether the reader fell behind the
// catch-up ring, and — once everything has been delivered — the terminal
// summary.
func (j *job) waitStream(cursor int, buf []wire.CorpusResult, cancelled func() bool) (out []wire.CorpusResult, next int, lagged bool, done *wire.JobSummary) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.notify == nil {
		j.notify = sync.NewCond(&j.mu)
	}
	for {
		if cancelled() {
			return nil, cursor, false, nil
		}
		if cursor < j.trimmed {
			return nil, cursor, true, nil
		}
		if avail := j.trimmed + len(j.results); cursor < avail {
			out = append(buf[:0], j.results[cursor-j.trimmed:]...)
			return out, avail, false, nil
		}
		switch j.state {
		case wire.JobDone, wire.JobFailed, wire.JobCanceled:
			sum := j.summaryLocked()
			return nil, cursor, false, &sum
		}
		j.notify.Wait()
	}
}

// handleJobStream serves GET /v1/jobs/{id}/stream. It works for every
// job — live or finished — and is the only way to read results of a
// stream job (CorpusRequest.Stream), which retains just a bounded
// catch-up ring; a reader that falls behind the ring gets a lag error
// event instead of stalling the job.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request, in inbound) error {
	j, err := s.pathJob(r)
	if err != nil {
		return err
	}
	if in.binResp {
		w.Header().Set("Content-Type", wire.FrameContentType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// cond.Wait cannot watch a context, so disconnects and server
	// shutdown wake the waiters explicitly.
	ctx := r.Context()
	defer context.AfterFunc(ctx, j.wake)()
	defer context.AfterFunc(s.ctx, j.wake)()
	cancelled := func() bool { return ctx.Err() != nil || s.ctx.Err() != nil }

	var scratch []byte // frame build buffer, reused across events
	writeEvent := func(ev wire.StreamEvent) bool {
		var b []byte
		var err error
		if in.binResp {
			var msg any
			switch {
			case ev.Result != nil:
				msg = ev.Result
			case ev.Done != nil:
				msg = ev.Done
			default:
				msg = &wire.Error{Error: ev.Error}
			}
			b, err = wire.AppendBinary(scratch[:0], msg)
			scratch = b
		} else {
			b, err = json.Marshal(&ev)
			b = append(b, '\n')
		}
		if err != nil {
			return false
		}
		_, werr := w.Write(b)
		return werr == nil
	}

	cursor := 0
	var buf []wire.CorpusResult
	for {
		out, next, lagged, done := j.waitStream(cursor, buf, cancelled)
		cursor, buf = next, out
		switch {
		case lagged:
			writeEvent(wire.StreamEvent{Error: fmt.Sprintf(
				"stream lagged: results before %d were evicted from the catch-up ring (size %d)", j.trimmedCount(), j.ringCap)})
			return nil
		case done != nil:
			writeEvent(wire.StreamEvent{Done: done})
			return nil
		case len(out) == 0:
			return nil // client gone or server draining
		}
		for i := range out {
			if !writeEvent(wire.StreamEvent{Result: &out[i]}) {
				return nil
			}
		}
		s.metrics.streamedResults.Add(uint64(len(out)))
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// trimmedCount reads the ring-eviction watermark under the job lock.
func (j *job) trimmedCount() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.trimmed
}
