package service

// Trace inspection endpoints. Finished spans live in a bounded
// in-process ring (obs.Ring); these handlers are the only way out. They
// are debugging surface, not an export pipeline: the ring forgets, the
// JSON is small, and a trace that spans processes (coordinator + worker)
// is assembled by GET /debug/traces/{id}?cluster=1 — the coordinator
// fans the trace ID out to every worker in its pool and merges the
// remote spans with its own into one parent-linked tree.
//
// GET /debug/traces?outliers=1 lists the retained outlier traces: the
// slow/5xx requests whose full span trees were committed at request end
// regardless of head sampling. ?route= and ?min_ms= filter both
// listings; ?cluster=1 federates the outlier view like the trace view.
//
// GET /debug/flight dumps the flight recorder: the black-box ring of
// request/lease/job/outlier records kept regardless of trace sampling.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
)

// handleTraces serves GET /debug/traces: recently finished traces, most
// recent first — or, with ?outliers=1, the retained slow/5xx traces.
// ?limit= caps the listing (default 100), ?route= keeps one route, and
// ?min_ms= drops entries faster than the threshold.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if !s.tracer.Enabled() {
		writeError(w, http.StatusNotFound, "tracing is disabled (trace sample rate < 0)")
		return
	}
	limit, err := queryInt(r, "limit", 100)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	minMS, err := queryInt(r, "min_ms", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	q := r.URL.Query()
	route := q.Get("route")
	if q.Get("outliers") == "1" {
		if q.Get("cluster") == "1" && s.coordinator != nil {
			s.serveFederatedOutliers(w, r, route, minMS, limit)
			return
		}
		outliers, written := s.outliers.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"outliers": filterOutliers(outliers, "", route, minMS, limit),
			"written":  written,
		})
		return
	}
	all := s.tracer.Ring().Traces(0)
	traces := make([]obs.TraceSummary, 0, len(all))
	for _, ts := range all {
		if route != "" && ts.Root != route && ts.Root != "http."+route {
			continue
		}
		if minMS > 0 && ts.DurationUS < int64(minMS)*1000 {
			continue
		}
		traces = append(traces, ts)
		if limit > 0 && len(traces) == limit {
			break
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": traces})
}

// filterOutliers applies the listing filters to an already newest-first
// outlier snapshot, labeling each entry with process when non-empty.
func filterOutliers(in []obs.OutlierTrace, process, route string, minMS, limit int) []obs.OutlierTrace {
	out := make([]obs.OutlierTrace, 0, len(in))
	for _, o := range in {
		if route != "" && o.Route != route {
			continue
		}
		if minMS > 0 && o.DurationUS < int64(minMS)*1000 {
			continue
		}
		if process != "" {
			o.Process = process
		}
		out = append(out, o)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// handleTrace serves GET /debug/traces/{id}: every span the ring still
// holds for one trace, oldest first. With ?cluster=1 on a coordinator,
// the response is the federated view: local spans merged with the spans
// every pool worker holds for the same trace ID, each labeled with the
// process that recorded it.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if !s.tracer.Enabled() {
		writeError(w, http.StatusNotFound, "tracing is disabled (trace sample rate < 0)")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "no such trace")
		return
	}
	spans := s.tracer.Ring().Trace(id)
	if r.URL.Query().Get("cluster") == "1" && s.coordinator != nil {
		s.serveFederatedTrace(w, r, id, spans)
		return
	}
	if len(spans) == 0 {
		writeError(w, http.StatusNotFound, "no spans recorded for trace %q (the ring is bounded; old traces age out)", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
}

// peerAnswer is one live worker's answer from a federated fan-out.
type peerAnswer[T any] struct {
	worker string
	data   *T    // nil when the worker holds no data (a 404) or failed
	err    error // transport failure, status other than 200/404, or undecodable body
}

// fanOut GETs path from every live pool worker (static pool plus
// dynamic joins; workers whose heartbeats have expired are skipped)
// concurrently, each bounded by a 5-second timeout — a dead worker costs
// one timeout, not a hung request. Federated views never fail on a down
// worker: its error rides in its answer. A 404 is an answer, not a
// failure: the worker holds no data for the query.
func fanOut[T any](ctx context.Context, pool *cluster.Pool, path string) []peerAnswer[T] {
	var out []peerAnswer[T]
	for _, worker := range pool.Snapshot() {
		if worker.State != "expired" {
			out = append(out, peerAnswer[T]{worker: worker.ID})
		}
	}
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(p *peerAnswer[T]) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			p.data, p.err = wire.Call[T](ctx, http.DefaultClient, p.worker+path, "", nil)
			var se *wire.StatusError
			if errors.As(p.err, &se) && se.Code == http.StatusNotFound {
				p.err = nil
			}
		}(&out[i])
	}
	wg.Wait()
	return out
}

// traceProcess summarizes one process's contribution to a federated
// view (spans of one trace, or retained outliers).
type traceProcess struct {
	Process  string `json:"process"`
	Spans    int    `json:"spans,omitempty"`
	Outliers int    `json:"outliers,omitempty"`
	// Error is set when the process could not be queried (down worker,
	// timeout); its contribution is simply missing from the merged view.
	Error string `json:"error,omitempty"`
}

// serveFederatedTrace answers GET /debug/traces/{id}?cluster=1 on a
// coordinator: concurrent fan-out of the trace ID to every live worker,
// then a merge of remote and local spans into one parent-linked set.
// Workers are queried without ?cluster=1, so federation never recurses.
func (s *Server) serveFederatedTrace(w http.ResponseWriter, r *http.Request, id string, local []obs.SpanRecord) {
	for i := range local {
		local[i].Process = s.cfg.ProcessLabel
	}
	processes := []traceProcess{{Process: s.cfg.ProcessLabel, Spans: len(local)}}
	groups := [][]obs.SpanRecord{local}
	workerCount := 0

	type traceBody struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	for _, pr := range fanOut[traceBody](r.Context(), s.coordinator.Pool(), "/debug/traces/"+url.PathEscape(id)) {
		workerCount++
		var spans []obs.SpanRecord
		if pr.data != nil {
			spans = pr.data.Spans
		}
		for k := range spans {
			spans[k].Process = pr.worker
		}
		p := traceProcess{Process: pr.worker, Spans: len(spans)}
		if pr.err != nil {
			p.Error = pr.err.Error()
		}
		processes = append(processes, p)
		groups = append(groups, spans)
	}

	merged := obs.MergeSpans(groups...)
	if len(merged) == 0 {
		writeError(w, http.StatusNotFound,
			"no spans recorded for trace %q on the coordinator or any of %d workers", id, workerCount)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id":  id,
		"cluster":   true,
		"processes": processes,
		"spans":     merged,
	})
}

// serveFederatedOutliers answers GET /debug/traces?outliers=1&cluster=1:
// the coordinator's retained outliers merged with every live worker's,
// newest first, each labeled with the process that retained it. Filters
// are forwarded, so workers ship only what the view keeps.
func (s *Server) serveFederatedOutliers(w http.ResponseWriter, r *http.Request, route string, minMS, limit int) {
	local, _ := s.outliers.Snapshot()
	merged := filterOutliers(local, s.cfg.ProcessLabel, route, minMS, 0)
	processes := []traceProcess{{Process: s.cfg.ProcessLabel, Outliers: len(merged)}}

	path := "/debug/traces?outliers=1"
	if route != "" {
		path += "&route=" + url.QueryEscape(route)
	}
	if minMS > 0 {
		path += fmt.Sprintf("&min_ms=%d", minMS)
	}
	if limit > 0 {
		path += fmt.Sprintf("&limit=%d", limit)
	}
	type outlierBody struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
	}
	for _, pr := range fanOut[outlierBody](r.Context(), s.coordinator.Pool(), path) {
		p := traceProcess{Process: pr.worker}
		if pr.data != nil {
			for k := range pr.data.Outliers {
				pr.data.Outliers[k].Process = pr.worker
			}
			p.Outliers = len(pr.data.Outliers)
			merged = append(merged, pr.data.Outliers...)
		}
		if pr.err != nil {
			p.Error = pr.err.Error()
		}
		processes = append(processes, p)
	}
	sort.SliceStable(merged, func(i, j int) bool { return merged[i].Start.After(merged[j].Start) })
	if limit > 0 && len(merged) > limit {
		merged = merged[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cluster":   true,
		"processes": processes,
		"outliers":  merged,
	})
}

// handleFlight serves GET /debug/flight: the flight recorder's current
// contents as one JSON document — the same dump a SIGQUIT writes to
// stderr.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = s.flight.WriteJSON(w, s.cfg.ProcessLabel)
}
