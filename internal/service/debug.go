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
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/obs"
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

// peerClient fetches remote debug views during federation; the short
// timeout bounds the whole fan-out — a dead worker costs one timeout,
// not a hung request.
var peerClient = &http.Client{Timeout: 5 * time.Second}

// peerResult is one live worker's raw answer from a federated fan-out.
type peerResult struct {
	worker string
	found  bool   // false when the worker answered 404 (no data — a normal answer)
	body   []byte // raw JSON body when found
	err    error  // transport failure or non-200/404 status
}

// fanOutWorkers queries path on every live pool worker (static pool plus
// dynamic joins; workers whose heartbeats have expired are skipped)
// concurrently, each bounded by peerClient's timeout. Federated views
// never fail on a down worker: its error rides in its peerResult.
func (s *Server) fanOutWorkers(ctx context.Context, path string) []peerResult {
	workers := s.coordinator.Pool().Snapshot()
	out := make([]peerResult, 0, len(workers))
	for _, worker := range workers {
		if worker.State == "expired" {
			continue
		}
		out = append(out, peerResult{worker: worker.ID})
	}
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(p *peerResult) {
			defer wg.Done()
			p.body, p.found, p.err = fetchPeerJSON(ctx, p.worker, path)
		}(&out[i])
	}
	wg.Wait()
	return out
}

// fetchPeerJSON performs one federation GET. A 404 reports (nil, false,
// nil): the worker holds no data for the query, which is an answer, not
// a failure.
func fetchPeerJSON(ctx context.Context, baseURL, path string) ([]byte, bool, error) {
	ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		strings.TrimSuffix(baseURL, "/")+path, nil)
	if err != nil {
		return nil, false, err
	}
	resp, err := peerClient.Do(req)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, false, err
	}
	return body, true, nil
}

// decodePeerBody unmarshals a peer's raw federation answer.
func decodePeerBody(body []byte, v any) error { return json.Unmarshal(body, v) }

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

	for _, pr := range s.fanOutWorkers(r.Context(), "/debug/traces/"+url.PathEscape(id)) {
		workerCount++
		var spans []obs.SpanRecord
		if pr.err == nil && pr.found {
			var body struct {
				Spans []obs.SpanRecord `json:"spans"`
			}
			if err := decodePeerBody(pr.body, &body); err != nil {
				pr.err = err
			} else {
				spans = body.Spans
			}
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
	for _, pr := range s.fanOutWorkers(r.Context(), path) {
		p := traceProcess{Process: pr.worker}
		if pr.err == nil && pr.found {
			var body struct {
				Outliers []obs.OutlierTrace `json:"outliers"`
			}
			if err := decodePeerBody(pr.body, &body); err != nil {
				pr.err = err
			} else {
				for k := range body.Outliers {
					body.Outliers[k].Process = pr.worker
				}
				p.Outliers = len(body.Outliers)
				merged = append(merged, body.Outliers...)
			}
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
