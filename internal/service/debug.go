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
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
)

// handleTraces serves GET /debug/traces: recently finished traces, most
// recent first — or, with ?outliers=1, the retained slow/5xx traces.
// ?limit= caps the listing (default 100), ?route= keeps one route, and
// ?min_ms= drops entries faster than the threshold.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request, _ inbound) error {
	if !s.tracer.Enabled() {
		return errTracingOff
	}
	limit, err := queryInt(r, "limit", 100)
	if err != nil {
		return err
	}
	minMS, err := queryInt(r, "min_ms", 0)
	if err != nil {
		return err
	}
	q := r.URL.Query()
	route := q.Get("route")
	if q.Get("outliers") == "1" {
		if q.Get("cluster") == "1" && s.coordinator != nil {
			s.serveFederatedOutliers(w, r, route, minMS, limit)
			return nil
		}
		outliers, written := s.outliers.Snapshot()
		writeJSON(w, http.StatusOK, map[string]any{
			"outliers": filterOutliers(outliers, route, minMS, limit),
			"written":  written,
		})
		return nil
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
	return nil
}

// errTracingOff answers the trace views of a server started with tracing
// disabled.
var errTracingOff = errorf(http.StatusNotFound, "tracing is disabled (trace sample rate < 0)")

// filterOutliers applies the listing filters to an already newest-first
// outlier snapshot.
func filterOutliers(in []obs.OutlierTrace, route string, minMS, limit int) []obs.OutlierTrace {
	out := make([]obs.OutlierTrace, 0, len(in))
	for _, o := range in {
		if route != "" && o.Route != route {
			continue
		}
		if minMS > 0 && o.DurationUS < int64(minMS)*1000 {
			continue
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
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request, _ inbound) error {
	if !s.tracer.Enabled() {
		return errTracingOff
	}
	id := r.PathValue("id")
	spans := s.tracer.Ring().Trace(id)
	if r.URL.Query().Get("cluster") == "1" && s.coordinator != nil {
		return s.serveFederatedTrace(w, r, id, spans)
	}
	if len(spans) == 0 {
		return errorf(http.StatusNotFound, "no spans recorded for trace %q (the ring is bounded; old traces age out)", id)
	}
	writeJSON(w, http.StatusOK, map[string]any{"trace_id": id, "spans": spans})
	return nil
}

// processView is one process's entry in a federated view: its label and
// what it contributed, or why it could not be queried (down worker,
// timeout), in which case its contribution is simply missing.
type processView struct {
	Process  string           `json:"process"`
	Spans    int              `json:"spans,omitempty"`
	Outliers int              `json:"outliers,omitempty"`
	Error    string           `json:"error,omitempty"`
	History  *obs.HistoryDump `json:"history,omitempty"`
}

// peerAnswer is one process's answer in a federated view.
type peerAnswer[T any] struct {
	view processView
	data *T // nil when the process holds no data (a 404) or failed
}

// federate answers a federated view: this process's answer first, then
// one per live pool worker (static pool plus dynamic joins; workers whose
// heartbeats have expired are skipped), each labeled with its process.
// Workers are queried for path concurrently, without ?cluster=1 — so
// federation never recurses — and each is bounded by a 5-second timeout:
// a dead worker costs one timeout, not a hung request. Federated views
// never fail on a down worker: its error (transport failure, status other
// than 200/404, or undecodable body) rides in its answer. A 404 is an
// answer, not a failure: the worker holds no data for the query.
func federate[T any](ctx context.Context, s *Server, path string, local *T, label func(*T, string)) []peerAnswer[T] {
	out := []peerAnswer[T]{{view: processView{Process: s.cfg.ProcessLabel}, data: local}}
	for _, worker := range s.coordinator.Pool().Snapshot() {
		if worker.State != "expired" {
			out = append(out, peerAnswer[T]{view: processView{Process: worker.ID}})
		}
	}
	var wg sync.WaitGroup
	for i := 1; i < len(out); i++ {
		wg.Add(1)
		go func(p *peerAnswer[T]) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(ctx, 5*time.Second)
			defer cancel()
			var err error
			p.data, err = wire.Call[T](ctx, http.DefaultClient, p.view.Process+path, "", nil)
			var se *wire.StatusError
			if err != nil && !(errors.As(err, &se) && se.Code == http.StatusNotFound) {
				p.view.Error = err.Error()
			}
		}(&out[i])
	}
	wg.Wait()
	for i := range out {
		if out[i].data != nil {
			label(out[i].data, out[i].view.Process)
		}
	}
	return out
}

// serveFederatedTrace answers GET /debug/traces/{id}?cluster=1 on a
// coordinator: the trace's spans on every process, merged into one
// parent-linked set.
func (s *Server) serveFederatedTrace(w http.ResponseWriter, r *http.Request, id string, local []obs.SpanRecord) error {
	type traceBody struct {
		Spans []obs.SpanRecord `json:"spans"`
	}
	answers := federate(r.Context(), s, "/debug/traces/"+url.PathEscape(id), &traceBody{local},
		func(b *traceBody, process string) {
			for k := range b.Spans {
				b.Spans[k].Process = process
			}
		})
	processes := make([]processView, len(answers))
	groups := make([][]obs.SpanRecord, len(answers))
	for i, a := range answers {
		if a.data != nil {
			groups[i] = a.data.Spans
		}
		processes[i] = a.view
		processes[i].Spans = len(groups[i])
	}
	merged := obs.MergeSpans(groups...)
	if len(merged) == 0 {
		return errorf(http.StatusNotFound,
			"no spans recorded for trace %q on the coordinator or any of %d workers", id, len(answers)-1)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id":  id,
		"cluster":   true,
		"processes": processes,
		"spans":     merged,
	})
	return nil
}

// serveFederatedOutliers answers GET /debug/traces?outliers=1&cluster=1:
// the coordinator's retained outliers merged with every live worker's,
// newest first, each labeled with the process that retained it. The
// request's filters are forwarded, so workers ship only what the view
// keeps.
func (s *Server) serveFederatedOutliers(w http.ResponseWriter, r *http.Request, route string, minMS, limit int) {
	type outlierBody struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
	}
	q := r.URL.Query()
	q.Del("cluster")
	local, _ := s.outliers.Snapshot()
	answers := federate(r.Context(), s, "/debug/traces?"+q.Encode(), &outlierBody{filterOutliers(local, route, minMS, 0)},
		func(b *outlierBody, process string) {
			for k := range b.Outliers {
				b.Outliers[k].Process = process
			}
		})
	processes := make([]processView, len(answers))
	merged := []obs.OutlierTrace{}
	for i, a := range answers {
		processes[i] = a.view
		if a.data != nil {
			processes[i].Outliers = len(a.data.Outliers)
			merged = append(merged, a.data.Outliers...)
		}
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
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request, _ inbound) error {
	w.Header().Set("Content-Type", "application/json")
	_ = s.flight.WriteJSON(w, s.cfg.ProcessLabel)
	return nil
}
