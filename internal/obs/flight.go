package obs

// The flight recorder is the process's black box: a fixed-size,
// allocation-bounded ring holding one compact record per request served,
// lease transition, and corpus-job state change — regardless of trace
// sampling, which only decides whether *spans* are recorded. When a
// server wedges or crashes, the recorder is what is left to read: dumped
// as JSON by GET /debug/flight while the process lives, and to stderr on
// SIGQUIT on the way out.
//
// Recording must be cheap enough for the binary warm path's alloc budget:
// a record is a flat struct of pre-existing strings and a raw trace ID,
// copied by value into a preallocated slot under a mutex. Nothing is
// formatted, boxed, or hex-encoded until dump time.

import (
	"encoding/json"
	"io"
	"time"
)

// FlightKind classifies a flight record. New kinds append to the list —
// see CONTRIBUTING.md before adding one.
type FlightKind uint8

const (
	// FlightRequest is one finished HTTP request (every route, every
	// status, sampled or not).
	FlightRequest FlightKind = iota
	// FlightLease is one cluster-lease transition: dispatched, completed,
	// failed, abandoned (coordinator side) or executed (worker side).
	FlightLease
	// FlightJob is one corpus-job state transition (queued, running,
	// done, failed, canceled).
	FlightJob
	// FlightOutlier is one request committed to the outlier trace ring
	// (slower than the slow threshold, or status ≥ 500); State carries
	// the reason, so a SIGQUIT dump cross-references the retained traces
	// in /debug/traces?outliers=1 by trace ID.
	FlightOutlier
)

// String renders the kind for dumps.
func (k FlightKind) String() string {
	switch k {
	case FlightRequest:
		return "request"
	case FlightLease:
		return "lease"
	case FlightJob:
		return "job"
	case FlightOutlier:
		return "outlier"
	}
	return "unknown"
}

// FlightRecord is one black-box entry. Fields are populated per kind:
// requests carry Route/Status/LatencyUS, leases and jobs carry
// ID/State/Spec; Trace is set whenever the event belongs to a trace
// (even an unsampled one). All strings must be pre-existing (route
// names, state constants, IDs already in memory) so recording never
// allocates.
type FlightRecord struct {
	Kind      FlightKind
	When      int64 // unix nanoseconds; stamped by Record when zero
	Route     string
	Status    int
	LatencyUS int64
	Trace     TraceID
	Spec      string
	ID        string // job or lease ID
	State     string // transition: running, completed, abandoned, ...
	Err       string // error class, "" when the event succeeded
}

// FlightRecorder is the bounded ring. The zero size is sized up to a
// minimum; a nil recorder records nothing (so wiring is optional).
type FlightRecorder struct {
	ring[FlightRecord]
}

// NewFlightRecorder builds a recorder holding size records (minimum 64).
func NewFlightRecorder(size int) *FlightRecorder {
	if size < 64 {
		size = 64
	}
	return &FlightRecorder{newRing[FlightRecord](size)}
}

// Record appends one record, overwriting the oldest when full. It is a
// struct copy into a preallocated slot under a mutex: no allocation, no
// formatting, safe from any goroutine.
func (f *FlightRecorder) Record(rec FlightRecord) {
	if f == nil {
		return
	}
	if rec.When == 0 {
		rec.When = time.Now().UnixNano()
	}
	f.add(rec)
}

// Snapshot returns the ring contents oldest-first, plus the total number
// of records ever written (so a reader can tell how much history the
// ring has already forgotten).
func (f *FlightRecorder) Snapshot() ([]FlightRecord, uint64) {
	if f == nil {
		return nil, 0
	}
	return f.snapshot()
}

// flightJSON is the dump form of one record; expensive encodings (hex
// trace IDs, RFC 3339 times) happen only here.
type flightJSON struct {
	Kind      string    `json:"kind"`
	Time      time.Time `json:"time"`
	Route     string    `json:"route,omitempty"`
	Status    int       `json:"status,omitempty"`
	LatencyUS int64     `json:"latency_us,omitempty"`
	TraceID   string    `json:"trace_id,omitempty"`
	Spec      string    `json:"spec,omitempty"`
	ID        string    `json:"id,omitempty"`
	State     string    `json:"state,omitempty"`
	Error     string    `json:"error,omitempty"`
}

// FlightDump is the JSON envelope written by WriteJSON — also the shape
// GET /debug/flight serves and the SIGQUIT handler prints.
type FlightDump struct {
	// Process labels the dumping process (a role or address); optional.
	Process string `json:"process,omitempty"`
	// Written is the total number of records ever recorded; when it
	// exceeds len(Records) the ring has dropped the difference.
	Written uint64       `json:"written"`
	Records []flightJSON `json:"records"`
}

// Dump snapshots the recorder into its JSON envelope.
func (f *FlightRecorder) Dump(process string) FlightDump {
	recs, seq := f.Snapshot()
	out := FlightDump{Process: process, Written: seq, Records: make([]flightJSON, len(recs))}
	for i, r := range recs {
		j := flightJSON{
			Kind:      r.Kind.String(),
			Time:      time.Unix(0, r.When).UTC(),
			Route:     r.Route,
			Status:    r.Status,
			LatencyUS: r.LatencyUS,
			Spec:      r.Spec,
			ID:        r.ID,
			State:     r.State,
			Error:     r.Err,
		}
		if !r.Trace.IsZero() {
			j.TraceID = r.Trace.String()
		}
		out.Records[i] = j
	}
	return out
}

// WriteJSON writes the dump envelope as a single JSON document.
func (f *FlightRecorder) WriteJSON(w io.Writer, process string) error {
	return json.NewEncoder(w).Encode(f.Dump(process))
}
