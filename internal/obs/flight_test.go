package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestFlightRecordStampsWhen: Record stamps a zero When and keeps a set
// one.
func TestFlightRecordStampsWhen(t *testing.T) {
	f := NewFlightRecorder(64)
	f.Record(FlightRecord{Kind: FlightJob, ID: "job-1", State: "queued"})
	f.Record(FlightRecord{Kind: FlightLease, ID: "lease-1", State: "dispatched", When: 42})
	recs, _ := f.Snapshot()
	if recs[0].When == 0 {
		t.Error("Record did not stamp When")
	}
	if recs[1].When != 42 {
		t.Errorf("Record overwrote a set When: %d", recs[1].When)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(FlightRecord{Kind: FlightRequest}) // must not panic
	if recs, written := f.Snapshot(); recs != nil || written != 0 {
		t.Errorf("nil recorder snapshot = %v, %d", recs, written)
	}
}

// TestFlightDumpShape pins the JSON contract /debug/flight and the
// SIGQUIT handler serve: kind strings, omitempty on per-kind fields, hex
// trace IDs, and the written-vs-held drop indicator.
func TestFlightDumpShape(t *testing.T) {
	f := NewFlightRecorder(64)
	trace := NewTraceID()
	f.Record(FlightRecord{
		Kind: FlightRequest, Route: "explain", Status: 200, LatencyUS: 1234, Trace: trace,
	})
	f.Record(FlightRecord{
		Kind: FlightLease, ID: "lease-7", State: "abandoned", Spec: "uica@hsw", Err: "worker down",
	})
	f.Record(FlightRecord{Kind: FlightJob, ID: "job-3", State: "done", Spec: "uica@hsw"})

	var buf bytes.Buffer
	if err := f.WriteJSON(&buf, "coordinator"); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Errorf("dump is %d lines, want a single JSON line (SIGQUIT output is scanned per line)", n)
	}
	var dump struct {
		Process string           `json:"process"`
		Written uint64           `json:"written"`
		Records []map[string]any `json:"records"`
	}
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump does not parse: %v\n%s", err, buf.String())
	}
	if dump.Process != "coordinator" || dump.Written != 3 || len(dump.Records) != 3 {
		t.Fatalf("envelope: %+v", dump)
	}

	req := dump.Records[0]
	if req["kind"] != "request" || req["route"] != "explain" || req["status"] != float64(200) {
		t.Errorf("request record: %v", req)
	}
	if req["trace_id"] != trace.String() {
		t.Errorf("trace_id = %v, want %s", req["trace_id"], trace)
	}
	if _, has := req["id"]; has {
		t.Errorf("request record leaks empty lease/job fields: %v", req)
	}

	lease := dump.Records[1]
	if lease["kind"] != "lease" || lease["state"] != "abandoned" || lease["error"] != "worker down" {
		t.Errorf("lease record: %v", lease)
	}
	if _, has := lease["trace_id"]; has {
		t.Errorf("zero trace ID must be omitted: %v", lease)
	}

	job := dump.Records[2]
	if job["kind"] != "job" || job["id"] != "job-3" || job["spec"] != "uica@hsw" {
		t.Errorf("job record: %v", job)
	}
}

// TestFlightRecordAllocFree guards the warm-path budget: recording must
// not allocate (the binary hot path's 6-alloc bench gate includes a
// flight record per request).
func TestFlightRecordAllocFree(t *testing.T) {
	f := NewFlightRecorder(128)
	rec := FlightRecord{Kind: FlightRequest, Route: "explain", Status: 200, LatencyUS: 99}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(rec)
	})
	if allocs != 0 {
		t.Errorf("Record allocates %.1f times per call, want 0", allocs)
	}
}
