package service

// Tests for the telemetry-history and outlier-retention surfaces:
// GET /debug/history (local and federated, including a down worker),
// outlier commitment despite head sampling, the /debug/traces filters,
// and the slow-request counter.

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// historyConfig disables the background sampler so tests tick the
// history deterministically via Sample().
func historyConfig() Config {
	return Config{HistoryInterval: -1}
}

func seriesByName(d obs.HistoryDump) map[string]obs.HistorySeries {
	out := make(map[string]obs.HistorySeries, len(d.Series))
	for _, s := range d.Series {
		out[s.Name] = s
	}
	return out
}

// TestDebugHistoryEndpoint: the sampler snapshots live counters into
// aligned rings and /debug/history serves them with server-computed
// rates — a request made between two ticks shows up as a per-second
// rate, not a raw counter.
func TestDebugHistoryEndpoint(t *testing.T) {
	s, ts := newTestServer(t, historyConfig())

	s.history.Sample() // prime rate baselines
	if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	s.history.Sample()

	var dump obs.HistoryDump
	if resp := getJSON(t, ts.URL+"/debug/history", &dump); resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/history: status %d", resp.StatusCode)
	}
	if dump.Process != "local" || dump.Samples != 2 || dump.Retention != 600 {
		t.Fatalf("dump envelope: process=%q samples=%d retention=%d", dump.Process, dump.Samples, dump.Retention)
	}
	series := seriesByName(dump)

	// One explain request between the ticks at the 1s-labeled interval:
	// the second point of route.explain.rps is 1 req/s.
	rps, ok := series["route.explain.rps"]
	if !ok {
		t.Fatalf("no route.explain.rps series (have %d series)", len(series))
	}
	if rps.Kind != obs.SeriesRate || len(rps.Points) != 2 {
		t.Fatalf("route.explain.rps: %+v", rps)
	}
	if got := float64(rps.Last); got != 1 {
		t.Errorf("route.explain.rps last = %v, want 1", got)
	}
	if got := float64(series["route.explain.rps_2xx"].Last); got != 1 {
		t.Errorf("route.explain.rps_2xx last = %v, want 1", got)
	}
	// The per-tick p99 must be a real bucket bound, in milliseconds.
	if got := float64(series["route.explain.p99_ms"].Last); !(got > 0) {
		t.Errorf("route.explain.p99_ms last = %v, want > 0", got)
	}
	// The explanation was computed (cold caches): computed_rps ticks.
	if got := float64(series["explain.computed_rps"].Last); got != 1 {
		t.Errorf("explain.computed_rps last = %v, want 1", got)
	}
	// Gauges and the per-spec quality series registered by the hook.
	for _, name := range []string{
		"queue.explain_waiting", "queue.jobs", "jobs.running",
		"runtime.goroutines", "runtime.heap_bytes",
		"hit_rate.persist", "hit_rate.result_store",
		"spec.uica@hsw.explanations_rps", "spec.uica@hsw.precision_mean",
	} {
		if _, ok := series[name]; !ok {
			t.Errorf("missing history series %q", name)
		}
	}
	// The spec series were registered by this tick's hook, so this tick
	// only primed their baselines; a second computed explain makes the
	// next tick show a real rate and a real windowed precision.
	if resp, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: "mov rax, rbx\nadd rbx, rcx", Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatal("second explain failed")
	}
	s.history.Sample()
	getJSON(t, ts.URL+"/debug/history", &dump)
	series = seriesByName(dump)
	if got := float64(series["spec.uica@hsw.explanations_rps"].Last); got != 1 {
		t.Errorf("spec.uica@hsw.explanations_rps last = %v, want 1", got)
	}
	if p := float64(series["spec.uica@hsw.precision_mean"].Last); !(p > 0 && p <= 1) {
		t.Errorf("spec.uica@hsw.precision_mean last = %v, want a fraction", p)
	}

	// A cache-hit repeat: result_store hit rate for the next tick is 1.
	if resp, _ := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatal("repeat explain failed")
	}
	s.history.Sample()
	getJSON(t, ts.URL+"/debug/history", &dump)
	if got := float64(seriesByName(dump)["hit_rate.result_store"].Last); got != 1 {
		t.Errorf("hit_rate.result_store after a pure cache-hit tick = %v, want 1", got)
	}
}

// TestInternHitRateCountsOnlyExplainFrames: hit_rate.intern divides
// frame-key hits by frame-key probes, which only binary explain requests
// make. Binary predicts decode frames too but never probe, so two of
// them before one miss and one hit leave the rate at 1/2.
func TestInternHitRateCountsOnlyExplainFrames(t *testing.T) {
	s, ts := newTestServer(t, historyConfig())
	s.history.Sample() // prime the baselines

	predict := &wire.PredictRequest{Blocks: []string{testBlock}, Model: "uica", Arch: "hsw"}
	explain := &wire.ExplainRequest{Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides()}
	steps := []struct {
		route string
		msg   any
	}{{"predict", predict}, {"predict", predict}, {"explain", explain}, {"explain", explain}}
	for _, st := range steps {
		if resp, body := postFrame(t, ts.URL+"/v1/"+st.route, st.msg); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", st.route, resp.StatusCode, body)
		}
	}
	s.history.Sample()

	var dump obs.HistoryDump
	getJSON(t, ts.URL+"/debug/history", &dump)
	if got := float64(seriesByName(dump)["hit_rate.intern"].Last); got != 0.5 {
		t.Errorf("hit_rate.intern after 2 binary predicts and a binary explain sent twice = %v, want 0.5", got)
	}
}

// TestFederatedHistoryDownWorker: ?cluster=1 on a coordinator returns
// one history per cluster process; a dead worker contributes an error
// entry without failing the view or hiding the live ones.
func TestFederatedHistoryDownWorker(t *testing.T) {
	worker, workerTS := newTestServer(t, historyConfig())
	worker.SetReady()
	worker.history.Sample()
	worker.history.Sample()

	deadURL := "http://127.0.0.1:1" // reserved port: connection refused fast
	coord, coordTS := newTestServer(t, Config{
		HistoryInterval: -1,
		ClusterWorkers:  []string{workerTS.URL, deadURL},
		Cluster: cluster.Options{
			LeaseBlocks:  1,
			ProbeBackoff: 10 * time.Millisecond,
			Tick:         5 * time.Millisecond,
		},
	})
	coord.history.Sample()

	var fed struct {
		Cluster   bool `json:"cluster"`
		Processes []struct {
			Process string           `json:"process"`
			Error   string           `json:"error"`
			History *obs.HistoryDump `json:"history"`
		} `json:"processes"`
	}
	if resp := getJSON(t, coordTS.URL+"/debug/history?cluster=1", &fed); resp.StatusCode != http.StatusOK {
		t.Fatalf("federated history: status %d", resp.StatusCode)
	}
	if !fed.Cluster || len(fed.Processes) != 3 {
		t.Fatalf("federated envelope: cluster=%v processes=%d, want 3", fed.Cluster, len(fed.Processes))
	}
	byProc := map[string]int{}
	for i, p := range fed.Processes {
		byProc[p.Process] = i
	}
	local := fed.Processes[byProc["coordinator"]]
	if local.Error != "" || local.History == nil || local.History.Samples != 1 {
		t.Errorf("coordinator entry: %+v", local)
	}
	live := fed.Processes[byProc[workerTS.URL]]
	if live.Error != "" || live.History == nil || live.History.Samples != 2 {
		t.Errorf("live worker entry: err=%q history=%v", live.Error, live.History)
	}
	if live.History != nil && live.History.Process != workerTS.URL {
		t.Errorf("live worker history labeled %q, want %q", live.History.Process, workerTS.URL)
	}
	dead := fed.Processes[byProc[deadURL]]
	if dead.Error == "" || dead.History != nil {
		t.Errorf("dead worker entry should carry an error and no history: %+v", dead)
	}
}

// TestOutlierRetention: with a 1ms slow threshold and head sampling
// effectively off, a computed explain request still commits its full
// span tree to the outlier ring — the trace head sampling would have
// thrown away — and ticks comet_slow_requests_total plus the flight
// recorder.
func TestOutlierRetention(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TraceSample: 1 << 30, // head sampling effectively never fires
		TraceSlowMS: 1,
	})

	resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	if traceID == "" {
		t.Fatal("explain response carries no trace ID")
	}

	var got struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
		Written  uint64             `json:"written"`
	}
	getJSON(t, ts.URL+"/debug/traces?outliers=1&route=explain", &got)
	if len(got.Outliers) != 1 {
		t.Fatalf("retained %d explain outliers, want 1: %+v", len(got.Outliers), got.Outliers)
	}
	o := got.Outliers[0]
	if o.TraceID != traceID || o.Route != "explain" || o.Reason != obs.OutlierSlow || o.Status != 200 {
		t.Fatalf("outlier: %+v", o)
	}
	if o.DurationUS < 1000 {
		t.Errorf("outlier duration %dus under the 1ms threshold", o.DurationUS)
	}
	// The full span tree was captured despite the unsampled head decision:
	// the http root plus the compute stage underneath it.
	names := map[string]obs.SpanRecord{}
	for _, sp := range o.Spans {
		names[sp.Name] = sp
	}
	root, ok := names["http.explain"]
	if !ok {
		t.Fatalf("outlier has no http.explain root: %v", names)
	}
	compute, ok := names["svc.compute"]
	if !ok {
		t.Fatalf("outlier trace lost the compute span: %v", names)
	}
	if compute.TraceID != traceID || root.Attrs["status"] != "200" {
		t.Errorf("root/compute records: %+v / %+v", root, compute)
	}

	// The main ring must NOT hold the trace: it was unsampled.
	if resp := getJSON(t, ts.URL+"/debug/traces/"+traceID, nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unsampled outlier leaked into the main ring: status %d", resp.StatusCode)
	}

	// Counter and flight record agree.
	if text := fetchMetrics(t, ts.URL); !strings.Contains(text, `comet_slow_requests_total{route="explain"} 1`) {
		t.Errorf("metrics missing the slow-request counter")
	}
	_, recs := flightDump(t, ts.URL)
	found := false
	for _, r := range recs {
		if r["kind"] == "outlier" && r["route"] == "explain" {
			found = true
			if r["trace_id"] != traceID || r["state"] != obs.OutlierSlow {
				t.Errorf("outlier flight record: %v", r)
			}
		}
	}
	if !found {
		t.Error("no outlier record in the flight recorder")
	}
}

// TestOutlierErrorReason: a 5xx commits with reason "error" regardless
// of latency.
func TestOutlierErrorReason(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TraceSample: 1 << 30,
		TraceSlowMS: 60_000, // slowness can't trigger; only the status can
	})
	// A cold server's /readyz answers 503 — a real ≥500 on a hot route.
	if resp := getJSON(t, ts.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("cold /readyz: status %d", resp.StatusCode)
	}
	var got struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
	}
	getJSON(t, ts.URL+"/debug/traces?outliers=1", &got)
	if len(got.Outliers) != 1 {
		t.Fatalf("retained %d outliers, want 1", len(got.Outliers))
	}
	if o := got.Outliers[0]; o.Route != "readyz" || o.Reason != obs.OutlierError || o.Status != 503 {
		t.Fatalf("outlier: %+v", o)
	}
}

// TestJobStreamIsNeverSlow: a job stream lasts as long as its job, so a
// stream held open past the slow threshold commits no outlier, while a
// slow explain request on the same server still does.
func TestJobStreamIsNeverSlow(t *testing.T) {
	s, ts := newTestServer(t, Config{TraceSample: 1 << 30, TraceSlowMS: 1})
	gate := newGateModel()
	s.RegisterModel("gate", x86.Haswell, gate, 0)
	resp, body := postJSON(t, ts.URL+"/v1/corpus", wire.CorpusRequest{
		Blocks: []string{testBlock}, Model: "gate", Config: fastOverrides(), Stream: true,
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d: %s", resp.StatusCode, body)
	}
	var acc wire.JobAccepted
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	<-gate.started
	// The job finishes, and with it the stream, only once the gate opens.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate.release)
	}()
	// Reading the stream to EOF waits for the job's terminal event.
	stream, err := http.Get(ts.URL + "/v1/jobs/" + acc.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	traceID := stream.Header.Get("X-Comet-Trace-Id")
	if traceID == "" {
		t.Fatal("the stream response carries no X-Comet-Trace-Id")
	}
	if _, err := io.Copy(io.Discard, stream.Body); err != nil {
		t.Fatal(err)
	}
	stream.Body.Close()

	_, recs := flightDump(t, ts.URL)
	var streamUS float64
	for _, r := range recs {
		if r["kind"] == "request" && r["trace_id"] == traceID {
			streamUS = r["latency_us"].(float64)
		}
	}
	if streamUS < 1000 {
		t.Fatalf("the stream took %vus, under the 1ms threshold", streamUS)
	}
	var got struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
	}
	getJSON(t, ts.URL+"/debug/traces?outliers=1&route=jobs", &got)
	for _, o := range got.Outliers {
		if o.TraceID == traceID {
			t.Errorf("a job stream was retained as an outlier: %+v", o)
		}
	}
	if text := fetchMetrics(t, ts.URL); strings.Contains(text, `comet_slow_requests_total{route="jobs"}`) {
		t.Error("a job stream ticked the jobs route's slow counter")
	}

	if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/debug/traces?outliers=1&route=explain", &got)
	if len(got.Outliers) != 1 || got.Outliers[0].Reason != obs.OutlierSlow {
		t.Errorf("slow explain outliers: %+v, want one", got.Outliers)
	}
}

// TestTraceListFilters: ?route= and ?min_ms= narrow both the trace
// listing and the outlier listing; ?limit= caps them.
func TestTraceListFilters(t *testing.T) {
	_, ts := newTestServer(t, Config{
		TraceSample: 1, // sample everything: the listing fills immediately
		TraceSlowMS: 1,
	})
	if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/healthz", nil)

	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	getJSON(t, ts.URL+"/debug/traces?route=explain", &listing)
	if len(listing.Traces) == 0 {
		t.Fatal("route=explain filter matched nothing")
	}
	for _, tr := range listing.Traces {
		if tr.Root != "http.explain" {
			t.Errorf("route=explain listing leaked %q", tr.Root)
		}
	}
	getJSON(t, ts.URL+"/debug/traces?route=nosuchroute", &listing)
	if len(listing.Traces) != 0 {
		t.Errorf("bogus route filter matched %d traces", len(listing.Traces))
	}
	getJSON(t, ts.URL+"/debug/traces?min_ms=3600000", &listing)
	if len(listing.Traces) != 0 {
		t.Errorf("hour-long min_ms matched %d traces", len(listing.Traces))
	}

	var outliers struct {
		Outliers []obs.OutlierTrace `json:"outliers"`
	}
	getJSON(t, ts.URL+"/debug/traces?outliers=1&min_ms=3600000", &outliers)
	if len(outliers.Outliers) != 0 {
		t.Errorf("hour-long min_ms matched %d outliers", len(outliers.Outliers))
	}
	getJSON(t, ts.URL+"/debug/traces?outliers=1&limit=1", &outliers)
	if len(outliers.Outliers) > 1 {
		t.Errorf("limit=1 returned %d outliers", len(outliers.Outliers))
	}
}
