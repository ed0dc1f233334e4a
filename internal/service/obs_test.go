package service

// Observability tests: Prometheus exposition well-formedness, the
// /debug/traces surface, ?profile=1, and goroutine hygiene after
// shutdown.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
)

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// parseLabels splits a rendered label body (`k1="v1",k2="v2"`) into
// pairs, honoring \" escapes inside values. It returns an error for
// anything the Prometheus text format would reject.
func parseLabels(body string) (map[string]string, error) {
	labels := map[string]string{}
	for len(body) > 0 {
		eq := strings.IndexByte(body, '=')
		if eq < 0 {
			return nil, fmt.Errorf("label pair %q has no '='", body)
		}
		name := body[:eq]
		if !labelNameRe.MatchString(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		rest := body[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("label %q value is not quoted", name)
		}
		i := 1
		for ; i < len(rest); i++ {
			if rest[i] == '\\' {
				i++
				continue
			}
			if rest[i] == '"' {
				break
			}
		}
		if i >= len(rest) {
			return nil, fmt.Errorf("label %q value is unterminated", name)
		}
		labels[name] = rest[1:i]
		body = rest[i+1:]
		if strings.HasPrefix(body, ",") {
			body = body[1:]
			if body == "" {
				return nil, fmt.Errorf("trailing comma after label %q", name)
			}
		} else if body != "" {
			return nil, fmt.Errorf("junk %q after label %q", body, name)
		}
	}
	return labels, nil
}

// checkExposition validates a full Prometheus text exposition: every
// line is a HELP/TYPE comment or a sample; HELP and TYPE for a family
// precede its samples; metric and label names are legal; histogram
// suffixes only appear under histogram-typed families; no series
// (name + label set) repeats; every value parses.
func checkExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	types := map[string]string{} // family -> declared type
	helped := map[string]bool{}  // family -> HELP seen
	sampled := map[string]bool{} // family -> first sample seen
	series := map[string]bool{}  // name + sorted labels -> seen
	for ln, line := range strings.Split(text, "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 4 || fields[0] != "#" || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("line %d: comment is neither HELP nor TYPE: %q", lineNo, line)
				continue
			}
			name := fields[2]
			if !metricNameRe.MatchString(name) {
				t.Errorf("line %d: bad metric name %q", lineNo, name)
				continue
			}
			if sampled[name] {
				t.Errorf("line %d: %s for %q after its samples", lineNo, fields[1], name)
			}
			switch fields[1] {
			case "HELP":
				if helped[name] {
					t.Errorf("line %d: duplicate HELP for %q", lineNo, name)
				}
				helped[name] = true
			case "TYPE":
				if _, dup := types[name]; dup {
					t.Errorf("line %d: duplicate TYPE for %q", lineNo, name)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
					types[name] = fields[3]
				default:
					t.Errorf("line %d: unknown TYPE %q for %q", lineNo, fields[3], name)
				}
			}
			continue
		}

		// Sample line: name[{labels}] value
		name := line
		labelBody := ""
		rest := ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				t.Errorf("line %d: unbalanced braces: %q", lineNo, line)
				continue
			}
			name = line[:i]
			labelBody = line[i+1 : j]
			rest = line[j+1:]
		} else if sp := strings.IndexAny(line, " \t"); sp >= 0 {
			name = line[:sp]
			rest = line[sp:]
		}
		fields := strings.Fields(rest)
		if !metricNameRe.MatchString(name) {
			t.Errorf("line %d: bad sample name %q", lineNo, name)
			continue
		}
		if len(fields) != 1 {
			t.Errorf("line %d: want exactly one value after %q, got %v", lineNo, name, fields)
			continue
		}
		if _, err := strconv.ParseFloat(fields[0], 64); err != nil {
			t.Errorf("line %d: value %q does not parse: %v", lineNo, fields[0], err)
		}
		labels, err := parseLabels(labelBody)
		if err != nil {
			t.Errorf("line %d: %v", lineNo, err)
			continue
		}

		// Resolve the family: histogram samples use _bucket/_sum/_count.
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && types[base] == "histogram" {
				family = base
				break
			}
		}
		typ, declared := types[family]
		if !declared {
			t.Errorf("line %d: sample %q has no preceding TYPE", lineNo, name)
		}
		if typ == "histogram" && name == family {
			t.Errorf("line %d: histogram %q sampled without _bucket/_sum/_count", lineNo, name)
		}
		sampled[family] = true

		keys := make([]string, 0, len(labels))
		for k := range labels {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var id strings.Builder
		id.WriteString(name)
		for _, k := range keys {
			fmt.Fprintf(&id, "|%s=%s", k, labels[k])
		}
		if series[id.String()] {
			t.Errorf("line %d: duplicate series %q", lineNo, id.String())
		}
		series[id.String()] = true
	}
	return types
}

// TestMetricsExpositionWellFormed exercises enough of the server to
// populate counters, latency histograms, per-spec explanation
// histograms, and gauges, then validates every line of /metrics.
func TestMetricsExpositionWellFormed(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/predict", wire.PredictRequest{
		Model: "uica", Arch: "hsw", Blocks: []string{testBlock},
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d: %s", resp.StatusCode, body)
	}
	getJSON(t, ts.URL+"/healthz", nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	types := checkExposition(t, string(body))

	// The families this PR's satellites promise must actually be there.
	for family, typ := range map[string]string{
		"comet_requests_total":                    "counter",
		"comet_request_seconds":                   "histogram",
		"comet_explanation_seconds":               "histogram",
		"comet_explanation_precision":             "histogram",
		"comet_explanation_coverage":              "histogram",
		"comet_explanation_queries":               "histogram",
		"comet_explanation_uncertified_total":     "counter",
		"comet_explanation_quality_samples_total": "counter",
		"comet_build_info":                        "gauge",
		"comet_goroutines":                        "gauge",
		"comet_heap_bytes":                        "gauge",
		"comet_gc_pause_seconds_total":            "gauge",
	} {
		if types[family] != typ {
			t.Errorf("family %s: declared type %q, want %q", family, types[family], typ)
		}
	}
	if !strings.Contains(string(body), `comet_explanation_seconds_count{spec="uica@hsw"}`) {
		t.Errorf("per-spec explanation histogram missing:\n%s", body)
	}
}

// TestDebugTraces drives one force-traced explain request end to end
// and reads its spans back from /debug/traces.
func TestDebugTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	raw, _ := json.Marshal(wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	})
	resp, err := http.Post(ts.URL+"/v1/explain?trace=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get("X-Comet-Trace-Id")
	if traceID == "" {
		t.Fatal("forced trace returned no X-Comet-Trace-Id header")
	}

	// The root span ends after the response is written; poll briefly.
	var spans []obs.SpanRecord
	deadline := time.Now().Add(5 * time.Second)
	for {
		var got struct {
			Spans []obs.SpanRecord `json:"spans"`
		}
		resp := getJSON(t, ts.URL+"/debug/traces/"+traceID, &got)
		if resp.StatusCode == http.StatusOK && len(got.Spans) > 0 {
			spans = got.Spans
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared in /debug/traces", traceID)
		}
		time.Sleep(10 * time.Millisecond)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		if sp.TraceID != traceID {
			t.Errorf("span %s has trace %s, want %s", sp.Name, sp.TraceID, traceID)
		}
		names[sp.Name] = true
	}
	for _, want := range []string{"http.explain", "svc.compute", "core.search"} {
		if !names[want] {
			t.Errorf("trace %s is missing span %q (have %v)", traceID, want, names)
		}
	}

	// The trace also shows up in the listing.
	var listing struct {
		Traces []obs.TraceSummary `json:"traces"`
	}
	getJSON(t, ts.URL+"/debug/traces", &listing)
	found := false
	for _, tr := range listing.Traces {
		if tr.TraceID == traceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in /debug/traces listing", traceID)
	}
}

// TestExplainProfileParam asserts ?profile=1 attaches a stage profile
// without perturbing the plain response (which must stay byte-identical
// across cache tiers; see negotiate.go).
func TestExplainProfileParam(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := wire.ExplainRequest{Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides()}

	_, plain := postJSON(t, ts.URL+"/v1/explain", req)

	raw, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/explain?profile=1", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	profiled, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var with wire.Explanation
	if err := json.Unmarshal(profiled, &with); err != nil {
		t.Fatal(err)
	}
	if with.Profile == nil {
		t.Fatalf("?profile=1 response has no profile: %s", profiled)
	}
	// This request hit a serving tier (the first request computed), so
	// the source says which one; either way it must be non-empty.
	if with.Profile.Source == "" {
		t.Error("profile.source is empty")
	}

	// The plain response is unchanged by profiled requests before or
	// after it: no profile key, same bytes.
	_, plain2 := postJSON(t, ts.URL+"/v1/explain", req)
	if !bytes.Equal(plain, plain2) {
		t.Errorf("plain explain response changed after ?profile=1:\n before %s\n after %s", plain, plain2)
	}
	if bytes.Contains(plain2, []byte(`"profile"`)) {
		t.Errorf("plain explain response leaked a profile: %s", plain2)
	}
}

// TestShutdownLeavesNoServiceGoroutines asserts that closing the server
// reaps every goroutine the service spawned — job workers, cluster
// heartbeats, span bookkeeping — so embedding processes don't leak.
func TestShutdownLeavesNoServiceGoroutines(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())

	if resp, body := postJSON(t, ts.URL+"/v1/explain", wire.ExplainRequest{
		Block: testBlock, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusOK {
		t.Fatalf("explain: status %d: %s", resp.StatusCode, body)
	}
	var jobResp wire.JobAccepted
	if resp, body := postJSON(t, ts.URL+"/v1/corpus", wire.CorpusRequest{
		Blocks: []string{testBlock}, Model: "uica", Arch: "hsw", Config: fastOverrides(),
	}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("corpus: status %d: %s", resp.StatusCode, body)
	} else if err := json.Unmarshal(body, &jobResp); err != nil {
		t.Fatal(err)
	}

	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		leaked := serviceGoroutines()
		if len(leaked) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines still running after shutdown:\n%s", strings.Join(leaked, "\n\n"))
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// serviceGoroutines returns the stacks of goroutines still inside this
// module, excluding test-runner goroutines (whose stacks bottom out in
// testing.tRunner) and this caller.
func serviceGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	var leaked []string
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if !strings.Contains(g, "comet-explain/comet/internal/") {
			continue
		}
		if strings.Contains(g, "testing.tRunner") || strings.Contains(g, "serviceGoroutines") {
			continue
		}
		leaked = append(leaked, g)
	}
	return leaked
}
