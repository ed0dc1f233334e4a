package main

// Golden-output tests: the list table and the federated tree render
// byte-stably from fixed server fixtures (fixed timestamps, fixed span
// IDs), so a formatting regression shows up as a readable diff.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/obs"
)

var t0 = time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)

func fixtureServer(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("route") == "corpus" {
			json.NewEncoder(w).Encode(map[string]any{
				"traces": []obs.TraceSummary{{
					TraceID: "aaaabbbbccccddddeeeeffff00001111", Root: "http.corpus",
					Spans: 14, Start: t0, DurationUS: 412_300,
				}},
			})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"traces": []obs.TraceSummary{
				{
					TraceID: "aaaabbbbccccddddeeeeffff00001111", Root: "http.corpus",
					Spans: 14, Start: t0, DurationUS: 412_300,
				},
				{
					TraceID: "22223333444455556666777788889999", Root: "http.explain",
					Spans: 3, Start: t0.Add(2 * time.Second), DurationUS: 900,
				},
			},
		})
	})
	mux.HandleFunc("/debug/traces/aaaabbbbccccddddeeeeffff00001111", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("cluster") != "1" {
			http.Error(w, `{"error": "fixture serves only the federated view"}`, http.StatusNotFound)
			return
		}
		json.NewEncoder(w).Encode(map[string]any{
			"trace_id": "aaaabbbbccccddddeeeeffff00001111",
			"cluster":  true,
			"processes": []map[string]any{
				{"process": "coordinator", "spans": 2},
				{"process": "http://127.0.0.1:7001", "spans": 1},
				{"process": "http://127.0.0.1:7002", "spans": 0, "error": "connection refused"},
			},
			"spans": []obs.SpanRecord{
				{
					TraceID: "aaaabbbbccccddddeeeeffff00001111", SpanID: "0000000000000001",
					Name: "http.corpus", Start: t0, DurationUS: 1_000_000,
					Process: "coordinator", Attrs: map[string]string{"status": "202"},
				},
				{
					TraceID: "aaaabbbbccccddddeeeeffff00001111", SpanID: "0000000000000002",
					ParentID: "0000000000000001", Name: "job.run",
					Start: t0.Add(250 * time.Millisecond), DurationUS: 500_000,
					Process: "coordinator",
				},
				{
					TraceID: "aaaabbbbccccddddeeeeffff00001111", SpanID: "0000000000000003",
					ParentID: "0000000000000002", Name: "http.shard",
					Start: t0.Add(500 * time.Millisecond), DurationUS: 250_000,
					Process: "http://127.0.0.1:7001", Attrs: map[string]string{"blocks": "8"},
				},
			},
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestListTracesGolden(t *testing.T) {
	ts := fixtureServer(t)
	client := http.DefaultClient
	var buf bytes.Buffer
	if err := listTraces(&buf, client, ts.URL, 20, "", 0); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"TRACE                              ROOT            SPANS  START                 DURATION\n" +
		"aaaabbbbccccddddeeeeffff00001111   http.corpus        14  2026-08-08T10:00:00Z  412.3ms\n" +
		"22223333444455556666777788889999   http.explain        3  2026-08-08T10:00:02Z  900µs\n"
	if got := buf.String(); got != want {
		t.Errorf("list table:\n got:\n%s\nwant:\n%s", got, want)
	}

	// The route filter is forwarded to the server, not applied client-side.
	buf.Reset()
	if err := listTraces(&buf, client, ts.URL, 20, "corpus", 0); err != nil {
		t.Fatal(err)
	}
	want = "" +
		"TRACE                              ROOT            SPANS  START                 DURATION\n" +
		"aaaabbbbccccddddeeeeffff00001111   http.corpus        14  2026-08-08T10:00:00Z  412.3ms\n"
	if got := buf.String(); got != want {
		t.Errorf("filtered list table:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestShowTraceFederatedGolden(t *testing.T) {
	ts := fixtureServer(t)
	client := http.DefaultClient
	var buf bytes.Buffer
	if err := showTrace(&buf, client, ts.URL, "aaaabbbbccccddddeeeeffff00001111", true, false, 20); err != nil {
		t.Fatal(err)
	}
	want := "" +
		"trace aaaabbbbccccddddeeeeffff00001111 — 3 spans from 3 processes\n" +
		"  coordinator                                 2 spans\n" +
		"  http://127.0.0.1:7001                       1 spans\n" +
		"  http://127.0.0.1:7002                       0 spans  (unreachable: connection refused)\n" +
		"\n" +
		"http.corpus         1.00s ▐████████████████████▌ process=coordinator status=202\n" +
		"  job.run         500.0ms ▐─────██████████─────▌ process=coordinator\n" +
		"    http.shard    250.0ms ▐──────────█████─────▌ process=http://127.0.0.1:7001 blocks=8\n"
	if got := buf.String(); got != want {
		t.Errorf("federated tree:\n got:\n%s\nwant:\n%s", got, want)
	}
}

func TestShowTraceJSONRoundTrips(t *testing.T) {
	ts := fixtureServer(t)
	client := http.DefaultClient
	var buf bytes.Buffer
	if err := showTrace(&buf, client, ts.URL, "aaaabbbbccccddddeeeeffff00001111", true, true, 0); err != nil {
		t.Fatal(err)
	}
	var body struct {
		TraceID string           `json:"trace_id"`
		Cluster bool             `json:"cluster"`
		Spans   []obs.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &body); err != nil {
		t.Fatalf("-json output is not JSON: %v", err)
	}
	if !body.Cluster || len(body.Spans) != 3 || body.Spans[2].Process != "http://127.0.0.1:7001" {
		t.Errorf("-json body: %+v", body)
	}
}

func TestShowTraceErrorEnvelope(t *testing.T) {
	ts := fixtureServer(t)
	client := http.DefaultClient
	var buf bytes.Buffer
	err := showTrace(&buf, client, ts.URL, "aaaabbbbccccddddeeeeffff00001111", false, false, 0)
	if err == nil {
		t.Fatal("local fetch of a federated-only fixture should fail")
	}
}
