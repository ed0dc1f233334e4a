package main

// poll must handle both answers /debug/history?cluster=1 can give: the
// coordinator's federated envelope, and the plain single-process dump a
// worker or standalone server returns (it ignores ?cluster=1).

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/obs"
)

var t0 = time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)

func dumpFixture(process string) obs.HistoryDump {
	return obs.HistoryDump{
		Process: process, IntervalMS: 1000, Retention: 600, Samples: 42, Now: t0,
		Series: []obs.HistorySeries{
			{Name: "route.explain.rps", Kind: obs.SeriesRate, Last: 12, Points: obs.Points{3, 8, 12}},
			{Name: "route.explain.p99_ms", Kind: obs.SeriesValue, Last: 13.2, Points: obs.Points{9, 11, 13.2}},
			{Name: "route.explain.rps_5xx", Kind: obs.SeriesRate, Last: 0, Points: obs.Points{0, 0, 0}},
			{Name: "queue.explain_waiting", Kind: obs.SeriesGauge, Last: 2, Points: obs.Points{0, 1, 2}},
			{Name: "runtime.goroutines", Kind: obs.SeriesGauge, Last: 24, Points: obs.Points{24, 24, 24}},
			{Name: "runtime.heap_bytes", Kind: obs.SeriesGauge, Last: 64 << 20, Points: obs.Points{64 << 20}},
			{Name: "spec.uica@hsw.explanations_rps", Kind: obs.SeriesRate, Last: 11.5, Points: obs.Points{11.5}},
			{Name: "spec.uica@hsw.precision_mean", Kind: obs.SeriesValue, Last: 0.93, Points: obs.Points{0.93}},
		},
	}
}

func TestPollPlainProcess(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(dumpFixture("local"))
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error": "not a coordinator"}`, http.StatusNotFound)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	snap := poll(http.DefaultClient, ts.URL, 8)
	if snap.Err != "" {
		t.Fatalf("poll: %s", snap.Err)
	}
	if len(snap.Processes) != 1 || snap.Processes[0].History == nil {
		t.Fatalf("plain dump not wrapped as one process: %+v", snap.Processes)
	}
	if snap.Cluster != nil {
		t.Error("standalone process grew a cluster section")
	}

	var buf bytes.Buffer
	render(&buf, ts.URL, snap, 10, 8)
	out := buf.String()
	for _, want := range []string{"== local", "explain", "13.2ms", "goroutines 24", "heap 64.0MiB", "quality uica@hsw"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered frame missing %q:\n%s", want, out)
		}
	}
}

func TestPollFederated(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/history", func(w http.ResponseWriter, r *http.Request) {
		coord := dumpFixture("coordinator")
		json.NewEncoder(w).Encode(map[string]any{
			"cluster": true,
			"now":     t0,
			"processes": []map[string]any{
				{"process": "coordinator", "history": coord},
				{"process": "http://127.0.0.1:7002", "error": "connection refused"},
			},
		})
	})
	mux.HandleFunc("/v1/cluster", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"workers": []map[string]any{
				{"id": "http://127.0.0.1:7002", "state": "down", "capacity": 2},
			},
			"leases_dispatched": 9,
		})
	})
	mux.HandleFunc("/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(map[string]any{
			"outliers": []obs.OutlierTrace{{
				TraceID: "deadbeef", Route: "explain", Status: 200,
				Reason: obs.OutlierSlow, Start: t0, DurationUS: 712_000,
				Process: "coordinator",
			}},
		})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	snap := poll(http.DefaultClient, ts.URL, 8)
	if len(snap.Processes) != 2 || snap.Cluster == nil || len(snap.Outliers) != 1 {
		t.Fatalf("federated snapshot: %d processes, cluster=%v, %d outliers",
			len(snap.Processes), snap.Cluster != nil, len(snap.Outliers))
	}

	var buf bytes.Buffer
	render(&buf, ts.URL, snap, 10, 8)
	out := buf.String()
	for _, want := range []string{
		"2 processes", "== coordinator",
		"UNREACHABLE: connection refused",
		"== cluster", "down",
		"== outliers", "712.0ms", "deadbeef",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("federated frame missing %q:\n%s", want, out)
		}
	}
}
