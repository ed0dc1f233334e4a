package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path"
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/wire"
)

// fuzzStatuses is the set of statuses each route may answer a fuzzed
// request with, by route name. The cluster rows exist only in
// coordinator mode, so the fuzzed server answers them with the mux's
// 404.
var fuzzStatuses = map[string][]int{
	"explain": {200, 400, 403, 405, 413, 429},
	"predict": {200, 400, 403, 405, 413, 429},
	"corpus":  {202, 400, 403, 405, 413, 429},
	"jobs":    {200, 400, 404, 405},
	"models":  {200, 405},
	"shard":   {200, 400, 403, 405, 413, 429},
	"join":    {404},
	"cluster": {404},
	"healthz": {200, 405},
	"readyz":  {200, 405},
	"metrics": {200, 405},
	"debug":   {200, 400, 404, 405},
}

var (
	fuzzMethods      = []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodHead}
	fuzzContentTypes = []string{"", "application/json", wire.FrameContentType, "application/x-elf",
		"application/octet-stream", "multipart/form-data; boundary=b", "text/plain"}
)

// FuzzHandler drives the whole HTTP surface in process: the input picks
// a route row, a method, a content type (its high bit also asks for a
// binary answer), a job or trace ID, a query string and a body, and
// calls the handler directly on a recorder, so a handler panic fails the
// target instead of being recovered per connection by net/http. Every
// answer must be one its route declares (fuzzStatuses), no request may
// leave more than a small multiple of MaxBodyBytes of live heap behind,
// and every job the inputs started must be finished or canceled once
// Shutdown returns. An empty ID names the newest job, so the job routes
// reach real jobs. (The heap is compared across each input: the fuzzing
// engine's own mutation buffer, allocated once between inputs, dwarfs
// the server.)
func FuzzHandler(f *testing.F) {
	const maxBody = 64 << 10
	s := New(Config{
		DefaultModel:          "c",
		MaxModelEntries:       1,
		MaxConcurrentExplains: 1,
		JobQueueDepth:         2,
		JobHistorySize:        4,
		MaxCorpusBlocks:       4,
		ResultStoreSize:       16,
		StreamRingSize:        16,
		MaxBodyBytes:          maxBody,
		MaxUploadBytes:        maxBody,
		TraceRingSize:         256,
		HistoryInterval:       -1,
		Logger:                slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err := s.WarmModel("c", "hsw"); err != nil {
		f.Fatal(err)
	}
	s.SetReady()
	h := s.Handler()
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			f.Errorf("shutdown: %v", err)
		}
		for _, j := range s.jobs.list() {
			switch j.State {
			case wire.JobDone, wire.JobFailed, wire.JobCanceled:
			default:
				f.Errorf("job %s is %s after Shutdown", j.ID, j.State)
			}
		}
	})

	rowOf := func(pattern string) uint8 {
		return uint8(slices.IndexFunc(routes, func(rt route) bool { return rt.pattern == pattern }))
	}
	jsonBody := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	frame := func(v any) []byte {
		b, err := wire.EncodeBinary(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	const (
		jsonCT  = 1
		frameCT = 2 | 0x80
	)
	explain := wire.ExplainRequest{Block: testBlock, Config: fastOverrides()}
	corpus := wire.CorpusRequest{Blocks: []string{testBlock, "add rax, rbx"}, Config: fastOverrides()}
	predict := wire.PredictRequest{Blocks: []string{testBlock}, Model: "c"}
	snap := wire.SnapshotConfig(core.ApplyOptions(s.cfg.Base, fastOverrides().Options()...))
	shard := wire.ShardRequest{JobID: "job-f", Lease: "job-f/l0", Spec: "c@hsw", Config: snap,
		Blocks: []wire.ShardBlock{{Index: 0, Block: testBlock}}}
	for _, seed := range []struct {
		pattern    string
		method, ct uint8
		id, query  string
		body       []byte
	}{
		{"/v1/explain", 1, jsonCT, "", "", jsonBody(explain)},
		{"/v1/explain", 1, frameCT, "", "profile=1", frame(&explain)},
		{"/v1/explain", 1, jsonCT, "", "", jsonBody(wire.ExplainRequest{Block: "not an instruction"})},
		{"/v1/explain", 0, 0, "", "", nil},
		{"/v1/predict", 1, jsonCT, "", "", jsonBody(predict)},
		{"/v1/predict", 1, frameCT, "", "", frame(&predict)},
		{"/v1/corpus", 1, jsonCT, "", "", jsonBody(corpus)},
		{"/v1/corpus", 1, frameCT, "", "", frame(&explain)},
		{"/v1/corpus", 1, 3, "", "model=c&coverage=150", []byte("\x7fELF")},
		{"/v1/jobs", 0, 0, "", "", nil},
		{"/v1/jobs/{id}", 0, 0, "", "offset=1&limit=1", nil},
		{"/v1/jobs/{id}/stream", 0, 0x80, "", "", nil},
		{"/v1/jobs/{id}", 0, 0, "job-nope-1", "", nil},
		{"/v1/models", 0, 0, "", "", nil},
		{"/v1/shard", 1, jsonCT, "", "", jsonBody(shard)},
		{"/v1/shard", 1, frameCT, "", "", frame(&shard)},
		{"/v1/cluster/join", 1, jsonCT, "", "", jsonBody(wire.JoinRequest{URL: "http://127.0.0.1:1", Capacity: 1})},
		{"/healthz", 0, 0, "", "", nil},
		{"/readyz", 0, 0, "", "", nil},
		{"/metrics", 0, 0, "", "", nil},
		{"/debug/traces", 0, 0, "", "outliers=1&route=explain&min_ms=1&limit=2", nil},
		{"/debug/traces/{id}", 0, 0, "0af7651916cd43dd8448eb211c80319c", "cluster=1", nil},
		{"/debug/flight", 0, 0, "", "", nil},
		{"/debug/history", 0, 0, "", "cluster=1", nil},
	} {
		f.Add(rowOf(seed.pattern), seed.method, seed.ct, seed.id, seed.query, seed.body)
	}

	f.Fuzz(func(t *testing.T, row, method, ct uint8, id, query string, body []byte) {
		rt := &routes[int(row)%len(routes)]
		if id == "" {
			id = "job-none"
			if jobs := s.jobs.list(); len(jobs) > 0 {
				id = jobs[len(jobs)-1].ID
			}
		}
		target := strings.ReplaceAll(rt.pattern, "{id}", url.PathEscape(id))
		statuses := fuzzStatuses[rt.name]
		if path.Clean(target) != target {
			// An ID of "." or "..": the mux redirects to the clean path.
			statuses = []int{http.StatusMovedPermanently}
		}
		if query != "" {
			target += "?" + query
		}
		// A stream on a live job lasts as long as the job; the deadline
		// bounds one input.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		req, err := http.NewRequestWithContext(ctx, fuzzMethods[int(method)%len(fuzzMethods)],
			"http://comet.test"+target, bytes.NewReader(body))
		if err != nil {
			return
		}
		if c := fuzzContentTypes[int(ct&0x7f)%len(fuzzContentTypes)]; c != "" {
			req.Header.Set("Content-Type", c)
		}
		if ct&0x80 != 0 {
			req.Header.Set("Accept", wire.FrameContentType)
		}
		rec := httptest.NewRecorder()
		before := liveHeap()
		h.ServeHTTP(rec, req)
		if !slices.Contains(statuses, rec.Code) {
			t.Fatalf("%s %s: status %d, not one %q declares: %s", req.Method, target, rec.Code, rt.name, rec.Body.Bytes())
		}
		if live := liveHeap(); live > before+16*maxBody {
			t.Fatalf("%s %s left %d B more live heap, over 16 × MaxBodyBytes", req.Method, target, live-before)
		}
	})
}

// liveHeap returns the heap bytes live after a full collection; the
// second one empties the sync.Pool victim caches the first fills.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(sample)
	return sample[0].Value.Uint64()
}
