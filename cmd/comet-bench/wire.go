package main

// The wire benchmark: the serving hot path measured end to end, plus the
// regression gate CI runs against the committed BENCH_baseline.json.
//
// Two measurements:
//
//  1. Warm-path throughput — repeated identical POST /v1/explain requests
//     through the in-process handler, once over the JSON facade and once
//     over the binary frame codec (whose interned fast path answers from
//     pre-encoded bytes without parsing anything). Reported as requests/s
//     plus allocations and bytes allocated per request.
//  2. Streamed-corpus memory — a stream-only corpus job of -stream-blocks
//     blocks consumed through GET /v1/jobs/{id}/stream over real HTTP,
//     with the live heap sampled throughout. The job retains only the
//     bounded catch-up ring, so peak live-heap growth must stay far below
//     the full result set; the bench fails if it doesn't.
//
// -check compares a fresh run against a baseline summary. The gated
// metrics are chosen to be machine-portable: allocations per request are
// deterministic for a given code path, and the binary-vs-JSON speedup is
// a same-machine ratio (the median of several rounds), so neither
// depends on the runner's clock speed the way raw requests/s would.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/wire"
)

// wireSummary is the machine-readable record of one wire-benchmark run —
// the schema of BENCH_baseline.json.
type wireSummary struct {
	GoVersion  string `json:"go_version"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// Warm-path throughput, JSON facade vs binary frames.
	Requests     int     `json:"requests"`
	JSONRPS      float64 `json:"json_rps"`
	JSONAllocs   float64 `json:"json_allocs_per_request"`
	JSONBytes    float64 `json:"json_bytes_per_request"`
	BinaryRPS    float64 `json:"binary_rps"`
	BinaryAllocs float64 `json:"binary_allocs_per_request"`
	BinaryBytes  float64 `json:"binary_bytes_per_request"`
	// Speedup is the median of SpeedupRounds, each round's binary over
	// JSON requests/s — the same-machine ratio the regression gate checks
	// instead of raw RPS. JSONRPS and BinaryRPS are the median rounds'.
	Speedup       float64   `json:"binary_speedup"`
	SpeedupRounds []float64 `json:"binary_speedup_rounds,omitempty"`

	// Streamed-corpus memory profile.
	StreamBlocks int `json:"stream_blocks"`
	// StreamBlocksPerSec is transport throughput: the stream's blocks are
	// two instructions explained by the analytical model with a tiny
	// coverage pool, so it measures the job and stream plumbing, not
	// COMET at paper settings (perfbench measures that).
	StreamBlocksPerSec float64 `json:"stream_blocks_per_sec"`
	StreamRing         int     `json:"stream_ring"`
	// StreamResultBytes is the total NDJSON result volume delivered —
	// what a buffering job would have held in memory at once.
	StreamResultBytes int64 `json:"stream_result_bytes"`
	// StreamPeakHeapDelta is the peak growth of the live heap
	// (/gc/heap/live:bytes, what the last GC cycle marked reachable)
	// over its value after submission, sampled while the job ran and
	// after a final GC. Garbage not yet collected is excluded, so the
	// figure tracks what the job retains; flat memory means it stays far
	// below StreamResultBytes. Earlier builds sampled HeapAlloc here,
	// which counts that garbage too.
	StreamPeakHeapDelta int64 `json:"stream_peak_heap_delta_bytes"`
}

// liveHeap reads /gc/heap/live:bytes: the heap the most recent GC cycle
// marked reachable, without the uncollected garbage HeapAlloc counts.
func liveHeap() int64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// measureLoop runs f n times and reports requests/s plus per-iteration
// allocation counts from the runtime's allocator statistics.
func measureLoop(n int, f func(i int) error) (rps, allocs, bytesPer float64, err error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := f(i); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return float64(n) / elapsed.Seconds(),
		float64(m1.Mallocs-m0.Mallocs) / float64(n),
		float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n),
		nil
}

// wireBench runs both measurements, prints the human summary, optionally
// writes -json-out, and optionally gates against a baseline (-check).
func wireBench(requests, streamBlocks int, jsonOut, checkPath string) error {
	sum := wireSummary{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Requests:   requests,
	}
	if err := warmPathBench(&sum); err != nil {
		return err
	}
	if err := streamBench(&sum, streamBlocks); err != nil {
		return err
	}

	fmt.Printf("wire benchmark: %d warm-path requests, %d-block streamed corpus (%s, GOMAXPROCS=%d)\n",
		sum.Requests, sum.StreamBlocks, sum.GoVersion, sum.GoMaxProcs)
	fmt.Printf("  warm explain, JSON:             %10.0f req/s  (%.0f allocs, %.0f B per request)\n",
		sum.JSONRPS, sum.JSONAllocs, sum.JSONBytes)
	fmt.Printf("  warm explain, binary frames:    %10.0f req/s  (%.0f allocs, %.0f B per request)\n",
		sum.BinaryRPS, sum.BinaryAllocs, sum.BinaryBytes)
	fmt.Printf("  binary speedup:                 %.2fx median of %d rounds %.2f (byte-identical decoded responses)\n",
		sum.Speedup, len(sum.SpeedupRounds), sum.SpeedupRounds)
	fmt.Printf("  stream transport throughput:    %10.0f blocks/s over %d blocks (analytical model, tiny blocks: not explanation speed)\n",
		sum.StreamBlocksPerSec, sum.StreamBlocks)
	fmt.Printf("  stream memory:                  peak live heap +%.1f MiB vs %.1f MiB of results (ring %d)\n",
		float64(sum.StreamPeakHeapDelta)/(1<<20), float64(sum.StreamResultBytes)/(1<<20), sum.StreamRing)

	if jsonOut != "" {
		data, err := json.MarshalIndent(&sum, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	if checkPath != "" {
		return checkBaseline(&sum, checkPath)
	}
	return nil
}

// reusableBody is a resettable request body, so the measured loop reuses
// one http.Request instead of timing the test harness's allocations.
type reusableBody struct{ bytes.Reader }

func (b *reusableBody) Close() error { return nil }

// benchWriter is a minimal ResponseWriter that discards the body; unlike
// httptest.NewRecorder it costs nothing per request, so the loop measures
// the serving path rather than the recorder.
type benchWriter struct {
	h    http.Header
	code int
	n    int
}

func (w *benchWriter) Header() http.Header         { return w.h }
func (w *benchWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }
func (w *benchWriter) WriteHeader(c int)           { w.code = c }

// warmPathBench measures repeated identical explain requests through the
// in-process handler: the JSON facade against the binary frame codec. The
// binary responses are verified byte-identical (decoded, re-marshaled as
// JSON) to the JSON-path body before the clock starts.
func warmPathBench(sum *wireSummary) error {
	// The analytical model keeps the single cold compute cheap; every
	// measured request is a warm hit, where the model is irrelevant.
	srv := service.New(service.Config{DefaultModel: "c"})
	if err := srv.WarmModel("c", "hsw"); err != nil {
		return err
	}
	srv.SetReady()
	defer srv.Shutdown(context.Background())
	h := srv.Handler()

	const blockText = "add rcx, rax\nmov rdx, rcx\npop rbx"
	req := &wire.ExplainRequest{Block: blockText, Model: "c",
		Config: &wire.ConfigOverrides{CoverageSamples: 200, Seed: 1}}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		return err
	}
	binBody, err := wire.EncodeBinary(req)
	if err != nil {
		return err
	}

	do := func(body []byte, contentType, accept string) (*httptest.ResponseRecorder, error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("explain status %d: %s", rec.Code, rec.Body.String())
		}
		return rec, nil
	}

	// Prime the caches (one cold compute) and verify the two paths agree
	// byte for byte: the binary response frame, decoded and re-marshaled
	// as JSON, must equal the JSON-path body exactly.
	jsonRec, err := do(jsonBody, "application/json", "")
	if err != nil {
		return err
	}
	binRec, err := do(binBody, wire.FrameContentType, wire.FrameContentType)
	if err != nil {
		return err
	}
	msg, err := wire.DecodeBinary(binRec.Body.Bytes())
	if err != nil {
		return fmt.Errorf("decoding binary explain response: %w", err)
	}
	reJSON, err := json.Marshal(msg)
	if err != nil {
		return err
	}
	reJSON = append(reJSON, '\n')
	if !bytes.Equal(reJSON, jsonRec.Body.Bytes()) {
		return fmt.Errorf("binary explain response is not byte-identical to the JSON path:\n got %s\nwant %s",
			reJSON, jsonRec.Body.Bytes())
	}

	// The measured loop reuses one request, body, and writer per path, so
	// the numbers are the serving path itself, not harness churn.
	runPath := func(body []byte, contentType, accept string) (rps, allocs, bytesPer float64, err error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
		r.Header.Set("Content-Type", contentType)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		rb := &reusableBody{}
		w := &benchWriter{h: make(http.Header, 4)}
		return measureLoop(sum.Requests, func(int) error {
			rb.Reset(body)
			r.Body = rb
			w.code, w.n = http.StatusOK, 0
			h.ServeHTTP(w, r)
			if w.code != http.StatusOK {
				return fmt.Errorf("explain status %d", w.code)
			}
			return nil
		})
	}
	// Both codecs run once per round, alternating which goes first so
	// neither always inherits the other's heap and CPU state. Speedup
	// and requests/s are the median round's; allocations the mean.
	paths := [2]struct {
		body                []byte
		contentType, accept string
	}{{jsonBody, "application/json", ""}, {binBody, wire.FrameContentType, wire.FrameContentType}}
	var rps [2][]float64
	var allocs, bytesPer [2]float64
	for i := 0; i < speedupRounds; i++ {
		for k := 0; k < 2; k++ {
			p := (i + k) % 2
			r, a, b, err := runPath(paths[p].body, paths[p].contentType, paths[p].accept)
			if err != nil {
				return err
			}
			rps[p] = append(rps[p], r)
			allocs[p] += a / speedupRounds
			bytesPer[p] += b / speedupRounds
		}
		sum.SpeedupRounds = append(sum.SpeedupRounds, rps[1][i]/rps[0][i])
	}
	sum.JSONRPS, sum.JSONAllocs, sum.JSONBytes = median(rps[0]), allocs[0], bytesPer[0]
	sum.BinaryRPS, sum.BinaryAllocs, sum.BinaryBytes = median(rps[1]), allocs[1], bytesPer[1]
	sum.Speedup = median(sum.SpeedupRounds)
	return nil
}

// speedupRounds is how many times the warm path is measured per codec.
// On a small host one ratio of two short runs spreads wider than the
// gate's 25% bound (6.8x and 13.9x back to back on 2 vCPUs, same code),
// so the gate reads the median of an odd number of rounds.
const speedupRounds = 7

// median returns the middle value of xs; len(xs) is odd.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

// streamBench runs a stream-only corpus job over real HTTP and samples
// the live heap while consuming GET /v1/jobs/{id}/stream. The job holds
// only the bounded catch-up ring, so peak live-heap growth must stay well
// below the full result volume — the bench fails on anything else.
func streamBench(sum *wireSummary, blocks int) error {
	cfg := service.Config{
		DefaultModel:    "c",
		MaxCorpusBlocks: blocks,
		MaxBodyBytes:    1 << 30,
	}
	srv := service.New(cfg)
	if err := srv.WarmModel("c", "hsw"); err != nil {
		return err
	}
	srv.SetReady()
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sum.StreamBlocks = blocks
	sum.StreamRing = 4096 // service default; recorded for the baseline

	// Tiny two-instruction blocks over a rotating opcode/register set: the
	// bench measures streaming throughput and memory, not explanation
	// scale, so per-block engine time is kept in the ~1ms range.
	ops := []string{"add", "sub", "and", "or", "xor"}
	regs := []string{"rax", "rbx", "rcx", "rdx", "rsi", "rdi"}
	texts := make([]string, blocks)
	for i := range texts {
		texts[i] = fmt.Sprintf("%s %s, %s\nmov %s, %s",
			ops[i%len(ops)], regs[i%len(regs)], regs[(i+1)%len(regs)],
			regs[(i+2)%len(regs)], regs[i%len(regs)])
	}
	body, err := json.Marshal(&wire.CorpusRequest{
		Blocks: texts,
		Model:  "c",
		// Small sampling budget, for the same reason the blocks are small.
		Config: &wire.ConfigOverrides{
			CoverageSamples:    10,
			PrecisionThreshold: 0.5,
			Seed:               1,
		},
		Workers: runtime.GOMAXPROCS(0),
		Stream:  true,
	})
	if err != nil {
		return err
	}
	texts = nil

	resp, err := http.Post(ts.URL+"/v1/corpus", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	var accepted wire.JobAccepted
	err = json.NewDecoder(resp.Body).Decode(&accepted)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusAccepted {
		return fmt.Errorf("corpus submit status %d", resp.StatusCode)
	}

	// Heap baseline after submission: the parsed corpus the job holds is
	// its input, not result buffering — the flatness gate measures growth
	// while results flow.
	body = nil
	runtime.GC()
	base := liveHeap()

	stream, err := http.Get(ts.URL + "/v1/jobs/" + accepted.ID + "/stream")
	if err != nil {
		return err
	}
	defer stream.Body.Close()
	if stream.StatusCode != http.StatusOK {
		return fmt.Errorf("stream status %d", stream.StatusCode)
	}

	var (
		results    int
		resultVol  int64
		peakDelta  int64
		doneSeen   bool
		start      = time.Now()
		sampleHeap = func() {
			if d := liveHeap() - base; d > peakDelta {
				peakDelta = d
			}
		}
	)
	sc := bufio.NewScanner(stream.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		var ev wire.StreamEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("stream line %d: %w", results, err)
		}
		switch {
		case ev.Result != nil:
			if ev.Result.Error != "" {
				return fmt.Errorf("block %d failed: %s", ev.Result.Index, ev.Result.Error)
			}
			results++
			resultVol += int64(len(line)) + 1
			if results%2000 == 0 {
				sampleHeap()
			}
		case ev.Done != nil:
			doneSeen = true
			if ev.Done.State != wire.JobDone {
				return fmt.Errorf("job finished %s: %s", ev.Done.State, ev.Done.Error)
			}
		case ev.Error != "":
			return fmt.Errorf("stream error: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	// A final collection, so whatever the finished job still retains is
	// counted rather than waiting on the next cycle.
	runtime.GC()
	sampleHeap()
	if !doneSeen {
		return fmt.Errorf("stream ended without a done event (%d results)", results)
	}
	if results != blocks {
		return fmt.Errorf("streamed %d results, want %d", results, blocks)
	}
	sum.StreamBlocksPerSec = float64(blocks) / time.Since(start).Seconds()
	sum.StreamResultBytes = resultVol
	sum.StreamPeakHeapDelta = peakDelta

	// The flatness gate: a buffering job would hold the full result set
	// (resultVol at minimum); a streaming one holds the ring plus bounded
	// working state (prediction cache), none of which scales with the
	// job. Two-thirds of the result volume is a ceiling that
	// tolerates that fixed overhead while still catching any return to
	// full buffering.
	if blocks >= 4*sum.StreamRing && peakDelta > resultVol*2/3 {
		return fmt.Errorf("stream memory not flat: peak live heap grew %d bytes against %d bytes of results",
			peakDelta, resultVol)
	}
	return nil
}

// checkBaseline gates a fresh run against the committed baseline: >25%
// regression of the median binary-vs-JSON speedup or >10% growth in
// per-request allocations on either path fails the build. Raw requests/s
// are reported but not gated — they measure the runner, not the code.
func checkBaseline(cur *wireSummary, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("reading baseline: %w", err)
	}
	var base wireSummary
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	// The speedup ratio moves with GOMAXPROCS and run length, so a
	// baseline recorded under other settings is flagged, not rejected.
	if cur.GoMaxProcs != base.GoMaxProcs || cur.Requests != base.Requests {
		fmt.Fprintf(os.Stderr, "bench-check: WARN: baseline %s was recorded at gomaxprocs=%d, requests=%d; this run has gomaxprocs=%d, requests=%d\n",
			path, base.GoMaxProcs, base.Requests, cur.GoMaxProcs, cur.Requests)
	}
	var failures []string
	if base.Speedup > 0 && cur.Speedup < base.Speedup*0.75 {
		failures = append(failures, fmt.Sprintf(
			"binary speedup regressed >25%%: %.2fx vs baseline %.2fx", cur.Speedup, base.Speedup))
	}
	allocGate := func(name string, got, want float64) {
		if want > 0 && got > want*1.10 {
			failures = append(failures, fmt.Sprintf(
				"%s allocations grew >10%%: %.1f vs baseline %.1f per request", name, got, want))
		}
	}
	allocGate("JSON path", cur.JSONAllocs, base.JSONAllocs)
	allocGate("binary path", cur.BinaryAllocs, base.BinaryAllocs)
	if len(failures) == 0 {
		fmt.Printf("bench-check: within baseline %s (speedup %.2fx vs %.2fx, allocs %.0f/%.0f vs %.0f/%.0f)\n",
			path, cur.Speedup, base.Speedup,
			cur.JSONAllocs, cur.BinaryAllocs, base.JSONAllocs, base.BinaryAllocs)
		return nil
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "bench-check: FAIL:", f)
	}
	return fmt.Errorf("%d benchmark regression(s) vs %s", len(failures), path)
}
