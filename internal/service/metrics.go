package service

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// metrics is cometd's stdlib-only instrumentation: request counters by
// (route, status), per-route latency histograms, per-spec explanation
// latency histograms, and service-level counters (coalesced requests,
// result-store hits). Everything renders in the Prometheus text
// exposition format on GET /metrics; gauges sourced from live structures
// (queue depth, cache stats, job states, runtime) are appended by the
// server at render time.
//
// The request hot path is allocation- and lock-free: routes are
// registered once at mux wiring time, each holding a fixed array of
// per-status atomic counters, so observe is two atomic adds and a bucket
// search — no fmt, no map, no mutex. (The previous implementation built
// a "route|code" key with fmt.Sprintf under a global mutex per request,
// which was measurable at the binary warm path's request rates.)
type metrics struct {
	mu     sync.Mutex
	routes []*routeStats // registration order; sorted at render

	// specLatency maps model spec → *histogram of computed-explanation
	// wall times. Entries are created on first computation for a spec;
	// cardinality is bounded by the model registry's entry cap.
	specLatency sync.Map

	// specQuality maps model spec → *qualityStats: the explanation-quality
	// telemetry (achieved precision, coverage, perturbation count,
	// ε-violation rate) recorded wherever an explanation is actually
	// computed — sync request, local corpus job, worker shard lease — and
	// never on the coordinator's merge path, so cluster runs count each
	// explanation exactly once (on the process that computed it).
	specQuality sync.Map

	coalesced       atomic.Uint64 // explain requests served by single-flight
	resultStoreHits atomic.Uint64 // explain requests served by the LRU store
	explanations    atomic.Uint64 // explanations actually computed
	predictions     atomic.Uint64 // blocks predicted via /v1/predict
	shardBlocks     atomic.Uint64 // blocks explained for coordinators via /v1/shard
	persistHits     atomic.Uint64 // explain requests served by the durable store
	persistMisses   atomic.Uint64 // durable-store lookups that fell through
	storeErrors     atomic.Uint64 // durable-store write/sync failures
	internHits      atomic.Uint64 // binary requests answered from the intern table (no decode)
	frameRequests   atomic.Uint64 // binary-framed request bodies decoded
	streamedResults atomic.Uint64 // corpus results delivered over job streams

	// Binary-ingestion counters (POST /v1/corpus upload mode).
	ingestBinaries atomic.Uint64 // ELF uploads successfully extracted
	ingestSections atomic.Uint64 // executable sections scanned
	ingestBytes    atomic.Uint64 // code bytes examined
	ingestBlocks   atomic.Uint64 // unique basic blocks emitted
	ingestDeduped  atomic.Uint64 // duplicate blocks dropped
	ingestSkipped  atomic.Uint64 // unmodeled instructions skipped
	ingestRejected atomic.Uint64 // uploads rejected (oversized or unextractable)
}

func newMetrics() *metrics {
	return &metrics{}
}

// routeStats holds one route's pre-registered counters. Status codes
// index a fixed array (100–599), so recording a request touches no
// shared lock and allocates nothing.
type routeStats struct {
	name    string
	codes   [500]atomic.Uint64 // status code − 100
	latency histogram
	// slow counts requests committed to the outlier trace ring (latency
	// over the slow threshold, or status ≥ 500); incremented by the
	// commit path, not by observe.
	slow atomic.Uint64
}

// routeList snapshots the registered routes, registration order. The
// history sampler uses it to wire per-route series after the mux is
// built.
func (m *metrics) routeList() []*routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*routeStats(nil), m.routes...)
}

// route registers (or returns) the stats slot for a route name. Called
// once per route when the mux is wired, never on the request path.
func (m *metrics) route(name string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, rs := range m.routes {
		if rs.name == name {
			return rs
		}
	}
	rs := &routeStats{name: name}
	rs.latency.init(latencyBounds)
	m.routes = append(m.routes, rs)
	return rs
}

// observe records one finished request: two atomic adds plus the
// histogram's bucket add.
func (rs *routeStats) observe(code int, seconds float64) {
	if code < 100 || code >= 600 {
		code = 599 // never drop a sample; 599 is the "invalid status" bucket
	}
	rs.codes[code-100].Add(1)
	rs.latency.observe(seconds)
}

// observeExplanation records one computed explanation's wall time under
// its model spec. The sync.Map lookup is lock-free after the first
// computation for a spec.
func (m *metrics) observeExplanation(spec string, seconds float64) {
	v, ok := m.specLatency.Load(spec)
	if !ok {
		h := &histogram{}
		h.init(latencyBounds)
		v, _ = m.specLatency.LoadOrStore(spec, h)
	}
	v.(*histogram).observe(seconds)
}

// qualityStats aggregates one model spec's explanation quality. The hot
// path is the same atomized discipline as the latency histograms: after
// the first explanation for a spec, recording is a lock-free sync.Map
// load plus atomic histogram observes — no allocation, no mutex.
type qualityStats struct {
	precision histogram // achieved Prec(F), fraction
	coverage  histogram // achieved Cov(F), fraction of the coverage pool
	queries   histogram // perturbations (cost-model queries) per explanation
	// uncertified counts explanations whose KL lower bound failed to
	// clear the 1−δ precision threshold (Certified == false); the
	// uncertified rate is uncertified / count.
	uncertified atomic.Uint64
	count       atomic.Uint64
}

// Fraction buckets for precision/coverage in [0, 1]; the top buckets are
// dense because that is where the certification threshold lives.
var fractionBounds = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// Perturbation-count buckets: cheap anchors run tens of queries, hard
// blocks on tight thresholds run thousands.
var queryBounds = []float64{10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000}

// observeQuality records one computed explanation's quality signals
// under its model spec.
func (m *metrics) observeQuality(spec string, precision, coverage float64, queries int, certified bool) {
	v, ok := m.specQuality.Load(spec)
	if !ok {
		q := &qualityStats{}
		q.precision.init(fractionBounds)
		q.coverage.init(fractionBounds)
		q.queries.init(queryBounds)
		v, _ = m.specQuality.LoadOrStore(spec, q)
	}
	q := v.(*qualityStats)
	q.precision.observe(precision)
	q.coverage.observe(coverage)
	q.queries.observe(float64(queries))
	q.count.Add(1)
	if !certified {
		q.uncertified.Add(1)
	}
}

// renderQuality writes the per-spec explanation-quality families.
func (m *metrics) renderQuality(sb *strings.Builder) {
	var specs []string
	m.specQuality.Range(func(k, _ any) bool {
		specs = append(specs, k.(string))
		return true
	})
	if len(specs) == 0 {
		return
	}
	sort.Strings(specs)
	stats := func(spec string) *qualityStats {
		v, _ := m.specQuality.Load(spec)
		return v.(*qualityStats)
	}
	sb.WriteString("# HELP comet_explanation_precision Achieved precision Prec(F) of computed explanations, by model spec.\n")
	sb.WriteString("# TYPE comet_explanation_precision histogram\n")
	for _, spec := range specs {
		stats(spec).precision.render(sb, "comet_explanation_precision", fmt.Sprintf("spec=%q", spec))
	}
	sb.WriteString("# HELP comet_explanation_coverage Achieved coverage Cov(F) of computed explanations (fraction of the coverage pool), by model spec.\n")
	sb.WriteString("# TYPE comet_explanation_coverage histogram\n")
	for _, spec := range specs {
		stats(spec).coverage.render(sb, "comet_explanation_coverage", fmt.Sprintf("spec=%q", spec))
	}
	sb.WriteString("# HELP comet_explanation_queries Cost-model queries (perturbations) issued per computed explanation, by model spec.\n")
	sb.WriteString("# TYPE comet_explanation_queries histogram\n")
	for _, spec := range specs {
		stats(spec).queries.render(sb, "comet_explanation_queries", fmt.Sprintf("spec=%q", spec))
	}
	sb.WriteString("# HELP comet_explanation_uncertified_total Computed explanations whose precision bound failed certification (Certified=false), by model spec.\n")
	sb.WriteString("# TYPE comet_explanation_uncertified_total counter\n")
	for _, spec := range specs {
		fmt.Fprintf(sb, "comet_explanation_uncertified_total{spec=%q} %d\n", spec, stats(spec).uncertified.Load())
	}
	sb.WriteString("# HELP comet_explanation_quality_samples_total Computed explanations feeding the quality histograms, by model spec.\n")
	sb.WriteString("# TYPE comet_explanation_quality_samples_total counter\n")
	for _, spec := range specs {
		fmt.Fprintf(sb, "comet_explanation_quality_samples_total{spec=%q} %d\n", spec, stats(spec).count.Load())
	}
}

// gauge is one extra sample appended by the server at render time.
type gauge struct {
	name   string
	labels string // rendered label set, "" or `model="uica",arch="hsw"`
	value  float64
}

// render writes the exposition text. Extra gauges come from the server
// (queue depth, prediction-cache stats, job states, store sizes,
// runtime).
func (m *metrics) render(sb *strings.Builder, extra []gauge) {
	m.mu.Lock()
	routes := append([]*routeStats(nil), m.routes...)
	m.mu.Unlock()
	sort.Slice(routes, func(i, j int) bool { return routes[i].name < routes[j].name })

	sb.WriteString("# HELP comet_requests_total HTTP requests served, by route and status code.\n")
	sb.WriteString("# TYPE comet_requests_total counter\n")
	for _, rs := range routes {
		for i := range rs.codes {
			if n := rs.codes[i].Load(); n > 0 {
				fmt.Fprintf(sb, "comet_requests_total{route=%q,code=\"%d\"} %d\n", rs.name, i+100, n)
			}
		}
	}

	sb.WriteString("# HELP comet_slow_requests_total Requests committed to the outlier trace ring (latency over the slow threshold, or status >= 500), by route.\n")
	sb.WriteString("# TYPE comet_slow_requests_total counter\n")
	for _, rs := range routes {
		if n := rs.slow.Load(); n > 0 {
			fmt.Fprintf(sb, "comet_slow_requests_total{route=%q} %d\n", rs.name, n)
		}
	}

	sb.WriteString("# HELP comet_request_seconds Request latency, by route.\n")
	sb.WriteString("# TYPE comet_request_seconds histogram\n")
	for _, rs := range routes {
		if rs.latency.count.Load() > 0 {
			rs.latency.render(sb, "comet_request_seconds", fmt.Sprintf("route=%q", rs.name))
		}
	}

	var specs []string
	m.specLatency.Range(func(k, _ any) bool {
		specs = append(specs, k.(string))
		return true
	})
	if len(specs) > 0 {
		sort.Strings(specs)
		sb.WriteString("# HELP comet_explanation_seconds Computed-explanation wall time, by model spec (cache hits excluded).\n")
		sb.WriteString("# TYPE comet_explanation_seconds histogram\n")
		for _, spec := range specs {
			v, _ := m.specLatency.Load(spec)
			v.(*histogram).render(sb, "comet_explanation_seconds", fmt.Sprintf("spec=%q", spec))
		}
	}

	m.renderQuality(sb)

	fmt.Fprintf(sb, "# HELP comet_explain_coalesced_total Explain requests coalesced onto an identical in-flight computation.\n")
	fmt.Fprintf(sb, "# TYPE comet_explain_coalesced_total counter\n")
	fmt.Fprintf(sb, "comet_explain_coalesced_total %d\n", m.coalesced.Load())
	fmt.Fprintf(sb, "# HELP comet_result_store_hits_total Explain requests served from the explanation result store.\n")
	fmt.Fprintf(sb, "# TYPE comet_result_store_hits_total counter\n")
	fmt.Fprintf(sb, "comet_result_store_hits_total %d\n", m.resultStoreHits.Load())
	fmt.Fprintf(sb, "# HELP comet_explanations_computed_total Explanations actually computed (not coalesced or cached).\n")
	fmt.Fprintf(sb, "# TYPE comet_explanations_computed_total counter\n")
	fmt.Fprintf(sb, "comet_explanations_computed_total %d\n", m.explanations.Load())
	fmt.Fprintf(sb, "# HELP comet_predictions_served_total Blocks predicted through POST /v1/predict.\n")
	fmt.Fprintf(sb, "# TYPE comet_predictions_served_total counter\n")
	fmt.Fprintf(sb, "comet_predictions_served_total %d\n", m.predictions.Load())
	fmt.Fprintf(sb, "# HELP comet_shard_blocks_total Blocks explained on behalf of cluster coordinators through POST /v1/shard.\n")
	fmt.Fprintf(sb, "# TYPE comet_shard_blocks_total counter\n")
	fmt.Fprintf(sb, "comet_shard_blocks_total %d\n", m.shardBlocks.Load())
	fmt.Fprintf(sb, "# HELP comet_persist_hits_total Explain requests served from the durable store.\n")
	fmt.Fprintf(sb, "# TYPE comet_persist_hits_total counter\n")
	fmt.Fprintf(sb, "comet_persist_hits_total %d\n", m.persistHits.Load())
	fmt.Fprintf(sb, "# HELP comet_persist_misses_total Durable-store lookups that fell through to computation.\n")
	fmt.Fprintf(sb, "# TYPE comet_persist_misses_total counter\n")
	fmt.Fprintf(sb, "comet_persist_misses_total %d\n", m.persistMisses.Load())
	fmt.Fprintf(sb, "# HELP comet_store_errors_total Durable-store write or sync failures (requests are never failed on them).\n")
	fmt.Fprintf(sb, "# TYPE comet_store_errors_total counter\n")
	fmt.Fprintf(sb, "comet_store_errors_total %d\n", m.storeErrors.Load())
	fmt.Fprintf(sb, "# HELP comet_intern_hits_total Binary explain requests answered from the intern table without decoding.\n")
	fmt.Fprintf(sb, "# TYPE comet_intern_hits_total counter\n")
	fmt.Fprintf(sb, "comet_intern_hits_total %d\n", m.internHits.Load())
	fmt.Fprintf(sb, "# HELP comet_frame_requests_total Binary-framed request bodies decoded.\n")
	fmt.Fprintf(sb, "# TYPE comet_frame_requests_total counter\n")
	fmt.Fprintf(sb, "comet_frame_requests_total %d\n", m.frameRequests.Load())
	fmt.Fprintf(sb, "# HELP comet_streamed_results_total Corpus results delivered over GET /v1/jobs/{id}/stream.\n")
	fmt.Fprintf(sb, "# TYPE comet_streamed_results_total counter\n")
	fmt.Fprintf(sb, "comet_streamed_results_total %d\n", m.streamedResults.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_binaries_total ELF binaries ingested through POST /v1/corpus uploads.\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_binaries_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_binaries_total %d\n", m.ingestBinaries.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_sections_total Executable sections scanned during binary ingestion.\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_sections_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_sections_total %d\n", m.ingestSections.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_bytes_total Code bytes decoded during binary ingestion.\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_bytes_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_bytes_total %d\n", m.ingestBytes.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_blocks_total Unique basic blocks extracted during binary ingestion.\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_blocks_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_blocks_total %d\n", m.ingestBlocks.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_deduped_total Duplicate basic blocks dropped during binary ingestion.\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_deduped_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_deduped_total %d\n", m.ingestDeduped.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_skipped_total Instructions outside the modeled subset skipped during binary ingestion.\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_skipped_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_skipped_total %d\n", m.ingestSkipped.Load())
	fmt.Fprintf(sb, "# HELP comet_ingest_rejected_total Binary uploads rejected (oversized or unextractable).\n")
	fmt.Fprintf(sb, "# TYPE comet_ingest_rejected_total counter\n")
	fmt.Fprintf(sb, "comet_ingest_rejected_total %d\n", m.ingestRejected.Load())

	byName := make(map[string][]gauge)
	var names []string
	for _, g := range extra {
		if _, ok := byName[g.name]; !ok {
			names = append(names, g.name)
		}
		byName[g.name] = append(byName[g.name], g)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(sb, "# TYPE %s gauge\n", name)
		for _, g := range byName[name] {
			if g.labels == "" {
				fmt.Fprintf(sb, "%s %s\n", name, formatFloat(g.value))
			} else {
				fmt.Fprintf(sb, "%s{%s} %s\n", name, g.labels, formatFloat(g.value))
			}
		}
	}
}

// histogram is a fixed-bucket latency histogram with atomic counters.
// The sum is an atomic float (CAS over its bits), so observe never takes
// a lock.
type histogram struct {
	bounds  []float64 // upper bounds in seconds; +Inf implied
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

// Latency buckets from 1ms to ~2min; explanations of big blocks on slow
// models legitimately take seconds.
var latencyBounds = []float64{0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 120}

func (h *histogram) init(bounds []float64) {
	h.bounds = bounds
	h.counts = make([]atomic.Uint64, len(bounds)+1)
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// sum reads the histogram's running sum of observed values.
func (h *histogram) sum() float64 {
	return math.Float64frombits(h.sumBits.Load())
}

func (h *histogram) render(sb *strings.Builder, name, labels string) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket{%s,le=%q} %d\n", name, labels, formatFloat(bound), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(sb, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, labels, cum)
	sum := math.Float64frombits(h.sumBits.Load())
	fmt.Fprintf(sb, "%s_sum{%s} %s\n", name, labels, formatFloat(sum))
	fmt.Fprintf(sb, "%s_count{%s} %d\n", name, labels, h.count.Load())
}

func formatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
