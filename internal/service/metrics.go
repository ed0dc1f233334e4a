package service

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/comet-explain/comet/internal/core"
)

// metrics is cometd's stdlib-only instrumentation: request counters by
// (route, status), per-route latency histograms, per-spec explanation
// latency histograms, and service-level counters (coalesced requests,
// result-store hits). Everything renders in the Prometheus text
// exposition format on GET /metrics, with HELP and TYPE from metricTable,
// which also declares every unlabelled family and its reader.
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

	// specs maps model spec → *specStats: computed-explanation wall
	// times and quality telemetry, recorded wherever an explanation is
	// actually computed — sync request, local corpus job, worker shard
	// lease — and never on the coordinator's merge path, so cluster runs
	// count each explanation exactly once (on the process that computed
	// it). Entries are created on first computation for a spec;
	// cardinality is bounded by the model registry's entry cap.
	specs sync.Map

	coalesced       atomic.Uint64 // explain requests served by single-flight
	resultStoreHits atomic.Uint64 // explain requests served by the LRU store
	explanations    atomic.Uint64 // explanations actually computed (observeComputed)
	predictions     atomic.Uint64 // blocks predicted via /v1/predict
	shardBlocks     atomic.Uint64 // blocks explained for coordinators via /v1/shard
	persistHits     atomic.Uint64 // explain requests served by the durable store
	persistMisses   atomic.Uint64 // durable-store lookups that fell through
	storeErrors     atomic.Uint64 // durable-store write/sync failures
	internHits      atomic.Uint64 // binary explain requests answered by their frame key (no decode)
	internMisses    atomic.Uint64 // binary explain requests whose frame key missed (not exported; hit_rate.intern's denominator)
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

// observeComputed records one explanation this process computed — a
// sync request, a corpus-job block or a shard-lease block — under its
// model spec: the computed count, its wall time and its quality signals.
// A computed explanation always carries its Profile. The sync.Map
// lookups are lock-free after the first computation for a spec.
func (m *metrics) observeComputed(spec string, e *core.Explanation) {
	m.explanations.Add(1)
	v, ok := m.specs.Load(spec)
	if !ok {
		st := &specStats{}
		st.latency.init(latencyBounds)
		st.precision.init(fractionBounds)
		st.coverage.init(fractionBounds)
		st.queries.init(queryBounds)
		v, _ = m.specs.LoadOrStore(spec, st)
	}
	st := v.(*specStats)
	st.latency.observe(e.Profile.Total.Seconds())
	st.precision.observe(e.Precision)
	st.coverage.observe(e.Coverage)
	st.queries.observe(float64(e.Queries))
	st.count.Add(1)
	if !e.Certified {
		st.uncertified.Add(1)
	}
}

// specStats aggregates one model spec's computed explanations: wall
// time and quality. After the first explanation for a spec, recording
// is a lock-free sync.Map load plus atomic histogram observes — no
// allocation, no mutex.
type specStats struct {
	latency   histogram // computed-explanation wall time, seconds
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

// renderSpecs writes the per-spec families: explanation wall time,
// then quality.
func (m *metrics) renderSpecs(sb *strings.Builder) {
	type row struct {
		spec  string
		stats *specStats
	}
	var rows []row
	m.specs.Range(func(k, v any) bool {
		rows = append(rows, row{k.(string), v.(*specStats)})
		return true
	})
	if len(rows) == 0 {
		return
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].spec < rows[j].spec })
	histograms := func(name string, h func(*specStats) *histogram) {
		writeFamily(sb, name)
		for _, r := range rows {
			h(r.stats).render(sb, name, fmt.Sprintf("spec=%q", r.spec))
		}
	}
	histograms("comet_explanation_seconds", func(st *specStats) *histogram { return &st.latency })
	histograms("comet_explanation_precision", func(st *specStats) *histogram { return &st.precision })
	histograms("comet_explanation_coverage", func(st *specStats) *histogram { return &st.coverage })
	histograms("comet_explanation_queries", func(st *specStats) *histogram { return &st.queries })
	writeFamily(sb, "comet_explanation_uncertified_total")
	for _, r := range rows {
		fmt.Fprintf(sb, "comet_explanation_uncertified_total{spec=%q} %d\n", r.spec, r.stats.uncertified.Load())
	}
	writeFamily(sb, "comet_explanation_quality_samples_total")
	for _, r := range rows {
		fmt.Fprintf(sb, "comet_explanation_quality_samples_total{spec=%q} %d\n", r.spec, r.stats.count.Load())
	}
}

// render writes the labelled request and per-spec families; the
// unlabelled ones come from metricTable.
func (m *metrics) render(sb *strings.Builder) {
	m.mu.Lock()
	routes := append([]*routeStats(nil), m.routes...)
	m.mu.Unlock()
	sort.Slice(routes, func(i, j int) bool { return routes[i].name < routes[j].name })

	writeFamily(sb, "comet_requests_total")
	for _, rs := range routes {
		for i := range rs.codes {
			if n := rs.codes[i].Load(); n > 0 {
				fmt.Fprintf(sb, "comet_requests_total{route=%q,code=\"%d\"} %d\n", rs.name, i+100, n)
			}
		}
	}

	writeFamily(sb, "comet_slow_requests_total")
	for _, rs := range routes {
		if n := rs.slow.Load(); n > 0 {
			fmt.Fprintf(sb, "comet_slow_requests_total{route=%q} %d\n", rs.name, n)
		}
	}

	writeFamily(sb, "comet_request_seconds")
	for _, rs := range routes {
		if rs.latency.count.Load() > 0 {
			rs.latency.render(sb, "comet_request_seconds", fmt.Sprintf("route=%q", rs.name))
		}
	}

	m.renderSpecs(sb)
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
