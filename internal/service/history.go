package service

// Telemetry history wiring: which live counters the background sampler
// (obs.History) snapshots each tick, and the GET /debug/history endpoint
// that serves the retained windows — locally, or federated across the
// cluster with ?cluster=1.
//
// Series names are dot-paths grouped by subsystem so clients (comet-top)
// can select by prefix:
//
//	route.<r>.rps            requests per second, plus .rps_2xx/.rps_4xx/.rps_5xx
//	route.<r>.p50_ms/.p99_ms per-tick latency quantiles (gap when idle)
//	hit_rate.*               per-tick cache hit fractions (prediction_cache,
//	                         intern, persist, result_store)
//	queue.*                  explain wait/inflight depth, corpus job queue
//	jobs.running             corpus jobs executing
//	runtime.*                goroutines, heap bytes
//	explain.*                computed and coalesced explanations per second
//	outliers.rps             slow/5xx traces committed per second
//	spec.<spec>.*            per-model-spec explanation rate and per-tick
//	                         mean precision (registered as specs appear)
//
// Every reader is a handful of atomic loads; the sampler's tick cost is
// independent of request volume.

import (
	"net/http"
	"time"

	"github.com/comet-explain/comet/internal/obs"
)

// registerHistory wires every history series. Called once in New, after
// the mux (and therefore every route's stats slot) is built.
func (s *Server) registerHistory() {
	h := s.history
	routes := s.metrics.routeList()
	for _, rs := range routes {
		rs := rs
		prefix := "route." + rs.name
		h.Rate(prefix+".rps", func() float64 { return float64(rs.latency.count.Load()) })
		h.Rate(prefix+".rps_2xx", codeRange(rs, 200, 300))
		h.Rate(prefix+".rps_4xx", codeRange(rs, 400, 500))
		h.Rate(prefix+".rps_5xx", codeRange(rs, 500, 600))
		h.Value(prefix+".p50_ms", quantileSeries(&rs.latency, 0.50))
		h.Value(prefix+".p99_ms", quantileSeries(&rs.latency, 0.99))
	}
	h.Value("hit_rate.prediction_cache", ratioSeries(
		func() float64 { hits, _ := s.models.cacheTotals(); return float64(hits) },
		func() float64 { hits, misses := s.models.cacheTotals(); return float64(hits + misses) },
	))
	h.Value("hit_rate.intern", ratioSeries(
		func() float64 { return float64(s.metrics.internHits.Load()) },
		// Only binary explain requests probe their frame key; binary
		// predict and shard frames never do.
		func() float64 { return float64(s.metrics.internHits.Load() + s.metrics.internMisses.Load()) },
	))
	h.Value("hit_rate.persist", ratioSeries(
		func() float64 { return float64(s.metrics.persistHits.Load()) },
		func() float64 { return float64(s.metrics.persistHits.Load() + s.metrics.persistMisses.Load()) },
	))
	explainRoute := s.metrics.route("explain")
	h.Value("hit_rate.result_store", ratioSeries(
		func() float64 { return float64(s.metrics.resultStoreHits.Load()) },
		func() float64 { return float64(explainRoute.latency.count.Load()) },
	))
	for i := range metricTable {
		d := &metricTable[i]
		if d.history == "" {
			continue
		}
		// One scrape per series, reused: the sampler goroutine is its
		// only caller.
		sc := &scrape{Server: s}
		read := func() float64 {
			sc.memRead = false
			v, _ := d.read(sc)
			return v
		}
		if d.kind == kindCounter {
			h.Rate(d.history, read)
		} else {
			h.Gauge(d.history, read)
		}
	}
	// Every outlier commit ticks its route's slow counter.
	h.Rate("outliers.rps", func() float64 {
		var n uint64
		for _, rs := range routes {
			n += rs.slow.Load()
		}
		return float64(n)
	})

	// Per-spec quality series appear as specs do: the hook re-offers every
	// known spec each tick, and registration is idempotent (first wins).
	h.BeforeSample = func() {
		s.metrics.specs.Range(func(k, v any) bool {
			spec, q := k.(string), v.(*specStats)
			h.Rate("spec."+spec+".explanations_rps", func() float64 { return float64(q.count.Load()) })
			h.Value("spec."+spec+".precision_mean", ratioSeries(q.precision.sum,
				func() float64 { return float64(q.precision.count.Load()) }))
			return true
		})
	}
}

// codeRange returns a reader summing a route's status counters over
// [lo, hi) — the monotonic counter behind a status-class rate series.
func codeRange(rs *routeStats, lo, hi int) func() float64 {
	return func() float64 {
		var n uint64
		for c := lo; c < hi; c++ {
			n += rs.codes[c-100].Load()
		}
		return float64(n)
	}
}

// ratioSeries returns a value reader computing num-delta / den-delta per
// tick over a pair of monotonic readers — a windowed hit rate over two
// counters, or a histogram's windowed mean over its sum and count. Ticks
// with no denominator traffic (and the baseline-priming first tick) are
// gaps, not zeros.
func ratioSeries(num, den func() float64) func() (float64, bool) {
	var prevNum, prevDen float64
	first := true
	return func() (float64, bool) {
		n, d := num(), den()
		dn, dd := n-prevNum, d-prevDen
		prevNum, prevDen = n, d
		if first {
			first = false
			return 0, false
		}
		if dd == 0 {
			return 0, false
		}
		return dn / dd, true
	}
}

// quantileSeries returns a value reader estimating a latency quantile in
// milliseconds over each tick's histogram bucket deltas (the bucket's
// upper bound, the standard conservative estimate). The closure keeps
// its previous snapshot in reused slices, so a tick allocates nothing;
// the sampler goroutine is its only caller. An idle tick is a gap.
func quantileSeries(hist *histogram, q float64) func() (float64, bool) {
	prev := make([]uint64, len(hist.counts))
	cur := make([]uint64, len(hist.counts))
	return func() (float64, bool) {
		var total uint64
		for i := range hist.counts {
			cur[i] = hist.counts[i].Load()
			total += cur[i] - prev[i]
		}
		defer copy(prev, cur)
		if total == 0 {
			return 0, false
		}
		rank := uint64(float64(total) * q)
		if rank >= total {
			rank = total - 1
		}
		var cum uint64
		for i, bound := range hist.bounds {
			cum += cur[i] - prev[i]
			if cum > rank {
				return bound * 1000, true
			}
		}
		// Overflow bucket: everything past the largest bound.
		return hist.bounds[len(hist.bounds)-1] * 1000, true
	}
}

// handleHistory serves GET /debug/history: every retained telemetry
// series, oldest point first. With ?cluster=1 on a coordinator, the
// response carries one history dump per cluster process (local plus
// every live worker), each labeled; a down worker contributes an error
// entry, never a failed view.
func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, _ inbound) error {
	local := s.history.Dump(s.cfg.ProcessLabel)
	if r.URL.Query().Get("cluster") != "1" || s.coordinator == nil {
		writeJSON(w, http.StatusOK, local)
		return nil
	}
	answers := federate(r.Context(), s, "/debug/history", &local,
		func(d *obs.HistoryDump, process string) { d.Process = process })
	processes := make([]processView, len(answers))
	for i, a := range answers {
		processes[i] = a.view
		processes[i].History = a.data
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"cluster":   true,
		"now":       time.Now().UTC(),
		"processes": processes,
	})
	return nil
}
