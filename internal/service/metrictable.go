package service

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
)

// metricKind is a family's Prometheus TYPE.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metricDesc declares one /metrics family. metricTable is the only place
// a family's name, TYPE and HELP text are written down.
type metricDesc struct {
	name string
	kind metricKind
	help string
	// read samples an unlabelled family; ok=false leaves the family out
	// of this scrape (no durable store attached, not a coordinator).
	// Labelled families have no reader: their owners render the samples
	// after writeFamily.
	read func(sc *scrape) (v float64, ok bool)
	// history, when set, names the /debug/history series sampled from
	// read each tick: a rate for a counter, the value for a gauge.
	history string
}

// scrape is one read of the server's live state, shared by the table's
// readers: ReadMemStats runs at most once per scrape, and the store and
// coordinator are asked for their stats once, by handleMetrics.
type scrape struct {
	*Server
	memStats   runtime.MemStats
	memRead    bool
	storeStats persist.Stats
	hasStore   bool
	cluster    wire.ClusterStatus
	inCluster  bool
}

func (sc *scrape) mem() *runtime.MemStats {
	if !sc.memRead {
		runtime.ReadMemStats(&sc.memStats)
		sc.memRead = true
	}
	return &sc.memStats
}

// num is the sample of a family that is always present.
func num[T ~int | ~int64 | ~uint64](v T) (float64, bool) { return float64(v), true }

var metricTable = []metricDesc{
	// Labelled families, rendered by metrics.render and renderSpecs.
	{name: "comet_requests_total", kind: kindCounter, help: "HTTP requests served, by route and status code."},
	{name: "comet_slow_requests_total", kind: kindCounter, help: "Requests committed to the outlier trace ring (latency over the slow threshold, or status >= 500), by route."},
	{name: "comet_request_seconds", kind: kindHistogram, help: "Request latency, by route."},
	{name: "comet_explanation_seconds", kind: kindHistogram, help: "Computed-explanation wall time, by model spec (cache hits excluded)."},
	{name: "comet_explanation_precision", kind: kindHistogram, help: "Achieved precision Prec(F) of computed explanations, by model spec."},
	{name: "comet_explanation_coverage", kind: kindHistogram, help: "Achieved coverage Cov(F) of computed explanations (fraction of the coverage pool), by model spec."},
	{name: "comet_explanation_queries", kind: kindHistogram, help: "Cost-model queries (perturbations) issued per computed explanation, by model spec."},
	{name: "comet_explanation_uncertified_total", kind: kindCounter, help: "Computed explanations whose precision bound failed certification (Certified=false), by model spec."},
	{name: "comet_explanation_quality_samples_total", kind: kindCounter, help: "Computed explanations feeding the quality histograms, by model spec."},

	// The service's own counters.
	{name: "comet_explain_coalesced_total", kind: kindCounter, help: "Explain requests coalesced onto an identical in-flight computation.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.coalesced.Load()) }, history: "explain.coalesced_rps"},
	{name: "comet_result_store_hits_total", kind: kindCounter, help: "Explain requests served from the explanation result store.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.resultStoreHits.Load()) }},
	{name: "comet_explanations_computed_total", kind: kindCounter, help: "Explanations actually computed (not coalesced or cached): sync requests, corpus-job blocks and shard-lease blocks.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.explanations.Load()) }, history: "explain.computed_rps"},
	{name: "comet_predictions_served_total", kind: kindCounter, help: "Blocks predicted through POST /v1/predict.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.predictions.Load()) }},
	{name: "comet_shard_blocks_total", kind: kindCounter, help: "Blocks explained on behalf of cluster coordinators through POST /v1/shard.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.shardBlocks.Load()) }},
	{name: "comet_persist_hits_total", kind: kindCounter, help: "Explain requests served from the durable store.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.persistHits.Load()) }},
	{name: "comet_persist_misses_total", kind: kindCounter, help: "Durable-store lookups that fell through to computation.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.persistMisses.Load()) }},
	{name: "comet_store_errors_total", kind: kindCounter, help: "Durable-store write or sync failures (requests are never failed on them).", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.storeErrors.Load()) }},
	{name: "comet_intern_hits_total", kind: kindCounter, help: "Binary explain requests answered by their frame key in the result store, without decoding.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.internHits.Load()) }},
	{name: "comet_frame_requests_total", kind: kindCounter, help: "Binary-framed request bodies decoded.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.frameRequests.Load()) }},
	{name: "comet_streamed_results_total", kind: kindCounter, help: "Corpus results delivered over GET /v1/jobs/{id}/stream.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.streamedResults.Load()) }},
	{name: "comet_ingest_binaries_total", kind: kindCounter, help: "ELF binaries ingested through POST /v1/corpus uploads.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestBinaries.Load()) }},
	{name: "comet_ingest_sections_total", kind: kindCounter, help: "Executable sections scanned during binary ingestion.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestSections.Load()) }},
	{name: "comet_ingest_bytes_total", kind: kindCounter, help: "Code bytes decoded during binary ingestion.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestBytes.Load()) }},
	{name: "comet_ingest_blocks_total", kind: kindCounter, help: "Unique basic blocks extracted during binary ingestion.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestBlocks.Load()) }},
	{name: "comet_ingest_deduped_total", kind: kindCounter, help: "Duplicate basic blocks dropped during binary ingestion.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestDeduped.Load()) }},
	{name: "comet_ingest_skipped_total", kind: kindCounter, help: "Instructions outside the modeled subset skipped during binary ingestion.", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestSkipped.Load()) }},
	{name: "comet_ingest_rejected_total", kind: kindCounter, help: "Binary uploads rejected (oversized or unextractable).", read: func(sc *scrape) (float64, bool) { return num(sc.metrics.ingestRejected.Load()) }},

	// Live structures, read at render time.
	{name: "comet_explain_inflight", kind: kindGauge, help: "Explanations computing now, holding one of the explain slots.", read: func(sc *scrape) (float64, bool) { return num(len(sc.explainSlots)) }, history: "queue.explain_inflight"},
	{name: "comet_explain_waiting", kind: kindGauge, help: "Explain requests waiting for an explain slot.", read: func(sc *scrape) (float64, bool) { return num(sc.explainWaiting.Load()) }, history: "queue.explain_waiting"},
	{name: "comet_result_store_entries", kind: kindGauge, help: "Keys held in the result store: one per explanation, plus one per binary request frame that aliases it.", read: func(sc *scrape) (float64, bool) { return num(sc.results.len()) }},
	{name: "comet_job_queue_depth", kind: kindGauge, help: "Corpus jobs waiting in the job queue.", read: func(sc *scrape) (float64, bool) { return num(sc.jobs.queued.Load()) }, history: "queue.jobs"},
	{name: "comet_jobs_running", kind: kindGauge, help: "Corpus jobs executing.", read: func(sc *scrape) (float64, bool) { return num(sc.jobs.running.Load()) }, history: "jobs.running"},
	{name: "comet_jobs_finished", kind: kindGauge, help: "Finished corpus jobs kept in the job history.", read: func(sc *scrape) (float64, bool) { return num(sc.jobs.history.len()) }},

	// Go runtime.
	{name: "comet_goroutines", kind: kindGauge, help: "Goroutines in the process.", read: func(sc *scrape) (float64, bool) { return num(runtime.NumGoroutine()) }, history: "runtime.goroutines"},
	{name: "comet_heap_bytes", kind: kindGauge, help: "Bytes of allocated heap objects.", read: func(sc *scrape) (float64, bool) { return num(sc.mem().HeapAlloc) }, history: "runtime.heap_bytes"},
	{name: "comet_gc_pause_seconds_total", kind: kindCounter, help: "Garbage-collector stop-the-world pause time since start.", read: func(sc *scrape) (float64, bool) { return float64(sc.mem().PauseTotalNs) / 1e9, true }},
	{name: "comet_gc_cycles_total", kind: kindCounter, help: "Completed garbage-collection cycles.", read: func(sc *scrape) (float64, bool) { return float64(sc.mem().NumGC), true }},

	// Durable store, present when one is attached.
	{name: "comet_store_entries", kind: kindGauge, help: "Live records in the durable store.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Entries), sc.hasStore }},
	{name: "comet_store_live_bytes", kind: kindGauge, help: "On-disk bytes of live durable-store records.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.LiveBytes), sc.hasStore }},
	{name: "comet_store_total_bytes", kind: kindGauge, help: "On-disk bytes of all durable-store segments, superseded records included.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.TotalBytes), sc.hasStore }},
	{name: "comet_store_segments", kind: kindGauge, help: "Durable-store segment files.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Segments), sc.hasStore }},
	{name: "comet_store_hits_total", kind: kindCounter, help: "Durable-store lookups that found a record.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Hits), sc.hasStore }},
	{name: "comet_store_misses_total", kind: kindCounter, help: "Durable-store lookups that found no record.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Misses), sc.hasStore }},
	{name: "comet_store_puts_total", kind: kindCounter, help: "Records written to the durable store.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Puts), sc.hasStore }},
	{name: "comet_store_corrupt_records_total", kind: kindCounter, help: "Durable-store frames skipped for a bad checksum, a bad length or a torn tail.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.CorruptRecords), sc.hasStore }},
	{name: "comet_store_evictions_total", kind: kindCounter, help: "Durable-store entries dropped by compaction to honor the size cap.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Evictions), sc.hasStore }},
	{name: "comet_store_compactions_total", kind: kindCounter, help: "Completed durable-store compaction passes.", read: func(sc *scrape) (float64, bool) { return float64(sc.storeStats.Compactions), sc.hasStore }},

	// Cluster scheduler, present in coordinator mode.
	{name: "comet_cluster_leases_dispatched_total", kind: kindCounter, help: "Shard-lease dispatch attempts to cluster workers, retries and straggler duplicates included.", read: func(sc *scrape) (float64, bool) { return float64(sc.cluster.LeasesDispatched), sc.inCluster }},
	{name: "comet_cluster_leases_released_total", kind: kindCounter, help: "Shard leases requeued after a failed or timed-out dispatch.", read: func(sc *scrape) (float64, bool) { return float64(sc.cluster.LeasesReleased), sc.inCluster }},
	{name: "comet_cluster_straggler_dispatches_total", kind: kindCounter, help: "Duplicate dispatches of still-in-flight leases to idle workers.", read: func(sc *scrape) (float64, bool) { return float64(sc.cluster.StragglerDispatches), sc.inCluster }},
	{name: "comet_cluster_worker_deaths_total", kind: kindCounter, help: "Cluster workers declared dead.", read: func(sc *scrape) (float64, bool) { return float64(sc.cluster.WorkerDeaths), sc.inCluster }},
	{name: "comet_cluster_blocks_done_total", kind: kindCounter, help: "Blocks whose cluster results were emitted.", read: func(sc *scrape) (float64, bool) { return float64(sc.cluster.BlocksDone), sc.inCluster }},
	{name: "comet_cluster_shard_errors_total", kind: kindCounter, help: "Failed lease dispatches (transport errors, non-2xx, malformed responses, timeouts).", read: func(sc *scrape) (float64, bool) { return float64(sc.cluster.ShardErrors), sc.inCluster }},

	// Labelled families rendered by handleMetrics, the model registry and
	// the cluster view.
	{name: "comet_build_info", kind: kindGauge, help: "Always 1; labels carry the build version and Go version."},
	{name: "comet_prediction_cache_hits_total", kind: kindCounter, help: "Prediction-cache hits, by model and arch."},
	{name: "comet_prediction_cache_misses_total", kind: kindCounter, help: "Prediction-cache misses, by model and arch."},
	{name: "comet_prediction_cache_hit_rate", kind: kindGauge, help: "Prediction-cache hit fraction since start, by model and arch."},
	{name: "comet_prediction_cache_entries", kind: kindGauge, help: "Predictions held in the prediction cache, by model and arch."},
	{name: "comet_cluster_workers", kind: kindGauge, help: "Cluster workers in the coordinator's pool, by state."},
}

// writeFamily writes a family's HELP and TYPE lines from the table.
func writeFamily(sb *strings.Builder, name string) {
	for i := range metricTable {
		if d := &metricTable[i]; d.name == name {
			d.writeHeader(sb)
			return
		}
	}
	panic("service: metric family " + name + " is not in metricTable")
}

func (d *metricDesc) writeHeader(sb *strings.Builder) {
	fmt.Fprintf(sb, "# HELP %s %s\n# TYPE %s %s\n", d.name, d.help, d.name, d.kind)
}

// renderTable writes every unlabelled family present in this scrape.
func renderTable(sb *strings.Builder, sc *scrape) {
	for i := range metricTable {
		d := &metricTable[i]
		if d.read == nil {
			continue
		}
		if v, ok := d.read(sc); ok {
			d.writeHeader(sb)
			fmt.Fprintf(sb, "%s %s\n", d.name, formatFloat(v))
		}
	}
}
