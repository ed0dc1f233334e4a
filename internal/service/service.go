// Package service implements cometd, the explanation-serving subsystem:
// a stdlib-only HTTP/JSON server that owns the model zoo, the shared
// prediction caches, and the batched corpus engine, and exposes them as a
// long-lived, multi-tenant API.
//
// Routes:
//
//	POST /v1/explain        synchronous single-block explanation
//	POST /v1/predict        batch cost-model queries (the remote-model backend)
//	POST /v1/corpus         asynchronous corpus job (bounded queue, 429 on overflow)
//	GET  /v1/jobs           list every known job (queued, running, finished, restored)
//	GET  /v1/jobs/{id}      job status + paginated results (?offset=&limit=)
//	GET  /v1/jobs/{id}/stream  chunked result stream (NDJSON, or binary frames via Accept)
//	GET  /v1/models         registered model specs + their default configs
//	POST /v1/shard          execute one lease of a sharded corpus job (cluster worker)
//	POST /v1/cluster/join   worker self-registration + heartbeat (coordinator mode)
//	GET  /v1/cluster        worker pool + lease-scheduler counters (coordinator mode)
//	GET  /healthz           liveness
//	GET  /readyz            readiness (200 only after SetReady: warm-up + Restore done)
//	GET  /metrics           Prometheus text metrics
//	GET  /debug/traces      recently finished traces (?limit=&route=&min_ms=; ?outliers=1 for retained slow/5xx traces)
//	GET  /debug/traces/{id} every recorded span of one trace (?cluster=1 federates)
//	GET  /debug/flight      flight-recorder dump (the black-box request/lease/job ring)
//	GET  /debug/history     telemetry time-series: per-route rates and latency quantiles, cache hit rates, queues, quality (?cluster=1 federates)
//
// Each route is one row of the routes table and answers only its one
// method; any other gets 405.
//
// Every request is assigned (or joins, via an incoming W3C traceparent
// header) a trace; the trace ID comes back in the X-Comet-Trace-Id
// response header, sampled traces record per-stage spans into a bounded
// in-process ring served by /debug/traces, and ?trace=1 or ?profile=1
// forces sampling for the one request being debugged. ?profile=1 on
// /v1/explain additionally attaches the per-stage wall-time profile to
// the response body.
//
// Every route speaks JSON by default; /v1/explain, /v1/predict,
// /v1/shard, and the job stream additionally negotiate the COMET binary
// frame codec — a request with Content-Type: application/x-comet-frame
// carries a binary body, an Accept header listing it selects a binary
// response (see internal/wire).
//
// Models are addressed by registry spec strings ("uica", "c@skl",
// "ithemal@hsw?hidden=64&train=2000", "remote@http://other:8372") and
// resolved through the public comet registry, so any registered model —
// including another comet-serve, via the remote spec — is servable.
//
// Serving invariants:
//
//   - One warmed model instance and one prediction cache per canonical
//     model spec, shared by every request for the life of the process.
//   - Identical in-flight explain requests coalesce onto one computation
//     (single-flight keyed by model, arch, config, and canonical block text).
//   - Finished explanations land in a capped LRU result store; repeat
//     queries are O(1) and cost zero model work.
//   - Explain concurrency is bounded by a worker-slot semaphore with a
//     bounded wait queue; overflow is rejected with 429, never buffered
//     without bound.
//   - Explanations are reproducible: the same request body always
//     yields the same explanation, equal to a library Explain call at
//     the same seed. Each Γ draw is seeded from its index, so neither
//     server load nor sampling parallelism enters the bytes.
//   - With a durable store (Config.Store), computed explanations and
//     corpus-job checkpoints outlive the process: Restore reloads warm
//     results and resumes interrupted jobs with output identical to an
//     uninterrupted run. The store is an accelerator, never a
//     dependency — its failures are counted, not surfaced.
//   - In coordinator mode (Config.Coordinator / ClusterWorkers), corpus
//     jobs shard across the worker pool through internal/cluster; a
//     lease names its blocks by corpus index and each block runs at the
//     seed its index derives, so distributed results are byte-identical
//     to local ones, and the local engine remains the fallback when no
//     worker is ready.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// Config sizes the server. Zero values get production-sane defaults.
type Config struct {
	// Base is the default explanation configuration; zero means
	// core.DefaultConfig. Request ConfigOverrides overlay it. Its
	// Parallelism is always 1: each explanation samples and queries its
	// model — Ithemal and remote@ included — on one goroutine (no
	// explanation byte depends on it). What bounds the CPU depends on
	// the path:
	//   - /v1/explain runs one explanation per explain slot;
	//   - a shard lease holds one slot for up to its workers blocks;
	//   - a /v1/predict batch fans out over GOMAXPROCS within one slot;
	//   - corpus jobs take no slot: up to JobWorkers jobs, each running
	//     up to its workers blocks (at most MaxConcurrentExplains), run
	//     beside the slots.
	// The price of one goroutine is latency on an idle host: a lone
	// request uses one core where idle ones could share its uica or
	// Ithemal queries.
	Base core.Config
	// DefaultModel is the model spec used when a request omits "model"
	// (default "uica").
	DefaultModel string
	// MaxModelEntries bounds the distinct canonical model specs this
	// server will warm (each is a model instance plus a prediction
	// cache); overflow gets 429 (0 = 64).
	MaxModelEntries int
	// AllowRestrictedSpecs permits client-supplied specs whose
	// resolution exercises ambient authority — remote@<url> (the server
	// dials the URL) and ithemal?load=<path> (the server reads the
	// file). Off by default: only operator-initiated resolution
	// (RegisterModel, WarmModel/-preload) may do either. Enable it on
	// trusted networks to let clients chain servers.
	AllowRestrictedSpecs bool
	// PredictionCacheSize bounds each (model, arch) prediction cache in
	// entries (0 = package default of about a million). A model that
	// declares costmodel.CheapQuery (c, mca) has no cache
	// (costmodel.NewCacheFor).
	PredictionCacheSize int
	// MaxConcurrentExplains bounds simultaneously computing explain
	// requests (0 = GOMAXPROCS). Four times as many may wait for a
	// slot; overflow gets 429.
	MaxConcurrentExplains int
	// JobWorkers is the number of corpus jobs executing at once (0 = 1).
	JobWorkers int
	// JobQueueDepth bounds queued corpus jobs; overflow gets 429 (0 = 16).
	JobQueueDepth int
	// MaxCorpusBlocks caps the corpus size a single job may carry
	// (0 = 10000); larger requests get 413.
	MaxCorpusBlocks int
	// ResultStoreSize caps the explanation LRU result store in keys: one
	// per explanation, plus one per distinct binary request frame that
	// aliases it (0 = 1024).
	ResultStoreSize int
	// StreamRingSize bounds the results retained in memory by a
	// streaming corpus job (CorpusRequest.Stream) for catch-up reads on
	// GET /v1/jobs/{id}/stream; a reader that falls further behind than
	// the ring gets a lag error instead of stalling the job (0 = 4096).
	StreamRingSize int
	// JobHistorySize caps retained finished jobs (0 = 64).
	JobHistorySize int
	// MaxBodyBytes caps request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxUploadBytes caps binary uploads to POST /v1/corpus (ELF
	// ingestion); oversized uploads get 413 (0 = 64 MiB).
	MaxUploadBytes int64
	// Store, when non-nil, is the durable explanation/job store: every
	// computed explanation and every corpus-job checkpoint is persisted
	// to it, and Restore reloads warm results and resumes interrupted
	// jobs after a restart. The caller opens and closes it (see
	// persist.Open and the comet-serve -store-dir flag).
	Store persist.Store
	// JobCheckpointEvery fsyncs the store every N completed corpus-job
	// blocks (0 = 16). Individual results are OS-durable (survive
	// SIGKILL) as soon as they complete; the checkpoint cadence only
	// bounds what a power loss can lose.
	JobCheckpointEvery int
	// Coordinator enables cluster-coordinator mode: corpus jobs are
	// sharded across the worker pool (static ClusterWorkers plus workers
	// that self-register via POST /v1/cluster/join), falling back to the
	// local engine when no worker is ready. Results are byte-identical
	// either way.
	Coordinator bool
	// ClusterWorkers seeds the coordinator's pool with static worker
	// base URLs; a non-empty list implies Coordinator.
	ClusterWorkers []string
	// Cluster tunes the coordinator's lease scheduler (lease size,
	// timeouts, retry budget, heartbeat TTL).
	Cluster cluster.Options
	// Logger is the root structured logger; the service, cluster, and
	// persistence layers log through component-tagged children of it
	// (nil = slog.Default()).
	Logger *slog.Logger
	// TraceRingSize bounds the finished-span ring served by
	// GET /debug/traces (0 = 4096 spans).
	TraceRingSize int
	// TraceSample records one in N traces on the hot routes (see
	// routes). Corpus jobs, shard leases, and cluster operations matter
	// individually and are always traced. 0 = 64; negative disables
	// tracing entirely.
	TraceSample int
	// TraceSlowMS is the outlier threshold in milliseconds: a hot-route
	// request slower than this (or any request with status ≥ 500) commits
	// its full span tree to the outlier ring regardless of head sampling
	// (0 = 500; negative disables outlier retention).
	TraceSlowMS int
	// HistoryInterval is the telemetry sampling cadence (0 = 1s; negative
	// disables the background sampler, leaving /debug/history empty).
	HistoryInterval time.Duration
	// ProcessLabel names this process in federated trace views and flight
	// dumps ("coordinator", "worker-1", an advertise URL). Defaults to
	// "coordinator" when coordinator mode is on, "local" otherwise.
	ProcessLabel string
}

// The observability rings' fixed sizes.
const (
	// flightRecorderSize bounds the flight recorder: the black-box ring
	// holding one compact record per request, lease transition, and job
	// transition regardless of trace sampling, served by GET /debug/flight
	// and dumped on SIGQUIT.
	flightRecorderSize = 2048
	// outlierRingSize bounds the retained outlier traces served by
	// GET /debug/traces?outliers=1.
	outlierRingSize = 256
	// historyRingSize bounds each telemetry series served by
	// GET /debug/history, in samples: ten minutes at the default interval.
	historyRingSize = 600
)

func (c Config) withDefaults() Config {
	if c.Base.Epsilon == 0 && c.Base.CoverageSamples == 0 {
		base := core.DefaultConfig()
		base.Seed = c.Base.Seed
		if c.Base.Seed == 0 {
			base.Seed = 1
		}
		c.Base = base
	}
	c.Base.Parallelism = 1
	if c.DefaultModel == "" {
		c.DefaultModel = "uica"
	}
	if c.MaxConcurrentExplains <= 0 {
		c.MaxConcurrentExplains = runtime.GOMAXPROCS(0)
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.JobQueueDepth <= 0 {
		c.JobQueueDepth = 16
	}
	if c.MaxCorpusBlocks <= 0 {
		c.MaxCorpusBlocks = 10000
	}
	if c.ResultStoreSize <= 0 {
		c.ResultStoreSize = 1024
	}
	if c.StreamRingSize <= 0 {
		c.StreamRingSize = 4096
	}
	if c.JobHistorySize <= 0 {
		c.JobHistorySize = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.JobCheckpointEvery <= 0 {
		c.JobCheckpointEvery = 16
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.TraceRingSize <= 0 {
		c.TraceRingSize = 4096
	}
	if c.TraceSample == 0 {
		c.TraceSample = 64
	}
	if c.TraceSlowMS == 0 {
		c.TraceSlowMS = 500
	}
	if c.HistoryInterval == 0 {
		c.HistoryInterval = time.Second
	}
	c.Coordinator = c.Coordinator || len(c.ClusterWorkers) > 0
	if c.ProcessLabel == "" {
		c.ProcessLabel = "local"
		if c.Coordinator {
			c.ProcessLabel = "coordinator"
		}
	}
	return c
}

// Server is the cometd HTTP server. Construct with New, mount Handler,
// and call Shutdown on the way out.
type Server struct {
	cfg    Config
	models *modelRegistry
	// flights and results are keyed by interned content IDs — 32 fixed
	// bytes derived once per request — instead of hex strings. results
	// holds each explanation under its content ID and, for binary
	// requests, under the SHA-256 of the raw frame as well: the fast path
	// that answers a repeated frame without decoding it.
	flights     flightGroup[wire.ContentID, served]
	results     *lruStore[wire.ContentID, *cachedExplanation]
	jobs        *jobManager
	metrics     *metrics
	mux         *http.ServeMux
	store       persist.Store
	coordinator *cluster.Coordinator
	tracer      *obs.Tracer
	flight      *obs.FlightRecorder
	outliers    *obs.OutlierRing
	history     *obs.History
	// slowThreshold is the outlier latency cutoff; 0 disables retention.
	slowThreshold time.Duration
	log           *slog.Logger // component=service
	logPersist    *slog.Logger // component=persist

	explainSlots   chan struct{}
	explainWaiting atomic.Int64

	ctx      context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
	restored atomic.Bool
	ready    atomic.Bool
}

// New builds a server. Models warm lazily on first use; use RegisterModel
// or a warm-up request to front-load expensive construction.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:          cfg,
		models:       newModelRegistry(cfg.PredictionCacheSize, cfg.MaxModelEntries, cfg.AllowRestrictedSpecs),
		results:      newLRUStore[wire.ContentID, *cachedExplanation](cfg.ResultStoreSize),
		metrics:      newMetrics(),
		mux:          http.NewServeMux(),
		store:        cfg.Store,
		explainSlots: make(chan struct{}, cfg.MaxConcurrentExplains),
		ctx:          ctx,
		cancel:       cancel,
		log:          obs.Component(cfg.Logger, "service"),
		logPersist:   obs.Component(cfg.Logger, "persist"),
	}
	sampleN := uint64(cfg.TraceSample)
	if cfg.TraceSample < 0 {
		sampleN = 0
	}
	s.tracer = obs.NewTracer(cfg.TraceRingSize, sampleN)
	s.flight = obs.NewFlightRecorder(flightRecorderSize)
	s.outliers = obs.NewOutlierRing(outlierRingSize)
	if cfg.TraceSlowMS > 0 {
		s.slowThreshold = time.Duration(cfg.TraceSlowMS) * time.Millisecond
	}
	historyInterval := cfg.HistoryInterval
	if historyInterval < 0 {
		historyInterval = time.Second // sampler stays stopped; the cadence only labels the dump
	}
	s.history = obs.NewHistory(historyRingSize, historyInterval)
	if cfg.Coordinator {
		copts := cfg.Cluster
		if copts.Log == nil {
			copts.Log = obs.Component(cfg.Logger, "cluster")
		}
		if copts.Flight == nil {
			copts.Flight = s.flight
		}
		s.coordinator = cluster.New(cluster.NewPool(cfg.ClusterWorkers, copts), copts)
	}
	s.jobs = newJobManager(cfg, s.runJob)
	// Client-initiated model warm-ups (training, remote handshakes) share
	// the explain concurrency budget instead of running unbounded.
	s.models.warmGate = func() (func(), error) {
		if err := s.acquireExplainSlot(); err != nil {
			return nil, err
		}
		return s.releaseExplainSlot, nil
	}
	for i := range routes {
		rt := &routes[i]
		if !rt.coordinator || s.coordinator != nil {
			s.mux.HandleFunc(rt.pattern, s.instrument(rt))
		}
	}
	s.registerHistory()
	if cfg.HistoryInterval >= 0 {
		s.history.Start()
	}
	return s
}

// FlightRecorder exposes the server's black-box ring so the binary can
// dump it on SIGQUIT (see cmd/comet-serve).
func (s *Server) FlightRecorder() *obs.FlightRecorder { return s.flight }

// ProcessLabel reports the label this server uses for itself in
// federated trace views and flight dumps.
func (s *Server) ProcessLabel() string { return s.cfg.ProcessLabel }

// SetReady flips /readyz to 200. Call it after warm-up is complete —
// Restore has run and -preload models are resolved — so load balancers
// and cluster coordinators never route to a cold server. Handlers other
// than /v1/shard still answer before readiness (a cold server can serve
// cache hits); readiness is a routing signal, not a gate.
func (s *Server) SetReady() { s.ready.Store(true) }

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// RegisterModel installs a ready-made model instance under (name, arch),
// replacing any lazily built entry for that spec. Tests inject counting
// models; deployments can preload trained neural models. Epsilon 0 means
// the standard 0.5-cycle ball. Models that should be addressable by
// richer specs belong in the comet registry (comet.RegisterModel), which
// the server resolves automatically.
func (s *Server) RegisterModel(name string, arch x86.Arch, m costmodel.Model, epsilon float64) {
	s.models.register(name, arch, m, epsilon)
}

// WarmModel resolves (and for the neural model, trains) a model spec
// ahead of the first request. archDefault ("hsw"/"skl", "" = hsw) fills
// in the spec's target when it has none. Warming is operator-initiated,
// so restricted specs (remote@..., ithemal?load=...) are allowed here
// regardless of AllowRestrictedSpecs.
func (s *Server) WarmModel(spec, archDefault string) error {
	arch, err := wire.ParseArch(archDefault)
	if err != nil {
		return err
	}
	_, err = s.models.get(spec, wire.ArchName(arch), true)
	return err
}

// Shutdown drains the server: new work is rejected (503), running corpus
// jobs skip their unstarted blocks and are marked canceled, and the call
// waits (bounded by ctx) for job workers to wind down. The HTTP listener
// itself is the caller's to close (http.Server.Shutdown), normally before
// calling this.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.history.Stop()
	s.cancel()
	return s.jobs.shutdown(ctx)
}

// route is one cometd endpoint, declared once in routes: New registers
// its pattern and instrument builds its whole wrapper from the row.
type route struct {
	// pattern carries no method, so the mux never answers 405 itself:
	// serve does, in the wire.Error body, counted under the route's name.
	pattern string
	// name labels the route's metrics, trace spans and log lines; rows may
	// share one.
	name   string
	method string // the one method the route answers
	// hot routes — high-volume request paths and the probes load
	// balancers hammer — trace 1-in-N and log each request at debug. Every
	// other route matters individually and is always traced.
	hot bool
	// negotiate routes answer binary frames to a client that accepts them;
	// the rest answer JSON whatever the client accepts.
	negotiate bool
	// coordinator routes exist only in coordinator mode.
	coordinator bool
	// stream routes last as long as a job, so their latency never makes
	// an outlier (a 5xx still does).
	stream bool
	handle func(*Server, http.ResponseWriter, *http.Request, inbound) error
}

// routes is every cometd endpoint. Names register in row order, which is
// the order of their metric and history series.
var routes = []route{
	{pattern: "/v1/explain", name: "explain", method: http.MethodPost, hot: true, negotiate: true, handle: (*Server).handleExplain},
	{pattern: "/v1/predict", name: "predict", method: http.MethodPost, hot: true, negotiate: true, handle: (*Server).handlePredict},
	{pattern: "/v1/corpus", name: "corpus", method: http.MethodPost, handle: (*Server).handleCorpus},
	{pattern: "/v1/jobs", name: "jobs", method: http.MethodGet, handle: (*Server).handleJobs},
	{pattern: "/v1/jobs/{id}", name: "jobs", method: http.MethodGet, handle: (*Server).handleJob},
	{pattern: "/v1/jobs/{id}/stream", name: "jobs", method: http.MethodGet, negotiate: true, stream: true, handle: (*Server).handleJobStream},
	{pattern: "/v1/models", name: "models", method: http.MethodGet, handle: (*Server).handleModels},
	{pattern: "/v1/shard", name: "shard", method: http.MethodPost, negotiate: true, handle: (*Server).handleShard},
	{pattern: "/v1/cluster/join", name: "join", method: http.MethodPost, coordinator: true, handle: (*Server).handleClusterJoin},
	{pattern: "/v1/cluster", name: "cluster", method: http.MethodGet, coordinator: true, handle: (*Server).handleCluster},
	{pattern: "/healthz", name: "healthz", method: http.MethodGet, hot: true, handle: (*Server).handleHealthz},
	{pattern: "/readyz", name: "readyz", method: http.MethodGet, hot: true, handle: (*Server).handleReadyz},
	{pattern: "/metrics", name: "metrics", method: http.MethodGet, hot: true, handle: (*Server).handleMetrics},
	{pattern: "/debug/traces", name: "debug", method: http.MethodGet, hot: true, handle: (*Server).handleTraces},
	{pattern: "/debug/traces/{id}", name: "debug", method: http.MethodGet, hot: true, handle: (*Server).handleTrace},
	{pattern: "/debug/flight", name: "debug", method: http.MethodGet, hot: true, handle: (*Server).handleFlight},
	{pattern: "/debug/history", name: "debug", method: http.MethodGet, hot: true, handle: (*Server).handleHistory},
}

// instrument builds a route's handler: serve's prologue and the route's
// own handler inside the per-request observability stack — trace
// extraction/minting (W3C traceparent in, X-Comet-Trace-Id out), a root
// span for sampled traces, lock-free request counting and latency
// recording, outlier retention, and a structured request log line. The
// route's stats slot and span name are resolved once at wiring time.
//
// Hot-route requests additionally buffer their spans into a pooled
// SpanBuffer regardless of the head-sampling decision; at request end a
// request that turned out slow (past the configured threshold) or broken
// (status ≥ 500) commits the full buffered trace to the outlier ring —
// tail-based retention of exactly the traces head sampling would have
// thrown away. The interned binary warm path is exempt (it must not pay
// even a pool Get — see the bench gate), as are force-traced routes,
// whose spans are already in the main ring.
func (s *Server) instrument(rt *route) http.HandlerFunc {
	rs := s.metrics.route(rt.name)
	spanName := "http." + rt.name
	logLevel := slog.LevelInfo
	if rt.hot {
		logLevel = slog.LevelDebug
	}
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		var parent obs.SpanContext
		if tp := r.Header.Get("Traceparent"); tp != "" {
			parent, _ = obs.ParseTraceparent(tp)
		}
		forced := !rt.hot || forcedTrace(r)
		var (
			ctx   context.Context
			span  *obs.Span
			trace obs.TraceID
			buf   *obs.SpanBuffer
		)
		if !forced && s.slowThreshold > 0 && s.tracer.Enabled() && !isFrameRequest(r) {
			buf = obs.GetSpanBuffer()
			ctx, span, trace = s.tracer.StartRootBuffered(r.Context(), spanName, parent, buf)
		} else {
			ctx, span, trace = s.tracer.StartRoot(r.Context(), spanName, parent, forced)
		}
		if !trace.IsZero() {
			w.Header().Set("X-Comet-Trace-Id", trace.String())
		}
		if span != nil {
			r = r.WithContext(ctx)
		}
		rec := &statusRecorder{ResponseWriter: w, code: http.StatusOK}
		s.serve(rt, rec, r)
		elapsed := time.Since(start)
		rs.observe(rec.code, elapsed.Seconds())
		// The flight recorder sees every request regardless of sampling: a
		// struct copy of pre-existing strings into the ring, no allocation.
		s.flight.Record(obs.FlightRecord{
			Kind:      obs.FlightRequest,
			Route:     rt.name,
			Status:    rec.code,
			LatencyUS: elapsed.Microseconds(),
			Trace:     trace,
		})
		if span != nil {
			span.Set("method", r.Method)
			span.Set("status", statusLabel(rec.code))
			span.End()
		}
		outlier := s.slowThreshold > 0 && (rec.code >= 500 || elapsed >= s.slowThreshold && !rt.stream)
		if buf != nil {
			// The commit decision: a healthy fast request recycles its buffer
			// untouched (no conversion, no allocation); a sampled one flushes
			// to the main ring; an outlier lands in the outlier ring with its
			// full span tree.
			if outlier || buf.Sampled() {
				recs := buf.Records(time.Now())
				if buf.Sampled() {
					s.tracer.Flush(recs)
				}
				if outlier {
					s.commitOutlier(rs, trace, rec.code, start, elapsed, recs)
				}
			}
			obs.PutSpanBuffer(buf)
		} else if outlier {
			// Force-traced (or frame-path) outliers: the spans, if any, are
			// already in the main ring — retain a copy with the trace.
			var spans []obs.SpanRecord
			if span != nil {
				spans = s.tracer.Ring().Trace(trace.String())
			}
			s.commitOutlier(rs, trace, rec.code, start, elapsed, spans)
		}
		if s.log.Enabled(r.Context(), logLevel) {
			s.log.LogAttrs(r.Context(), logLevel, "request",
				slog.String("route", rt.name),
				slog.String("method", r.Method),
				slog.Int("status", rec.code),
				slog.Duration("elapsed", elapsed),
				obs.TraceAttr(trace))
		}
	}
}

// serve is the prologue every route shares: the method check, then for
// a POST the drain check and the raw bytes of a binary frame, then the
// route's handler. It writes any error as a wire.Error on the negotiated
// format, with the status an httpError carries (500 for any other).
func (s *Server) serve(rt *route, w http.ResponseWriter, r *http.Request) {
	in := inbound{binResp: rt.negotiate && acceptsFrame(r)}
	var err error
	switch {
	case r.Method != rt.method:
		err = errorf(http.StatusMethodNotAllowed, "%s required", rt.method)
	case r.Method != http.MethodPost:
		// A GET carries no body and is answered while draining.
	case s.draining.Load():
		err = errorf(http.StatusServiceUnavailable, "%v", errDraining)
	case isFrameRequest(r):
		in.frame, err = s.readFrame(w, r)
	}
	if err == nil {
		err = rt.handle(s, w, r, in)
	}
	if err != nil {
		code := http.StatusInternalServerError
		var he *httpError
		if errors.As(err, &he) {
			code = he.code
		}
		writeNegotiated(w, in.binResp, code, &wire.Error{Error: err.Error()})
	}
}

// commitOutlier retains one slow-or-5xx request: its trace in the
// outlier ring, a per-route counter tick, a flight record
// cross-referencing the trace ID, and one structured warning — the four
// places an operator looks, all agreeing.
func (s *Server) commitOutlier(rs *routeStats, trace obs.TraceID,
	code int, start time.Time, elapsed time.Duration, spans []obs.SpanRecord) {
	route := rs.name
	reason := obs.OutlierSlow
	if code >= 500 {
		reason = obs.OutlierError
	}
	s.outliers.Add(obs.OutlierTrace{
		TraceID:    trace.String(),
		Route:      route,
		Status:     code,
		Reason:     reason,
		Start:      start.UTC(),
		DurationUS: elapsed.Microseconds(),
		Spans:      spans,
	})
	rs.slow.Add(1)
	s.flight.Record(obs.FlightRecord{
		Kind:      obs.FlightOutlier,
		Route:     route,
		Status:    code,
		LatencyUS: elapsed.Microseconds(),
		Trace:     trace,
		State:     reason,
	})
	s.log.LogAttrs(context.Background(), slog.LevelWarn, "slow request",
		slog.String("route", route),
		slog.Int("status", code),
		slog.Duration("elapsed", elapsed),
		slog.String("reason", reason),
		obs.TraceAttr(trace))
}

// statusLabel formats an HTTP status without allocating for the codes
// this server actually writes. Since outlier retention, every buffered
// request sets the attribute (not just the 1-in-N sampled ones), so the
// formatting sits on the JSON warm path's alloc budget.
func statusLabel(code int) string {
	switch code {
	case 200:
		return "200"
	case 202:
		return "202"
	case 400:
		return "400"
	case 403:
		return "403"
	case 404:
		return "404"
	case 405:
		return "405"
	case 413:
		return "413"
	case 429:
		return "429"
	case 500:
		return "500"
	case 503:
		return "503"
	}
	return strconv.Itoa(code)
}

// forcedTrace reports whether the request explicitly asked to be traced:
// ?trace=1 forces sampling, and ?profile=1 implies it (a profile without
// its trace is half an answer). The query string is only parsed when one
// is present, so the hot path never pays for it.
func forcedTrace(r *http.Request) bool {
	if r.URL.RawQuery == "" {
		return false
	}
	q := r.URL.Query()
	return q.Get("trace") == "1" || q.Get("profile") == "1"
}

type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.code = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush passes a streaming handler's flush through to the connection:
// without it a job stream's events would wait in the server's write
// buffer.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// writeJSON writes a JSON response body with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// requestOptions compiles a request into the library's per-request
// explain options: the model's recommended ε first, then the client's
// overrides in wire order — exactly what a library caller would pass to
// comet.ExplainContext.
func requestOptions(entry *modelEntry, o *wire.ConfigOverrides) []core.ExplainOption {
	return append([]core.ExplainOption{core.WithEpsilon(entry.epsilon)}, o.Options()...)
}

// maxCoverageSamples bounds a client's coverage pool at the paper's
// setting (experiments.PaperParams). The pool allocates CoverageSamples
// flags per feature up front, so this value sizes an allocation directly.
const maxCoverageSamples = 10000

// checkConfig answers 400 to a compiled client config whose coverage
// pool exceeds maxCoverageSamples, or the server's own base if larger,
// or that core.Config.Validate refuses.
func (s *Server) checkConfig(cfg core.Config) error {
	if limit := max(maxCoverageSamples, s.cfg.Base.CoverageSamples); cfg.CoverageSamples > limit {
		return errorf(http.StatusBadRequest, "coverage_samples %d exceeds the limit of %d", cfg.CoverageSamples, limit)
	}
	if err := cfg.Validate(); err != nil {
		return errorf(http.StatusBadRequest, "%v", err)
	}
	return nil
}

// clampWorkers caps a corpus job's or shard's block-level concurrency at
// the explain-slot budget, which an unset count (GOMAXPROCS in ExplainAll)
// also gets. Explanations are identical at any worker count.
func (s *Server) clampWorkers(workers int) int {
	if workers <= 0 || workers > s.cfg.MaxConcurrentExplains {
		return s.cfg.MaxConcurrentExplains
	}
	return workers
}

// storeError counts and logs a durable-store failure. The store is an
// accelerator, not a dependency: requests and jobs proceed without it.
func (s *Server) storeError(err error) {
	s.metrics.storeErrors.Add(1)
	s.logPersist.Error("durable store failure", "error", err)
}

// handleExplain serves POST /v1/explain on either wire format as one
// pipeline behind the POST prologue: intern probe → decode → resolve →
// get-or-compute → alias the frame key → write. A binary request's frame
// bytes are a canonical encoding of the request, so SHA-256 over them is
// a complete request identity: a warm probe writes pre-encoded response
// bytes without decoding the frame, parsing the block, or touching the
// model registry.
func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request, in inbound) error {
	framed := in.frame != nil
	var frameKey wire.ContentID
	if framed {
		frameKey = wire.InternBytes(*in.frame)
		if c, ok := s.results.get(frameKey); ok {
			wire.PutBuffer(in.frame)
			s.metrics.internHits.Add(1)
			s.metrics.resultStoreHits.Add(1)
			s.writeServed(w, r, in.binResp, c, "intern")
			return nil
		}
		s.metrics.internMisses.Add(1)
	}
	req, err := decodeRequest[wire.ExplainRequest](s, w, r, in)
	if err != nil {
		return err
	}
	call, err := s.resolveExplain(req)
	if err != nil {
		return err
	}
	if span := obs.SpanFromContext(r.Context()); span != nil {
		span.Set("spec", call.entry.specString())
		span.Set("content_id", call.key.Hex())
	}
	c, source, err := s.explanation(r.Context(), &call)
	if err != nil {
		return err
	}
	if framed {
		s.results.put(frameKey, c)
	}
	s.writeServed(w, r, in.binResp, c, source)
	return nil
}

// explainCall is an explain request resolved against the server:
// everything the get-or-compute needs, and the key it is stored under.
type explainCall struct {
	entry *modelEntry
	block *x86.BasicBlock
	opts  []core.ExplainOption
	snap  wire.ConfigSnapshot
	// key is the single-flight / result-store / durable-store identity of
	// the request: the content address over everything that can change
	// the explanation bytes — canonical spec, effective config, canonical
	// block text — so the in-memory LRU and the on-disk store agree on
	// keys across processes.
	key wire.ContentID
}

// resolveExplain parses the request's block, resolves its model and
// arch, and compiles its options and content key.
func (s *Server) resolveExplain(req *wire.ExplainRequest) (explainCall, error) {
	// A stack array for the one block keeps its slice off the heap: the
	// JSON warm path is alloc-gated (make bench-check).
	var one [1]*x86.BasicBlock
	blocks, err := s.parseBlocks(one[:0], req.Block)
	if err != nil {
		return explainCall{}, err
	}
	entry, err := s.resolveModel(req.Model, req.Arch)
	if err != nil {
		return explainCall{}, err
	}
	call := explainCall{entry: entry, block: blocks[0], opts: requestOptions(entry, req.Config)}
	cfg := core.ApplyOptions(s.cfg.Base, call.opts...)
	if err := s.checkConfig(cfg); err != nil {
		return explainCall{}, err
	}
	call.snap = wire.SnapshotConfig(cfg)
	call.key = persist.ExplanationID(entry.specString(), call.snap, call.block.String())
	return call, nil
}

// served is an explanation and the tier that produced it: the value a
// flight shares with its followers.
type served struct {
	c      *cachedExplanation
	source string
}

// explanation is the get-or-compute behind /v1/explain: result store →
// durable store (rehydrating the result store) → single-flight (which
// checks the result store again) → compute, then store and persist. It
// reports the tier that served the call, one of the Profile.Source
// values "result-store", "persist", "coalesced" or "computed".
func (s *Server) explanation(ctx context.Context, call *explainCall) (*cachedExplanation, string, error) {
	if c, ok := s.results.get(call.key); ok {
		s.metrics.resultStoreHits.Add(1)
		return c, "result-store", nil
	}
	_, lspan := obs.StartSpan(ctx, "svc.persist_lookup")
	var c *cachedExplanation
	if s.store != nil {
		if e, ok := persist.LookupExplanation(s.store, call.key); ok {
			c = newCachedExplanation(e)
		}
	}
	lspan.SetBool("hit", c != nil)
	lspan.End()
	switch {
	case c != nil:
		s.metrics.persistHits.Add(1)
		s.results.put(call.key, c)
		return c, "persist", nil
	case s.store != nil:
		s.metrics.persistMisses.Add(1)
	}
	v, err, shared := s.flights.Do(call.key, func() (served, error) {
		// A previous flight for this key may have stored its result
		// between the miss above and entering this flight.
		if c, ok := s.results.get(call.key); ok {
			s.metrics.resultStoreHits.Add(1)
			return served{c, "result-store"}, nil
		}
		c, err := s.compute(ctx, call)
		return served{c, "computed"}, err
	})
	if shared {
		s.metrics.coalesced.Add(1)
		v.source = "coalesced"
	}
	if err != nil {
		obs.SpanFromContext(ctx).SetErr(err)
		switch {
		case errors.Is(err, errOverloaded):
			return nil, "", errorf(http.StatusTooManyRequests, "%v", err)
		case errors.Is(err, errDraining), errors.Is(err, context.Canceled):
			return nil, "", errorf(http.StatusServiceUnavailable, "%v", errDraining)
		}
		return nil, "", errorf(http.StatusInternalServerError, "explain failed: %v", err)
	}
	return v.c, v.source, nil
}

// compute is a flight leader's miss path: it runs the engine under an
// explain slot, then deposits the explanation in the result store and
// the durable store. The flight is shared by every coalesced caller, so
// its slot wait and computation are bound to the server's lifetime
// (s.ctx), not the originating request's context — one client
// disconnecting must not fail the followers. It does inherit the first
// caller's trace: the computation is that request's most interesting
// part.
func (s *Server) compute(ctx context.Context, call *explainCall) (*cachedExplanation, error) {
	if err := s.acquireExplainSlot(); err != nil {
		return nil, err
	}
	defer s.releaseExplainSlot()
	spec := call.entry.specString()
	cctx := s.ctx
	var cspan *obs.Span
	if span := obs.SpanFromContext(ctx); span != nil {
		cctx, cspan = obs.StartSpan(obs.ContextWithSpan(s.ctx, span), "svc.compute")
		defer cspan.End()
	}
	explainer := core.NewExplainerWithCache(traceModel(cctx, call.entry.model), s.cfg.Base, call.entry.cache)
	expl, err := explainer.ExplainContext(cctx, call.block, call.opts...)
	if err != nil {
		cspan.SetErr(err)
		return nil, err
	}
	s.metrics.observeComputed(spec, expl)
	// The per-explanation profile stages ride the compute span as
	// attributes, so a federated trace view shows where the wall time
	// went without a second lookup.
	if cspan != nil && expl.Profile != nil {
		p := expl.Profile
		cspan.SetInt("setup_us", p.Setup.Microseconds())
		cspan.SetInt("search_us", p.Search.Microseconds())
		cspan.SetInt("model_us", p.Model.Microseconds())
		cspan.SetInt("precision_us", p.Precision.Microseconds())
		cspan.SetInt("coverage_us", p.Coverage.Microseconds())
		cspan.SetInt("queries", int64(p.Queries))
		cspan.SetInt("model_calls", int64(p.ModelCalls))
	}
	c := newCachedExplanation(wire.FromExplanation(expl))
	c.profile = wire.FromProfile(expl.Profile)
	s.results.put(call.key, c)
	if s.store != nil {
		// Persistence failures are counted, never surfaced to the client.
		if err := persist.PutExplanation(s.store, call.key, spec, call.snap, c.expl); err != nil {
			s.storeError(err)
		}
	}
	if s.log.Enabled(cctx, slog.LevelDebug) {
		s.log.LogAttrs(cctx, slog.LevelDebug, "explanation computed",
			slog.String("spec", spec),
			slog.String("content_id", call.key.Hex()),
			slog.Duration("elapsed", expl.Profile.Total),
			obs.TraceAttr(cspan.TraceID()))
	}
	return c, nil
}

// traceparentCarrier is implemented by models that can propagate a trace
// across their backend hop (remote.Model). WithTraceparent returns a
// per-request shallow copy; the shared registry model is never mutated.
type traceparentCarrier interface {
	WithTraceparent(tp string) costmodel.Model
}

// traceModel wraps model with the active trace's propagation header when
// the model supports it, so a sampled request chains into one trace
// across every comet-serve a remote@url model fans out to.
func traceModel(ctx context.Context, model costmodel.Model) costmodel.Model {
	sc := obs.ContextSpanContext(ctx)
	if sc.IsZero() {
		return model
	}
	if tc, ok := model.(traceparentCarrier); ok {
		return tc.WithTraceparent(sc.Traceparent())
	}
	return model
}

// resolveModel resolves a request's arch and model spec (falling back to
// the server default) to a warmed entry, failing with the status that
// answers the request. Client input is untrusted: it may not resolve
// restricted specs unless the server allows them, and any warm-up it
// triggers holds an explain slot.
func (s *Server) resolveModel(modelStr, archStr string) (*modelEntry, error) {
	arch, err := wire.ParseArch(archStr)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "%v", err)
	}
	trusted := false
	if modelStr == "" {
		// The operator chose the default model; resolving it is as
		// trusted as a -preload.
		modelStr = s.cfg.DefaultModel
		trusted = true
	}
	entry, err := s.models.get(modelStr, wire.ArchName(arch), trusted)
	if err != nil {
		// Backpressure on a full instance table or a gated warm-up,
		// forbidden for restricted specs, bad request otherwise.
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, errRegistryFull), errors.Is(err, errOverloaded):
			code = http.StatusTooManyRequests
		case errors.Is(err, errDraining):
			code = http.StatusServiceUnavailable
		case errors.Is(err, errRestrictedSpec):
			code = http.StatusForbidden
		}
		return nil, errorf(code, "%v", err)
	}
	return entry, nil
}

// errOverloaded signals explain backpressure; the handler maps it to 429.
var errOverloaded = errors.New("too many concurrent explain requests")

// acquireExplainSlot takes a computation slot, waiting in a bounded queue.
// When four callers per slot are already waiting, it fails fast — the
// server sheds load instead of building an unbounded backlog. The wait is
// interrupted only by server shutdown.
func (s *Server) acquireExplainSlot() error {
	select {
	case s.explainSlots <- struct{}{}:
		return nil
	default:
	}
	if s.explainWaiting.Add(1) > int64(4*s.cfg.MaxConcurrentExplains) {
		s.explainWaiting.Add(-1)
		return errOverloaded
	}
	defer s.explainWaiting.Add(-1)
	select {
	case s.explainSlots <- struct{}{}:
		return nil
	case <-s.ctx.Done():
		return errDraining
	}
}

func (s *Server) releaseExplainSlot() { <-s.explainSlots }

// handleCorpus serves POST /v1/corpus. JSON bodies carry a
// wire.CorpusRequest of pre-parsed block texts; binary-upload bodies
// (Content-Type application/x-elf, application/octet-stream, or
// multipart/form-data) carry an ELF binary whose basic blocks are
// extracted server-side (see handleCorpusUpload). Its answers are JSON
// only.
func (s *Server) handleCorpus(w http.ResponseWriter, r *http.Request, in inbound) error {
	if isUploadContentType(r.Header.Get("Content-Type")) {
		return s.handleCorpusUpload(w, r)
	}
	req, err := decodeRequest[wire.CorpusRequest](s, w, r, in)
	if err != nil {
		return err
	}
	if len(req.Blocks) == 0 {
		return errorf(http.StatusBadRequest, "corpus has no blocks")
	}
	blocks, err := s.parseBlocks(nil, req.Blocks...)
	if err != nil {
		return err
	}
	j, err := s.prepareCorpusJob(req.Model, req.Arch, req.Config, req.Workers, req.Stream)
	if err != nil {
		return err
	}
	return s.submitCorpusJob(w, r, j, blocks)
}

// prepareCorpusJob resolves a corpus request's model and compiles and
// checks its config into a job without blocks: every check on the
// request's parameters, which the binary upload runs before it reads
// its body.
func (s *Server) prepareCorpusJob(model, archStr string, overrides *wire.ConfigOverrides, workers int, stream bool) (*job, error) {
	entry, err := s.resolveModel(model, archStr)
	if err != nil {
		return nil, err
	}
	cfg := core.ApplyOptions(s.cfg.Base, requestOptions(entry, overrides)...)
	if err := s.checkConfig(cfg); err != nil {
		return nil, err
	}
	j := s.newJob(entry.specString(), wire.SnapshotConfig(cfg), workers, stream)
	j.entry = entry
	return j, nil
}

// newJob builds a corpus job without blocks or model: the one
// constructor of submitted and restored jobs. The effective config is
// the snapshot applied to the server's base, as a shard lease computes
// it. A stream-only job delivers its results through
// GET /v1/jobs/{id}/stream and retains only a bounded catch-up ring, so
// memory stays flat however large the corpus is.
func (s *Server) newJob(spec string, snapshot wire.ConfigSnapshot, workers int, stream bool) *job {
	return &job{
		cfg:        snapshot.Apply(s.cfg.Base),
		workers:    s.clampWorkers(workers),
		spec:       spec,
		snapshot:   snapshot,
		streamOnly: stream,
		ringCap:    s.cfg.StreamRingSize,
	}
}

// submitCorpusJob queues a prepared job over its already-parsed blocks —
// the shared tail of the JSON and binary-upload corpus entry points.
func (s *Server) submitCorpusJob(w http.ResponseWriter, r *http.Request, j *job, blocks []*x86.BasicBlock) error {
	j.blocks = blocks
	// The accepting request's span context rides on the job so its async
	// execution — and every worker lease it fans out to — shares this
	// trace ID (corpus is a force-sampled route).
	j.trace = obs.ContextSpanContext(r.Context())
	if span := obs.SpanFromContext(r.Context()); span != nil {
		span.Set("spec", j.spec)
		span.SetInt("blocks", int64(len(blocks)))
	}
	if err := s.submitJob(j); err != nil {
		if errors.Is(err, errQueueFull) {
			return errorf(http.StatusTooManyRequests, "%v", err)
		}
		return errorf(http.StatusServiceUnavailable, "%v", err)
	}
	s.log.Info("corpus job accepted",
		"job_id", j.id, "spec", j.spec, "blocks", len(blocks),
		obs.TraceAttr(j.trace.Trace))
	writeJSON(w, http.StatusAccepted, wire.JobAccepted{ID: j.id, State: wire.JobQueued, Total: len(blocks)})
	return nil
}

// handleJob serves GET /v1/jobs/{id}?offset=&limit=.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request, _ inbound) error {
	offset, err := queryInt(r, "offset", 0)
	if err != nil {
		return err
	}
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		return err
	}
	j, err := s.pathJob(r)
	if err != nil {
		return err
	}
	writeJSON(w, http.StatusOK, j.status(offset, limit))
	return nil
}

// pathJob finds the job the request path names, live or in history.
func (s *Server) pathJob(r *http.Request) (*job, error) {
	id := r.PathValue("id")
	j, ok := s.jobs.get(id)
	if !ok {
		return nil, errorf(http.StatusNotFound, "no such job %q (finished jobs are evicted after %d newer ones)", id, s.cfg.JobHistorySize)
	}
	return j, nil
}

func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 0 {
		return 0, errorf(http.StatusBadRequest, "bad %s %q", name, v)
	}
	return n, nil
}

// handleHealthz serves GET /healthz: pure liveness — the process is up
// and serving HTTP. Restart on failure; do not route on it (that is
// /readyz's job).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request, _ inbound) error {
	state := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		state = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]string{"status": state})
	return nil
}

// handleReadyz serves GET /readyz: readiness — 200 only after the
// operator called SetReady (model warm-up and store Restore complete)
// and while not draining. Load balancers and cluster coordinators route
// on this, so cold or draining servers receive no traffic. Non-200
// responses carry a machine-readable reason — "draining" (shutdown in
// progress), "restoring" (a durable store is attached and Restore has
// not finished), or "cold" (warm-up still running) — so operators and
// coordinators can tell the cases apart.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request, _ inbound) error {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "draining", "reason": "draining"})
	case !s.ready.Load():
		reason := "cold"
		if s.store != nil && !s.restored.Load() {
			reason = "restoring"
		}
		writeJSON(w, http.StatusServiceUnavailable,
			map[string]string{"status": "starting", "reason": reason})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
	return nil
}

// handleMetrics serves GET /metrics in the Prometheus text format.
// Everything is read at render time: gauges cost their reader, not the
// request path.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ inbound) error {
	sc := &scrape{Server: s}
	if s.store != nil {
		sc.storeStats, sc.hasStore = s.store.Stats(), true
	}
	if s.coordinator != nil {
		sc.cluster, sc.inCluster = s.coordinator.Status(), true
	}
	var sb strings.Builder
	s.metrics.render(&sb)
	renderTable(&sb, sc)
	writeFamily(&sb, "comet_build_info")
	fmt.Fprintf(&sb, "comet_build_info{version=%q,goversion=%q} 1\n", version.Version, runtime.Version())
	s.models.renderCache(&sb)
	if sc.inCluster {
		renderClusterWorkers(&sb, sc.cluster.Workers)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(sb.String()))
	return nil
}
