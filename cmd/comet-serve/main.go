// Command comet-serve runs cometd, the explanation-serving daemon: a
// stdlib-only HTTP/JSON server that owns the cost-model zoo, the shared
// prediction caches, and the batched corpus engine.
//
// API (see the README's Serving section for a curl quickstart):
//
//	POST /v1/explain        explain one block synchronously
//	POST /v1/predict        batch cost-model queries (remote-model backend)
//	POST /v1/corpus         submit an asynchronous corpus job (JSON body, or an
//	                        x86-64 ELF upload — Content-Type application/x-elf,
//	                        application/octet-stream, or multipart/form-data —
//	                        whose basic blocks are extracted server-side;
//	                        ?model=&arch=&workers=&stream=&seed=&coverage=
//	                        &epsilon=&threshold= parameterize uploads
//	                        (a malformed value gets 400), and bodies
//	                        over -max-upload-bytes are refused with 413)
//	GET  /v1/jobs           list every known job (including restored ones)
//	GET  /v1/jobs/{id}      poll a job (?offset=&limit= paginate results)
//	GET  /v1/jobs/{id}/stream  stream a job's results (NDJSON, or binary frames via Accept)
//	GET  /v1/models         registered model specs + default configs
//	POST /v1/shard          execute one lease of a sharded corpus job
//	POST /v1/cluster/join   worker self-registration + heartbeat (coordinator)
//	GET  /v1/cluster        worker pool + lease-scheduler counters (coordinator)
//	GET  /healthz           liveness
//	GET  /readyz            readiness (200 only after warm-up and Restore)
//	GET  /metrics           Prometheus text metrics
//	GET  /debug/traces      recently finished traces (?outliers=1 lists retained
//	                        slow/5xx traces; ?cluster=1 on a coordinator
//	                        federates worker views)
//	GET  /debug/traces/{id} every recorded span of one trace (?cluster=1 federates)
//	GET  /debug/flight      flight-recorder dump (requests, leases, job transitions)
//	GET  /debug/history     retained telemetry time-series (req/s, latency
//	                        quantiles, hit rates, queues, quality; ?cluster=1
//	                        on a coordinator federates worker histories)
//
// Each route answers only its one method; any other gets 405.
//
// Observability: -log-format/-log-level select structured (slog) text or
// JSON logs; -trace-sample controls request tracing (hot routes sample
// 1-in-N, slow routes always trace, ?trace=1 forces it); -debug-addr
// serves net/http/pprof on a separate listener. The flight recorder
// keeps a bounded black box of the last 2048 requests, leases, and job
// transitions regardless of sampling; SIGQUIT dumps it to stderr as
// JSON and exits, and `comet-trace <url> <trace-id>` renders a (cluster-
// federated) trace as a span tree. Requests slower than -trace-slow-ms
// (or answering >= 500) commit their full span tree to an outlier ring of
// the last 256 even when head sampling skipped them; a background sampler
// (-history-interval) keeps the last 600 points of every telemetry
// series, and `comet-top <url>` renders the live cluster cockpit from
// both.
//
// Cluster mode: -coordinator (or a static -workers url1,url2 list) turns
// the server into a coordinator that shards corpus jobs across workers;
// -join <coordinator-url> turns it into a worker that self-registers and
// heartbeats. Leases carry corpus indices and the effective config, and
// workers seed each block from its index, so a sharded job's per-block
// JSON is byte-identical to a single-process run (modulo the cache-warmth
// accounting fields cache_hits/model_calls) — across worker deaths,
// re-leases, and coordinator restarts (with -store-dir, a restarted
// coordinator resumes distributed jobs from the store under their
// original IDs).
//
// Models are addressed by registry spec strings — "uica", "c@skl",
// "ithemal@hsw?hidden=64&train=2000", or "remote@http://other:8372" to
// chain another comet-serve as the cost-model backend. Specs whose
// resolution dials out or reads server files (remote@..., ithemal?load=)
// are refused from client input unless -allow-restricted-specs is set;
// -preload may always use them.
//
// Identical concurrent requests are coalesced onto one computation,
// finished explanations are served from a capped LRU store, and overload
// is shed with 429 instead of unbounded queueing. SIGINT/SIGTERM drain
// the server gracefully.
//
// With -store-dir, explanations and corpus-job checkpoints persist to a
// crash-safe segment log (internal/persist): a restarted — or SIGKILLed —
// server reloads warm results and resumes interrupted corpus jobs
// exactly where they stopped, with output identical to an uninterrupted
// run. Inspect and garbage-collect stores with comet-store.
//
// Example:
//
//	comet-serve -addr :8372 -preload uica,c -store-dir /var/lib/comet
//	curl -s localhost:8372/v1/explain -d '{"block":"add rcx, rax\nmov rdx, rcx"}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -debug-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
)

func main() {
	var (
		addr         = flag.String("addr", ":8372", "listen address (host:port; port 0 picks a free port)")
		defaultModel = flag.String("default-model", "uica", "model spec used when a request omits one")
		preload      = flag.String("preload", "", "comma-separated model specs to warm at boot (e.g. uica,c@skl,ithemal?train=2000; a spec without @target takes the registry default, hsw); others warm on first use")
		maxModels    = flag.Int("max-models", 0, "distinct model specs warmed before 429 (0 = 64)")
		allowRestr   = flag.Bool("allow-restricted-specs", false, "let clients resolve restricted specs (remote@<url> dials out, ithemal?load= reads files); enable only on trusted networks")
		coverage     = flag.Int("coverage-samples", 1000, "default coverage pool size (requests may override)")
		seed         = flag.Int64("seed", 1, "default explanation seed (requests may override)")
		explains     = flag.Int("max-explains", 0, "max concurrently computing explain requests (0 = GOMAXPROCS); four times as many may wait before 429")
		jobWorkers   = flag.Int("job-workers", 1, "corpus jobs executing concurrently")
		jobQueue     = flag.Int("job-queue", 16, "queued corpus jobs before 429")
		maxCorpus    = flag.Int("max-corpus-blocks", 10000, "largest corpus a single job may carry")
		maxUpload    = flag.Int64("max-upload-bytes", 0, "largest binary accepted by the POST /v1/corpus upload mode before 413 (0 = 64 MiB)")
		resultStore  = flag.Int("result-store", 1024, "explanation LRU result-store keys: one per explanation, plus one per distinct binary request frame")
		streamRing   = flag.Int("stream-ring", 0, "results retained for catch-up reads per stream-only corpus job; a reader further behind gets a lag error (0 = 4096)")
		jobHistory   = flag.Int("job-history", 64, "finished jobs retained for polling")
		cacheSize    = flag.Int("prediction-cache", 0, "prediction-cache entries per (model, arch) (0 = ~1M)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown budget")
		storeDir     = flag.String("store-dir", "", "durable store directory: explanations and corpus-job checkpoints persist across restarts, which reload warm results and resume interrupted jobs (empty = in-memory only)")
		storeMax     = flag.Int64("store-max-bytes", 1<<30, "durable-store live-data budget enforced at compaction (0 = 1 GiB; negative = unbounded)")
		checkpoint   = flag.Int("checkpoint-every", 16, "fsync the durable store every N completed corpus-job blocks (completed blocks survive SIGKILL regardless; this bounds power-loss exposure)")

		coordinator  = flag.Bool("coordinator", false, "coordinator mode: shard corpus jobs across cluster workers (static -workers list plus POST /v1/cluster/join self-registration)")
		workersList  = flag.String("workers", "", "comma-separated worker base URLs to seed the cluster pool (implies -coordinator)")
		joinURL      = flag.String("join", "", "worker mode: register with this coordinator base URL and keep heartbeating")
		advertise    = flag.String("advertise", "", "base URL this worker advertises when joining (default: derived from the listen address; required when listening on a wildcard address)")
		capacity     = flag.Int("capacity", 1, "worker mode: concurrent leases this worker accepts")
		heartbeatTTL = flag.Duration("heartbeat-ttl", 15*time.Second, "coordinator: drop a self-registered worker after this long without a heartbeat (workers heartbeat at a third of it)")
		leaseBlocks  = flag.Int("lease-blocks", 4, "coordinator: blocks per lease")
		leaseTimeout = flag.Duration("lease-timeout", 5*time.Minute, "coordinator: re-lease a dispatched lease after this long without an answer")
		leaseRetries = flag.Int("lease-retries", 3, "coordinator: dispatch attempts per lease before its blocks fail")
		straggler    = flag.Duration("straggler-after", 30*time.Second, "coordinator: re-dispatch an in-flight lease to an idle worker after this long")

		logFormat   = flag.String("log-format", "text", "structured log format: text | json")
		logLevel    = flag.String("log-level", "info", "log verbosity: debug | info | warn | error (request lines on hot routes log at debug)")
		debugAddr   = flag.String("debug-addr", "", "separate listen address serving net/http/pprof profiles (empty = disabled)")
		traceSample = flag.Int("trace-sample", 0, "trace 1-in-N requests on hot routes; slow routes are always traced (0 = default 64, 1 = every request, negative = tracing off)")
		traceRing   = flag.Int("trace-ring", 0, "finished spans retained for GET /debug/traces (0 = 4096)")
		traceSlowMS = flag.Int("trace-slow-ms", 0, "retain the full span tree of requests slower than this (or status >= 500) in the outlier ring, regardless of -trace-sample (0 = default 500, negative = off)")
		historyTick = flag.Duration("history-interval", 0, "telemetry history sampling interval (0 = 1s, negative = sampler off)")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet-serve"))
		return
	}

	rootLog, err := obs.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fatal(err)
	}
	// Components that are not handed a logger explicitly (the remote
	// cost-model transport, resolved deep inside the model registry) fall
	// back to slog.Default — point it at the same root so every line of
	// this process shares one stream and one format.
	slog.SetDefault(rootLog)
	logger := obs.Component(rootLog, "serve")

	base := core.DefaultConfig()
	base.CoverageSamples = *coverage
	base.Seed = *seed

	// The typed nil matters: Config.Store is an interface, so only a
	// successfully opened log may be assigned to it.
	var store persist.Store
	if *storeDir != "" {
		log, err := persist.Open(*storeDir, persist.Options{MaxBytes: *storeMax})
		if err != nil {
			fatal(err)
		}
		st := log.Stats()
		logger.Info("durable store opened",
			"dir", *storeDir, "entries", st.Entries, "bytes", st.TotalBytes,
			"corrupt_skipped", st.CorruptRecords)
		store = log
	}

	var staticWorkers []string
	for _, u := range strings.Split(*workersList, ",") {
		if u = strings.TrimSpace(u); u != "" {
			staticWorkers = append(staticWorkers, u)
		}
	}

	// A worker names itself; the service labels a coordinator or a
	// standalone server.
	processLabel := ""
	if *joinURL != "" {
		processLabel = "worker"
	}
	srv := service.New(service.Config{
		Base:                  base,
		DefaultModel:          *defaultModel,
		MaxModelEntries:       *maxModels,
		AllowRestrictedSpecs:  *allowRestr,
		PredictionCacheSize:   *cacheSize,
		MaxConcurrentExplains: *explains,
		JobWorkers:            *jobWorkers,
		JobQueueDepth:         *jobQueue,
		MaxCorpusBlocks:       *maxCorpus,
		MaxUploadBytes:        *maxUpload,
		ResultStoreSize:       *resultStore,
		StreamRingSize:        *streamRing,
		JobHistorySize:        *jobHistory,
		JobCheckpointEvery:    *checkpoint,
		Store:                 store,
		Coordinator:           *coordinator,
		ClusterWorkers:        staticWorkers,
		Logger:                rootLog,
		TraceRingSize:         *traceRing,
		TraceSample:           *traceSample,
		TraceSlowMS:           *traceSlowMS,
		HistoryInterval:       *historyTick,
		ProcessLabel:          processLabel,
		Cluster: cluster.Options{
			LeaseBlocks:    *leaseBlocks,
			LeaseTimeout:   *leaseTimeout,
			LeaseRetries:   *leaseRetries,
			HeartbeatTTL:   *heartbeatTTL,
			StragglerAfter: *straggler,
		},
	})

	if store != nil {
		sum, err := srv.Restore()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "comet-serve: restored %d warm explanations, %d finished jobs; resuming %d interrupted jobs (%d unresumable)\n",
			sum.Explanations, sum.JobsRestored, sum.JobsResumed, sum.JobsFailed)
	}

	for _, spec := range strings.Split(*preload, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		logger.Info("warming model", "spec", spec)
		if err := srv.WarmModel(spec, ""); err != nil {
			fatal(err)
		}
	}

	// Opt-in pprof: a separate listener so profiling endpoints are never
	// reachable through the service port.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(err)
		}
		logger.Info("pprof debug listener up", "addr", dln.Addr().String())
		go func() {
			dbg := &http.Server{Handler: http.DefaultServeMux, ReadHeaderTimeout: 10 * time.Second}
			if err := dbg.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug listener exited", "error", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The parseable "listening" line is the e2e smoke test's readiness
	// signal; keep its format stable.
	fmt.Printf("comet-serve: listening on %s\n", ln.Addr())

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	// Warm-up (Restore, -preload) is done and the listener is up: report
	// ready, so load balancers and coordinators may route here.
	srv.SetReady()

	// Worker mode: self-register with the coordinator and keep
	// heartbeating until shutdown. Registration starts only now — after
	// readiness — so a coordinator never learns of a cold worker.
	stopJoin := func() {}
	if *joinURL != "" {
		adv, err := advertiseURL(*advertise, ln)
		if err != nil {
			fatal(err)
		}
		joinCtx, cancelJoin := context.WithCancel(context.Background())
		stopJoin = cancelJoin
		go cluster.Heartbeat(joinCtx, *joinURL, adv, *capacity)
	}

	// SIGQUIT is the black-box dump: instead of Go's default stack dump,
	// write the flight recorder as one JSON line to stderr and exit hard.
	// A wedged or misbehaving server leaves a parseable record of its
	// last ~2k requests, leases, and job transitions.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	go func() {
		<-quitc
		fmt.Fprintln(os.Stderr, "comet-serve: SIGQUIT, dumping flight recorder")
		_ = srv.FlightRecorder().WriteJSON(os.Stderr, srv.ProcessLabel())
		os.Exit(2)
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "budget", *drainTimeout)
	case err := <-errc:
		fatal(err)
	}

	stopJoin()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("http shutdown", "error", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("job drain failed", "error", err)
		os.Exit(1)
	}
	if store != nil {
		if err := store.Close(); err != nil {
			logger.Warn("store close", "error", err)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "comet-serve: bye")
}

// advertiseURL resolves the base URL a worker advertises to its
// coordinator: the -advertise flag verbatim, or one derived from the
// bound listener. A wildcard listen address has no routable host to
// derive, so loopback is assumed (right for local clusters and tests;
// real deployments pass -advertise).
func advertiseURL(flagValue string, ln net.Listener) (string, error) {
	if flagValue != "" {
		return wire.BaseURL(flagValue), nil
	}
	addr, ok := ln.Addr().(*net.TCPAddr)
	if !ok {
		return "", fmt.Errorf("cannot derive -advertise from listener %v; pass -advertise explicitly", ln.Addr())
	}
	host := addr.IP.String()
	if addr.IP.IsUnspecified() {
		host = "127.0.0.1"
		slog.Warn("listening on a wildcard address; advertising loopback (pass -advertise for a routable URL)",
			"component", "serve", "advertise", fmt.Sprintf("%s:%d", host, addr.Port))
	}
	return fmt.Sprintf("http://%s", net.JoinHostPort(host, fmt.Sprint(addr.Port))), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "comet-serve:", err)
	os.Exit(1)
}
