// Command comet-bench regenerates the paper's tables and figures (see the
// per-experiment index in DESIGN.md) and benchmarks the corpus-scale
// explanation engine.
//
// Examples:
//
//	comet-bench -experiment table2
//	comet-bench -all
//	comet-bench -all -full        # paper-scale parameters (hours)
//	comet-bench -corpus 50            # batched ExplainAll vs sequential Explain
//	comet-bench -corpus 50 -store     # warm durable-store speedup (cold vs disk-served)
//	comet-bench -corpus 50 -cluster 4 # shard across 4 in-process workers; 1→N scaling
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/experiments"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment id: "+strings.Join(experiments.AllIDs(), ", "))
		all        = flag.Bool("all", false, "run every experiment")
		full       = flag.Bool("full", false, "paper-scale parameters (hours)")
		blocks     = flag.Int("blocks", 0, "override test-set size")
		seeds      = flag.Int("seeds", 0, "override seed count")
		coverage   = flag.Int("coverage-samples", 0, "override coverage pool size")
		train      = flag.Int("train-blocks", 0, "override ithemal training-set size")
		quiet      = flag.Bool("q", false, "suppress progress output")

		corpusN     = flag.Int("corpus", 0, "corpus benchmark: explain N synthetic blocks sequentially and with ExplainAll, and report the speedup")
		corpusModel = flag.String("corpus-model", "uica", `corpus benchmark model spec, e.g. uica, c@skl, "ithemal?train=400"`)
		workers     = flag.Int("workers", 0, "corpus benchmark ExplainAll workers (0 = GOMAXPROCS)")
		jsonOut     = flag.String("json-out", "", `write a machine-readable corpus benchmark summary to this file (e.g. BENCH_corpus.json) so the repo's perf trajectory is tracked run over run`)
		storeMode   = flag.Bool("store", false, "with -corpus: benchmark the durable explanation store instead — a cold pass that populates a fresh store, then a warm pass served from it, reporting the warm speedup and store hit/miss counters")
		storeDir    = flag.String("store-dir", "", "store benchmark directory (default: a temp dir, removed afterwards)")
		clusterW    = flag.Int("cluster", 0, "with -corpus: benchmark the sharded cluster instead — spawn N in-process comet-serve workers, shard the corpus across 1 and then all N, and report scaling efficiency and re-lease counts (results byte-checked against a local run)")

		wireMode     = flag.Bool("wire", false, "wire benchmark: warm-path explain requests/s over the JSON facade vs the binary frame codec (byte-identity verified), plus a stream-only corpus job's memory profile; -json-out writes the BENCH_baseline.json schema")
		wireRequests = flag.Int("wire-requests", 5000, "with -wire: warm-path requests measured per encoding")
		streamBlocks = flag.Int("stream-blocks", 100000, "with -wire: blocks in the streamed corpus job")
		checkPath    = flag.String("check", "", "with -wire: compare against this baseline summary (BENCH_baseline.json) and exit non-zero on >25% binary-speedup regression or >10% per-request allocation growth")
		showVersion  = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet-bench"))
		return
	}

	if *wireMode {
		if err := wireBench(*wireRequests, *streamBlocks, *jsonOut, *checkPath); err != nil {
			fmt.Fprintln(os.Stderr, "comet-bench:", err)
			os.Exit(1)
		}
		return
	}

	if *corpusN > 0 {
		var err error
		switch {
		case *clusterW > 0:
			err = clusterBench(*corpusModel, *corpusN, *workers, *clusterW, *jsonOut)
		case *storeMode:
			err = storeBench(*corpusModel, *corpusN, *workers, *storeDir, *jsonOut)
		default:
			err = corpusBench(*corpusModel, *corpusN, *workers, *jsonOut)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "comet-bench:", err)
			os.Exit(1)
		}
		return
	}

	params := experiments.DefaultParams()
	if *full {
		params = experiments.PaperParams()
	}
	if *blocks > 0 {
		params.Blocks = *blocks
	}
	if *seeds > 0 {
		params.Seeds = *seeds
	}
	if *coverage > 0 {
		params.CoverageSamples = *coverage
	}
	if *train > 0 {
		params.TrainBlocks = *train
	}
	if !*quiet {
		params.Progress = os.Stderr
	}

	var ids []string
	switch {
	case *all:
		ids = experiments.AllIDs()
	case *experiment != "":
		ids = strings.Split(*experiment, ",")
	default:
		fmt.Fprintln(os.Stderr, "comet-bench: pass -experiment <id> or -all; ids:", strings.Join(experiments.AllIDs(), ", "))
		os.Exit(2)
	}

	session := experiments.NewSession(params)
	for _, id := range ids {
		table, err := session.Run(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(os.Stderr, "comet-bench:", err)
			os.Exit(1)
		}
		table.Render(os.Stdout)
	}
}

// benchSummary is the machine-readable corpus benchmark record -json-out
// writes, one file per run, so perf trends are diffable across commits.
// Spec is the resolved canonical model spec, so a perf trajectory is
// attributable to the exact model configuration that produced it.
type benchSummary struct {
	Model             string  `json:"model"`
	Spec              string  `json:"spec"`
	Blocks            int     `json:"blocks"`
	Workers           int     `json:"workers"`
	GoMaxProcs        int     `json:"gomaxprocs"`
	SequentialSeconds float64 `json:"sequential_seconds"`
	CorpusSeconds     float64 `json:"corpus_seconds"`
	SequentialPerSec  float64 `json:"sequential_blocks_per_sec"`
	CorpusPerSec      float64 `json:"corpus_blocks_per_sec"`
	Speedup           float64 `json:"speedup"`
	Queries           int     `json:"queries"`
	CacheHits         int     `json:"cache_hits"`
	CacheHitRate      float64 `json:"cache_hit_rate"`
	ModelCalls        int     `json:"model_calls"`

	// Store-benchmark fields (-store): a cold pass populates a fresh
	// durable store, a warm pass is served from it.
	StoreColdSeconds float64 `json:"store_cold_seconds,omitempty"`
	StoreWarmSeconds float64 `json:"store_warm_seconds,omitempty"`
	StoreSpeedup     float64 `json:"store_speedup,omitempty"`
	StoreHits        uint64  `json:"store_hits,omitempty"`
	StoreMisses      uint64  `json:"store_misses,omitempty"`
	StoreBytes       int64   `json:"store_bytes,omitempty"`

	// Cluster-benchmark fields (-cluster N): the corpus sharded across 1
	// worker and then across all N, byte-checked against a local run.
	// Efficiency is Speedup/N — 1.0 is perfect linear scaling (expect
	// far less when all N workers share one machine's cores, as here).
	ClusterWorkers       int     `json:"cluster_workers,omitempty"`
	ClusterSingleSeconds float64 `json:"cluster_single_seconds,omitempty"`
	ClusterSeconds       float64 `json:"cluster_seconds,omitempty"`
	ClusterSpeedup       float64 `json:"cluster_speedup,omitempty"`
	ClusterEfficiency    float64 `json:"cluster_efficiency,omitempty"`
	ClusterLeases        uint64  `json:"cluster_leases,omitempty"`
	ClusterReleases      uint64  `json:"cluster_releases,omitempty"`
	ClusterStragglers    uint64  `json:"cluster_stragglers,omitempty"`
}

// corpusBench measures the batched, cached ExplainAll engine against a
// sequential Explain loop (prediction cache disabled, i.e. the
// pre-batching query path) over the same synthetic corpus, and verifies
// the two produce identical explanations block for block.
func corpusBench(modelSpec string, n, workers int, jsonOut string) error {
	spec, err := comet.ParseModelSpec(modelSpec)
	if err != nil {
		return err
	}
	// The bench's historical neural default is a 400-block training set
	// (an explicit train= parameter still wins), keeping BENCH_*.json
	// numbers comparable across runs of the same command.
	spec = spec.WithDefaultParam("ithemal", "train", "400")
	rm, err := comet.ResolveModel(spec)
	if err != nil {
		return err
	}
	model := rm.Model
	blocks := comet.GenerateBlocks(n, 1)

	cfg := comet.DefaultConfig()
	cfg.Epsilon = rm.Epsilon
	cfg.CoverageSamples = 500
	// Pinned so the sequential and corpus runs draw identical samples
	// (per-block sampling is deterministic per worker count).
	cfg.Parallelism = 1

	// Sequential baseline: one block at a time, no shared cache.
	seqCfg := cfg
	seqCfg.CacheSize = -1
	seqStart := time.Now()
	seqExpls := make([]*comet.Explanation, len(blocks))
	for i, b := range blocks {
		c := seqCfg
		c.Seed = comet.BlockSeed(cfg.Seed, i)
		expl, err := comet.NewExplainer(model, c).Explain(b)
		if err != nil {
			return fmt.Errorf("sequential block %d: %w", i, err)
		}
		seqExpls[i] = expl
	}
	seqElapsed := time.Since(seqStart)

	// Batched corpus engine: worker pool + shared prediction cache.
	e := comet.NewExplainer(model, cfg)
	corpusStart := time.Now()
	corpusExpls, err := e.ExplainCorpus(blocks, comet.CorpusOptions{Workers: workers})
	if err != nil {
		return err
	}
	corpusElapsed := time.Since(corpusStart)

	var queries, hits, calls int
	for i := range blocks {
		if corpusExpls[i].Features.Key() != seqExpls[i].Features.Key() {
			return fmt.Errorf("block %d: corpus explanation %v != sequential %v",
				i, corpusExpls[i].Features, seqExpls[i].Features)
		}
		queries += corpusExpls[i].Queries
		hits += corpusExpls[i].CacheHits
		calls += corpusExpls[i].ModelCalls
	}

	fmt.Printf("corpus benchmark: %d blocks, model %s (spec %s)\n", n, model.Name(), rm.Spec)
	fmt.Printf("  sequential Explain (no cache):  %10v  (%.2f blocks/s)\n",
		seqElapsed.Round(time.Millisecond), float64(n)/seqElapsed.Seconds())
	fmt.Printf("  batched ExplainAll:             %10v  (%.2f blocks/s)\n",
		corpusElapsed.Round(time.Millisecond), float64(n)/corpusElapsed.Seconds())
	fmt.Printf("  speedup:                        %.2fx (identical explanations)\n",
		seqElapsed.Seconds()/corpusElapsed.Seconds())
	fmt.Printf("  queries:                        %d total, %d cache/dedup hits (%.1f%%), %d model evaluations\n",
		queries, hits, 100*float64(hits)/float64(queries), calls)

	if jsonOut != "" {
		hitRate := 0.0
		if queries > 0 {
			hitRate = float64(hits) / float64(queries)
		}
		summary := benchSummary{
			Model:             model.Name(),
			Spec:              rm.Spec.String(),
			Blocks:            n,
			Workers:           workers,
			GoMaxProcs:        runtime.GOMAXPROCS(0),
			SequentialSeconds: seqElapsed.Seconds(),
			CorpusSeconds:     corpusElapsed.Seconds(),
			SequentialPerSec:  float64(n) / seqElapsed.Seconds(),
			CorpusPerSec:      float64(n) / corpusElapsed.Seconds(),
			Speedup:           seqElapsed.Seconds() / corpusElapsed.Seconds(),
			Queries:           queries,
			CacheHits:         hits,
			CacheHitRate:      hitRate,
			ModelCalls:        calls,
		}
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	return nil
}

// clusterBench measures the sharded explanation cluster: clusterW
// in-process comet-serve workers behind real HTTP, the corpus sharded
// across one of them and then across all of them by the same lease
// scheduler cometd's coordinator mode runs. Every pass's per-block wire
// JSON is compared against a local ExplainAll at the same seed — the
// distributed runs must be byte-identical, or the bench fails. The
// single-worker and N-worker passes run on disjoint (cold) workers so
// cache warmth doesn't flatter the scaling number.
func clusterBench(modelSpec string, n, workers, clusterW int, jsonOut string) error {
	spec, err := comet.ParseModelSpec(modelSpec)
	if err != nil {
		return err
	}
	spec = spec.WithDefaultParam("ithemal", "train", "400")
	rm, err := comet.ResolveModel(spec)
	if err != nil {
		return err
	}
	blocks := comet.GenerateBlocks(n, 1)
	texts := make([]string, len(blocks))
	for i, b := range blocks {
		texts[i] = b.String()
	}

	cfg := comet.DefaultConfig()
	cfg.Epsilon = rm.Epsilon
	cfg.CoverageSamples = 500
	// Shard bytes must not depend on any machine's core count.
	cfg.Parallelism = 1
	snap := wire.SnapshotConfig(core.ApplyOptions(cfg))
	arch := wire.ArchName(rm.Model.Arch())

	// Local reference: the bytes every distributed pass must reproduce.
	localExpls, err := comet.NewExplainer(rm.Model, cfg).ExplainCorpus(blocks, comet.CorpusOptions{Workers: workers})
	if err != nil {
		return fmt.Errorf("local reference pass: %w", err)
	}
	// The comparison bytes zero the cache accounting: cache_hits vs
	// model_calls depends on shared-cache warmth (the local run shares
	// one cache across all blocks; disjoint workers can't), while every
	// other field must match exactly.
	normalize := func(e *wire.Explanation) ([]byte, error) {
		n := *e
		n.CacheHits, n.ModelCalls = 0, 0
		return json.Marshal(&n)
	}
	ref := make(map[int][]byte, len(localExpls))
	for i, e := range localExpls {
		raw, err := normalize(wire.FromExplanation(e))
		if err != nil {
			return err
		}
		ref[i] = raw
	}

	// 1+N in-process workers; each pass gets cold ones. Models are
	// warmed before the clock starts, like a production pool would be.
	startWorker := func() (string, func(), error) {
		srv := service.New(service.Config{})
		if err := srv.WarmModel(rm.Spec.String(), arch); err != nil {
			return "", nil, err
		}
		srv.SetReady()
		ts := httptest.NewServer(srv.Handler())
		return ts.URL, func() {
			ts.Close()
			_ = srv.Shutdown(context.Background())
		}, nil
	}
	urls := make([]string, clusterW+1)
	for i := range urls {
		u, cleanup, err := startWorker()
		if err != nil {
			return fmt.Errorf("starting worker %d: %w", i, err)
		}
		defer cleanup()
		urls[i] = u
	}

	runPass := func(passURLs []string) (time.Duration, wire.ClusterStatus, error) {
		coord := cluster.New(cluster.NewPool(passURLs, cluster.Options{}), cluster.Options{})
		got := make(map[int][]byte, len(blocks))
		var emitErr error
		start := time.Now()
		err := coord.Run(context.Background(), cluster.Job{
			ID:      "bench",
			Spec:    rm.Spec.String(),
			Arch:    arch,
			Config:  snap,
			Blocks:  texts,
			Workers: workers,
		}, func(res cluster.Result) {
			if res.Error != "" {
				if emitErr == nil {
					emitErr = fmt.Errorf("block %d: %s", res.Index, res.Error)
				}
				return
			}
			raw, err := normalize(res.Explanation)
			if err == nil {
				got[res.Index] = raw
			} else if emitErr == nil {
				emitErr = err
			}
		})
		elapsed := time.Since(start)
		if err == nil {
			err = emitErr
		}
		if err != nil {
			return elapsed, coord.Status(), err
		}
		for i := range blocks {
			if !bytes.Equal(got[i], ref[i]) {
				return elapsed, coord.Status(), fmt.Errorf("block %d: sharded explanation differs from local:\n got %s\nwant %s", i, got[i], ref[i])
			}
		}
		return elapsed, coord.Status(), nil
	}

	singleElapsed, _, err := runPass(urls[:1])
	if err != nil {
		return fmt.Errorf("1-worker pass: %w", err)
	}
	fullElapsed, fullStatus, err := runPass(urls[1:])
	if err != nil {
		return fmt.Errorf("%d-worker pass: %w", clusterW, err)
	}

	speedup := singleElapsed.Seconds() / fullElapsed.Seconds()
	fmt.Printf("cluster benchmark: %d blocks, model %s (spec %s), %d workers (in-process, GOMAXPROCS=%d)\n",
		n, rm.Model.Name(), rm.Spec, clusterW, runtime.GOMAXPROCS(0))
	fmt.Printf("  1 worker:                       %10v  (%.2f blocks/s)\n",
		singleElapsed.Round(time.Millisecond), float64(n)/singleElapsed.Seconds())
	fmt.Printf("  %d workers:                      %10v  (%.2f blocks/s)\n",
		clusterW, fullElapsed.Round(time.Millisecond), float64(n)/fullElapsed.Seconds())
	fmt.Printf("  speedup:                        %.2fx (efficiency %.2f; identical bytes vs local)\n",
		speedup, speedup/float64(clusterW))
	fmt.Printf("  leases:                         %d dispatched, %d re-leased, %d straggler re-dispatches\n",
		fullStatus.LeasesDispatched, fullStatus.LeasesReleased, fullStatus.StragglerDispatches)

	if jsonOut != "" {
		summary := benchSummary{
			Model:                rm.Model.Name(),
			Spec:                 rm.Spec.String(),
			Blocks:               n,
			Workers:              workers,
			GoMaxProcs:           runtime.GOMAXPROCS(0),
			ClusterWorkers:       clusterW,
			ClusterSingleSeconds: singleElapsed.Seconds(),
			ClusterSeconds:       fullElapsed.Seconds(),
			ClusterSpeedup:       speedup,
			ClusterEfficiency:    speedup / float64(clusterW),
			ClusterLeases:        fullStatus.LeasesDispatched,
			ClusterReleases:      fullStatus.LeasesReleased,
			ClusterStragglers:    fullStatus.StragglerDispatches,
		}
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	return nil
}

// storeBench measures the durable explanation store: a cold ExplainCorpus
// pass that computes everything and populates a fresh store, then a warm
// pass over the same corpus answered from disk, verifying the two passes
// produce identical explanations block for block. This is the
// cross-process speedup a restarted comet-serve (or a repeated CLI run)
// gets for free.
func storeBench(modelSpec string, n, workers int, storeDir, jsonOut string) error {
	spec, err := comet.ParseModelSpec(modelSpec)
	if err != nil {
		return err
	}
	spec = spec.WithDefaultParam("ithemal", "train", "400")
	rm, err := comet.ResolveModel(spec)
	if err != nil {
		return err
	}
	blocks := comet.GenerateBlocks(n, 1)

	if storeDir == "" {
		dir, err := os.MkdirTemp("", "comet-store-bench-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
	}
	log, err := persist.Open(storeDir, persist.Options{})
	if err != nil {
		return err
	}
	defer log.Close()
	if st := log.Stats(); st.Entries > 0 {
		return fmt.Errorf("store %s already holds %d entries; the cold pass needs a fresh store", storeDir, st.Entries)
	}

	cfg := comet.DefaultConfig()
	cfg.Epsilon = rm.Epsilon
	cfg.CoverageSamples = 500
	// Store keys include the sampling parallelism; pin it like the CLI
	// does so the two passes (and any later process) share keys.
	cfg.Parallelism = 1

	// The cold pass computes the corpus and persists every explanation
	// under its content address; the warm pass reads each one back.
	e := comet.NewExplainer(rm.Model, cfg)
	canon := rm.Spec.String()
	snap := wire.SnapshotConfig(e.Config())
	snaps := make([]wire.ConfigSnapshot, n)
	ids := make([]wire.ContentID, n)
	for i, b := range blocks {
		snaps[i] = snap
		snaps[i].Seed = comet.BlockSeed(snap.Seed, i)
		ids[i] = persist.ExplanationID(canon, snaps[i], b.String())
	}

	start := time.Now()
	coldExpls, err := e.ExplainCorpus(blocks, comet.CorpusOptions{Workers: workers})
	if err != nil {
		return fmt.Errorf("cold pass: %w", err)
	}
	for i, expl := range coldExpls {
		if err := persist.PutExplanation(log, ids[i], canon, snaps[i], wire.FromExplanation(expl)); err != nil {
			return fmt.Errorf("cold pass: %w", err)
		}
	}
	coldElapsed := time.Since(start)

	start = time.Now()
	warmExpls := make([]*comet.Explanation, n)
	var hits, misses uint64
	for i := range blocks {
		stored, ok := persist.LookupExplanation(log, ids[i])
		if !ok {
			misses++
			continue
		}
		hits++
		if warmExpls[i], err = stored.Core(); err != nil {
			return fmt.Errorf("warm pass: block %d: %w", i, err)
		}
	}
	warmElapsed := time.Since(start)
	if misses != 0 {
		return fmt.Errorf("warm pass missed the store %d times; expected 0", misses)
	}

	for i := range blocks {
		if coldExpls[i].Features.Key() != warmExpls[i].Features.Key() ||
			coldExpls[i].Prediction != warmExpls[i].Prediction {
			return fmt.Errorf("block %d: warm explanation %v != cold %v",
				i, warmExpls[i].Features, coldExpls[i].Features)
		}
	}

	st := log.Stats()
	fmt.Printf("store benchmark: %d blocks, model %s (spec %s), store %s\n", n, rm.Model.Name(), rm.Spec, storeDir)
	fmt.Printf("  cold pass (compute + persist):  %10v  (%.2f blocks/s)\n",
		coldElapsed.Round(time.Millisecond), float64(n)/coldElapsed.Seconds())
	fmt.Printf("  warm pass (served from disk):   %10v  (%.2f blocks/s)\n",
		warmElapsed.Round(time.Millisecond), float64(n)/warmElapsed.Seconds())
	fmt.Printf("  warm speedup:                   %.2fx (identical explanations)\n",
		coldElapsed.Seconds()/warmElapsed.Seconds())
	fmt.Printf("  store:                          %d hits, %d misses, %d bytes on disk\n",
		hits, misses, st.TotalBytes)

	if jsonOut != "" {
		summary := benchSummary{
			Model:            rm.Model.Name(),
			Spec:             rm.Spec.String(),
			Blocks:           n,
			Workers:          workers,
			GoMaxProcs:       runtime.GOMAXPROCS(0),
			StoreColdSeconds: coldElapsed.Seconds(),
			StoreWarmSeconds: warmElapsed.Seconds(),
			StoreSpeedup:     coldElapsed.Seconds() / warmElapsed.Seconds(),
			StoreHits:        hits,
			StoreMisses:      misses,
			StoreBytes:       st.TotalBytes,
		}
		data, err := json.MarshalIndent(summary, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", jsonOut, err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", jsonOut)
	}
	return nil
}
