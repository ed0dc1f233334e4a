// Command comet explains a cost model's prediction for one basic block or
// for a whole corpus of blocks.
//
// In single-block mode the block is read from a file (-in) or stdin, in
// Intel syntax, one instruction per line. The model is chosen with -model,
// which takes a registry spec string — name[@target][?key=value&...]:
//
//	comet -model uica
//	comet -model c@skl
//	comet -model 'ithemal?hidden=64&train=2000'
//	comet -model remote@http://host:8372?model=uica
//
// -list-models prints every registered model with its default spec and
// parameters.
//
// In corpus mode (-corpus) every block of a corpus file — blocks in Intel
// syntax separated by lines containing only "---" — is explained through
// the batched worker-pool engine with a shared prediction cache (none for
// c and mca, which are cheaper to query than to cache); "-corpus -" reads the same format from stdin, "-corpus gen:N"
// generates a synthetic BHive-like corpus of N blocks, and
// "-corpus elf:PATH" extracts the basic blocks of a real x86-64 ELF
// binary (deterministically ordered and deduplicated by canonical block
// text, so -store keys are stable and match server-side
// ingestion of the same binary). Results stream as they complete,
// followed by a throughput and cache summary.
//
// With -json, output switches to the comet-serve wire format — a single
// explanation object in single-block mode, one corpus-result object per
// line in corpus mode — so CLI and API outputs are interchangeable.
//
// With -store DIR, explanations persist in a durable content-addressed
// store (see internal/persist): repeated invocations with the same
// model, config, and block are answered from disk, and an interrupted
// -corpus run rerun with the same flags reports how many blocks the
// store already holds and skips them, producing output identical to an
// uninterrupted run. Local and -cluster runs share the
// store: either mode serves blocks the other computed. Inspect stores
// with comet-store.
//
// Examples:
//
//	echo 'add rcx, rax
//	mov rdx, rcx
//	pop rbx' | comet -model uica@hsw
//
//	comet -model uica -corpus gen:100 -workers 8
//	comet -model uica -corpus gen:100 -json | jq .explanation.prediction
//	comet -model uica -corpus gen:100 -store ~/.cache/comet
//	comet -model uica -corpus elf:/usr/bin/true -workers 8
//	cat blocks.txt | comet -model uica -corpus -
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/ingest"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/version"
	"github.com/comet-explain/comet/internal/wire"
)

func main() {
	var (
		modelSpec   = flag.String("model", "uica", "cost model spec: name[@arch][?key=value&...] (see -list-models)")
		listModels  = flag.Bool("list-models", false, "list the registered models with their default specs and parameters, then exit")
		inPath      = flag.String("in", "", "file with the basic block (default: stdin)")
		seed        = flag.Int64("seed", 1, "explanation seed")
		coverage    = flag.Int("coverage-samples", 1000, "coverage pool size")
		epsilon     = flag.Float64("epsilon", 0, "ε-ball radius (default: the resolved model's recommended ε)")
		threshold   = flag.Float64("threshold", 0.7, "precision threshold 1−δ")
		saveModel   = flag.String("save-model", "", "save the resolved model to this file (models that support saving)")
		report      = flag.Bool("report", false, "also print the pipeline bottleneck report")
		profile     = flag.Bool("profile", false, "also print where the explanation's wall time went, stage by stage (with -json: attach the profile object)")
		corpus      = flag.String("corpus", "", `corpus mode: a file of "---"-separated blocks, "-" for the same on stdin, gen:N for a synthetic corpus, or elf:PATH to extract basic blocks from an ELF binary`)
		workers     = flag.Int("workers", 0, "corpus mode: concurrent blocks (0 = GOMAXPROCS); with -cluster, the per-lease concurrency hint sent to each worker")
		clusterTo   = flag.String("cluster", "", "corpus mode: comma-separated comet-serve worker URLs — shard the corpus across them instead of explaining locally (per-block output is byte-identical apart from cache-accounting counters)")
		leaseN      = flag.Int("lease-blocks", 4, "with -cluster: blocks per lease")
		noCache     = flag.Bool("no-cache", false, "disable the prediction cache")
		jsonOut     = flag.Bool("json", false, "emit the comet-serve wire format (one explanation object, or one corpus result per line)")
		storeDir    = flag.String("store", "", "durable explanation store directory: explanations persist and are reused across invocations")
		showVersion = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Println(version.String("comet"))
		return
	}

	if *listModels {
		printModels()
		return
	}

	if *clusterTo != "" && *corpus == "" {
		fatal(fmt.Errorf("-cluster requires -corpus"))
	}

	// A spec without @target takes the registry's default target, the
	// same one locally and with -cluster.
	spec, err := comet.ParseModelSpec(*modelSpec)
	if err != nil {
		fatal(err)
	}
	cfg := comet.DefaultConfig()
	cfg.Seed = *seed
	cfg.CoverageSamples = *coverage
	cfg.PrecisionThreshold = *threshold
	if *noCache {
		cfg.CacheSize = -1
	}

	var model comet.CostModel
	if *clusterTo != "" {
		// The workers own the model: canonicalize the spec without
		// resolving it, and take the ε the registry advertises. (Specs
		// that make workers read files, like load=, require
		// -allow-restricted-specs there.)
		if spec, err = comet.CanonicalSpec(spec); err != nil {
			fatal(err)
		}
		cfg.Epsilon = 0.5
		if def, ok := comet.LookupModel(spec.Name); ok && def.Epsilon > 0 {
			cfg.Epsilon = def.Epsilon
		}
	} else {
		if def, ok := comet.LookupModel(spec.Name); ok && def.Name == "ithemal" && spec.Params["load"] == "" {
			fmt.Fprintf(os.Stderr, "training ithemal surrogate (%s)...\n", spec)
		}
		rm, err := comet.ResolveModel(spec)
		if err != nil {
			fatal(err)
		}
		spec, model, cfg.Epsilon = rm.Spec, rm.Model, rm.Epsilon
		if *saveModel != "" {
			saver, ok := model.(interface{ SaveFile(string) error })
			if !ok {
				fatal(fmt.Errorf("model %s does not support saving", rm.Spec))
			}
			if err := saver.SaveFile(*saveModel); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "saved model to %s\n", *saveModel)
		}
	}
	if *epsilon != 0 {
		cfg.Epsilon = *epsilon
	}

	// The durable store makes explanations reusable across processes:
	// repeated invocations (and interrupted -corpus runs) are answered
	// from disk instead of recomputed.
	var store *persist.Log
	if *storeDir != "" {
		if store, err = persist.Open(*storeDir, persist.Options{}); err != nil {
			fatal(err)
		}
		defer store.Close()
	}

	if *corpus != "" {
		run := corpusRun{spec: spec.String(), cfg: cfg, model: model, store: store,
			workers: *workers, jsonOut: *jsonOut}
		if *clusterTo != "" {
			if run.cluster, err = newClusterTarget(*clusterTo, *leaseN); err != nil {
				fatal(err)
			}
		}
		if err := run.explain(*corpus); err != nil {
			fatal(err)
		}
		return
	}

	src, err := readInput(*inPath)
	if err != nil {
		fatal(err)
	}
	block, err := comet.ParseBlock(src)
	if err != nil {
		fatal(fmt.Errorf("parsing block: %w", err))
	}

	// Ctrl-C cancels the search cleanly through the context-first API.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	explainer := comet.NewExplainer(model, cfg)
	snap := wire.SnapshotConfig(explainer.Config())
	id := persist.ExplanationID(spec.String(), snap, block.String())
	var expl *comet.Explanation
	if store != nil {
		if stored, ok := persist.LookupExplanation(store, id); ok {
			if expl, err = stored.Core(); err == nil {
				fmt.Fprintf(os.Stderr, "comet: explanation served from store %s\n", *storeDir)
			}
		}
	}
	if expl == nil {
		if expl, err = explainer.ExplainContext(ctx, block); err != nil {
			fatal(err)
		}
		if store != nil {
			start := time.Now()
			putExplanation(store, id, spec.String(), snap, wire.FromExplanation(expl))
			expl.Profile.Store = time.Since(start)
			expl.Profile.Total += expl.Profile.Store
		}
	}

	if *jsonOut {
		// The same wire format comet-serve's POST /v1/explain returns, so
		// CLI and API outputs are interchangeable. The profile rides along
		// only on request, exactly like the server's ?profile=1.
		we := wire.FromExplanation(expl)
		if *profile {
			we.Profile = wire.FromProfile(expl.Profile)
		}
		enc := json.NewEncoder(os.Stdout)
		if err := enc.Encode(we); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("block (%d instructions):\n%s\n\n", block.Len(), indent(block.String()))
	fmt.Printf("model:       %s (%v, spec %s)\n", model.Name(), model.Arch(), spec)
	fmt.Printf("prediction:  %.2f cycles/iteration\n", expl.Prediction)
	fmt.Printf("explanation: %s\n", expl.Features)
	fmt.Printf("precision:   %.2f (threshold %.2f, certified=%v)\n", expl.Precision, cfg.PrecisionThreshold, expl.Certified)
	fmt.Printf("coverage:    %.2f\n", expl.Coverage)
	fmt.Printf("queries:     %d (%d cache hits, %d model evaluations)\n",
		expl.Queries, expl.CacheHits, expl.ModelCalls)

	if *profile {
		printProfile(expl.Profile)
	}

	if *report {
		rep, err := comet.AnalyzeBlock(model.Arch(), block)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("\npipeline report (hardware-grade simulator):\n%s", rep)
	}
}

// putExplanation persists a freshly computed explanation. A failed write
// costs only the reuse, so it is reported and the run goes on.
func putExplanation(store *persist.Log, id wire.ContentID, spec string, snap wire.ConfigSnapshot, e *wire.Explanation) {
	if err := persist.PutExplanation(store, id, spec, snap, e); err != nil {
		fmt.Fprintf(os.Stderr, "\ncomet: store: %v\n", err)
	}
}

// printProfile renders the per-stage wall-time breakdown for -profile.
// An explanation served from the durable store carries no profile — the
// work it would measure never happened.
func printProfile(p *core.Profile) {
	if p == nil {
		fmt.Println("\nprofile:     (served from store; no computation to profile)")
		return
	}
	pct := func(d time.Duration) float64 {
		if p.Total <= 0 {
			return 0
		}
		return 100 * float64(d) / float64(p.Total)
	}
	fmt.Printf("\nprofile (total %v):\n", p.Total.Round(time.Microsecond))
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintf(w, "  setup\t%v\t%.1f%%\tperturbation space + legality tables\n", p.Setup.Round(time.Microsecond), pct(p.Setup))
	fmt.Fprintf(w, "  coverage\t%v\t%.1f%%\tΓ(∅) coverage pool\n", p.Coverage.Round(time.Microsecond), pct(p.Coverage))
	fmt.Fprintf(w, "  search\t%v\t%.1f%%\tanchors beam search (incl. model + precision)\n", p.Search.Round(time.Microsecond), pct(p.Search))
	fmt.Fprintf(w, "  model\t%v\t%.1f%%\tcost-model batches (%d calls in %d batches)\n", p.Model.Round(time.Microsecond), pct(p.Model), p.ModelCalls, p.Batches)
	fmt.Fprintf(w, "  precision\t%v\t%.1f%%\tKL-LUCB sampling rounds\n", p.Precision.Round(time.Microsecond), pct(p.Precision))
	fmt.Fprintf(w, "  store\t%v\t%.1f%%\tartifact-store write\n", p.Store.Round(time.Microsecond), pct(p.Store))
	w.Flush()
}

// printModels renders the registry for -list-models.
func printModels() {
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NAME\tALIASES\tDEFAULT SPEC\tε\tPARAMETERS\tDESCRIPTION")
	for _, def := range comet.RegisteredModels() {
		defaults := def.ParamDefaults()
		params := make([]string, len(defaults))
		for i, p := range defaults {
			params[i] = p.Key + "=" + p.Value
		}
		eps := "0.5"
		if def.Epsilon > 0 {
			eps = fmt.Sprintf("%g", def.Epsilon)
		}
		fmt.Fprintf(w, "%s\t%s\t%s\t%s\t%s\t%s\n",
			def.Name, strings.Join(def.Aliases, ","), def.DefaultSpec(), eps,
			strings.Join(params, "&"), def.Description)
	}
	w.Flush()
}

// corpusRun is one -corpus invocation. Local and -cluster runs share
// every step but one: load the corpus; with a store, emit every block
// it already holds; compute the rest — in-process through ExplainAll,
// or leased to comet-serve workers — emitting and persisting each fresh
// result; print one summary. Per-block seeds depend only on the block
// index, so a resumed run's output is identical to an uninterrupted
// one, whichever way its blocks were computed.
//
// Output is one line per block as results stream in — human-readable,
// or with jsonOut one comet-serve wire CorpusResult object per line
// (the same schema GET /v1/jobs/{id} pages through) — then a throughput
// and cache summary (on stderr in JSON mode, so stdout stays
// machine-readable).
type corpusRun struct {
	spec    string // canonical model spec: the store keys' model identity
	cfg     comet.Config
	model   comet.CostModel // the local engine's model (nil with cluster)
	cluster *clusterTarget  // non-nil with -cluster
	store   *persist.Log    // nil without -store
	workers int
	jsonOut bool

	enc                                     *json.Encoder
	queries, hits, calls, failed, certified int
}

func (r *corpusRun) explain(corpusSpec string) error {
	blocks, err := loadCorpus(corpusSpec)
	if err != nil {
		return err
	}
	r.enc = json.NewEncoder(os.Stdout)
	snap := wire.SnapshotConfig(core.ApplyOptions(r.cfg))
	texts := make([]string, len(blocks))
	for i, b := range blocks {
		texts[i] = b.String()
	}

	start := time.Now()
	skip := make([]bool, len(blocks))
	ids := make([]wire.ContentID, len(blocks))
	snaps := make([]wire.ConfigSnapshot, len(blocks))
	fromStore := 0
	if r.store != nil {
		for i := range blocks {
			ids[i], snaps[i] = persist.BlockExplanationID(r.spec, snap, i, texts[i])
			stored, ok := persist.LookupExplanation(r.store, ids[i])
			if !ok {
				continue
			}
			skip[i] = true
			fromStore++
			if err := r.emit(wire.CorpusResult{Index: i, Block: texts[i], Explanation: stored}); err != nil {
				return err
			}
		}
		if fromStore > 0 {
			fmt.Fprintf(os.Stderr, "comet: resuming: %d/%d blocks already in the store\n", fromStore, len(blocks))
		}
	}

	done := fromStore
	delivered := append([]bool(nil), skip...)
	fresh := func(res wire.CorpusResult) error {
		done++
		delivered[res.Index] = true
		fmt.Fprintf(os.Stderr, "\r%d/%d blocks", done, len(blocks))
		if r.store != nil && res.Error == "" {
			putExplanation(r.store, ids[res.Index], r.spec, snaps[res.Index], res.Explanation)
		}
		return r.emit(res)
	}
	skipped := func(i int) bool { return skip[i] }
	if r.cluster != nil {
		err = r.cluster.run(r.spec, snap, texts, skipped, r.workers, fresh)
	} else {
		for res := range comet.NewExplainer(r.model, r.cfg).ExplainAll(blocks, comet.CorpusOptions{Workers: r.workers, Skip: skipped}) {
			if err = fresh(wire.FromCorpusResult(res)); err != nil {
				break
			}
		}
	}
	elapsed := time.Since(start)
	if err != nil {
		if !errors.Is(err, cluster.ErrLeasesAbandoned) {
			return err
		}
		// Abandoned blocks were never computed (the CLI has no local
		// engine to fall back on — rerun, or rerun with -store to keep
		// the finished work); count them as failures.
		for i := range blocks {
			if !delivered[i] {
				r.failed++
				fmt.Fprintf(os.Stderr, "\ncomet: block %d: %v\n", i, err)
			}
		}
	}

	fmt.Fprintln(os.Stderr)
	summary := os.Stdout
	if r.jsonOut {
		summary = os.Stderr
	}
	across := ""
	if r.cluster != nil {
		across = fmt.Sprintf(" across %d workers", len(r.cluster.urls))
	}
	fmt.Fprintf(summary, "\ncorpus: %d blocks (%d certified, %d failed) in %v (%.1f blocks/s)%s\n",
		len(blocks), r.certified, r.failed, elapsed.Round(time.Millisecond),
		float64(len(blocks))/elapsed.Seconds(), across)
	if r.cluster != nil {
		st := r.cluster.coord.Stats()
		fmt.Fprintf(summary, "cluster: %d leases dispatched, %d re-leased, %d straggler re-dispatches\n",
			st.LeasesDispatched.Load(), st.LeasesReleased.Load(), st.StragglerDispatches.Load())
	}
	hitRate := 0.0
	if r.queries > 0 {
		hitRate = float64(r.hits) / float64(r.queries)
	}
	fmt.Fprintf(summary, "queries: %d total, %d cache/dedup hits (%.1f%%), %d model evaluations\n",
		r.queries, r.hits, 100*hitRate, r.calls)
	if r.store != nil {
		fmt.Fprintf(summary, "store:   %d blocks served from disk, %d computed and persisted\n",
			fromStore, len(blocks)-fromStore-r.failed)
	}
	if r.failed > 0 {
		return fmt.Errorf("%d of %d blocks failed", r.failed, len(blocks))
	}
	return nil
}

// emit prints one block's result and adds it to the run's totals.
func (r *corpusRun) emit(res wire.CorpusResult) error {
	if r.jsonOut {
		if err := r.enc.Encode(res); err != nil {
			return err
		}
	}
	if res.Error != "" {
		r.failed++
		fmt.Fprintf(os.Stderr, "\ncomet: %s\n", res.Error)
		return nil
	}
	expl := res.Explanation
	r.queries += expl.Queries
	r.hits += expl.CacheHits
	r.calls += expl.ModelCalls
	if expl.Certified {
		r.certified++
	}
	if !r.jsonOut {
		lib, err := expl.Core()
		if err != nil {
			return err
		}
		fmt.Printf("[%4d] %s\n", res.Index, lib)
	}
	return nil
}

// clusterTarget is where a -cluster run computes its blocks: comet-serve
// workers driven by the cluster coordinator — the same lease scheduler
// cometd's coordinator mode runs. Workers seed each block from its corpus
// index, so results are byte-identical to a local run at the same seed.
type clusterTarget struct {
	urls  []string
	coord *cluster.Coordinator
}

func newClusterTarget(workerURLs string, leaseBlocks int) (*clusterTarget, error) {
	var urls []string
	for _, u := range strings.Split(workerURLs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, u)
		}
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("-cluster lists no worker URLs")
	}
	log, err := obs.NewLogger(os.Stderr, "text", "info")
	if err != nil {
		return nil, err
	}
	coord := cluster.New(cluster.NewPool(urls, cluster.Options{}), cluster.Options{
		LeaseBlocks: leaseBlocks,
		Log:         obs.Component(log, "cluster"),
	})
	return &clusterTarget{urls: urls, coord: coord}, nil
}

// run leases every block skip does not report and hands each result to
// emit. Blocks whose leases were abandoned are never delivered; the
// error then wraps cluster.ErrLeasesAbandoned.
func (c *clusterTarget) run(spec string, snap wire.ConfigSnapshot, texts []string, skip func(int) bool,
	workers int, emit func(wire.CorpusResult) error) error {
	var emitErr error
	err := c.coord.Run(context.Background(), cluster.Job{
		ID:      "cli",
		Spec:    spec,
		Config:  snap,
		Blocks:  texts,
		Skip:    skip,
		Workers: workers,
	}, func(res cluster.Result) {
		if emitErr == nil {
			emitErr = emit(res.CorpusResult)
		}
	})
	if emitErr != nil {
		return emitErr
	}
	if err != nil {
		return fmt.Errorf("cluster run: %w", err)
	}
	return nil
}

// loadCorpus reads a corpus: "gen:N" generates N synthetic BHive-like
// blocks; "elf:PATH" extracts basic blocks from an ELF binary; "-"
// reads a "---"-separated corpus from stdin; anything else is a file of
// Intel-syntax blocks separated by lines containing only "---".
func loadCorpus(spec string) ([]*comet.BasicBlock, error) {
	switch {
	case strings.HasPrefix(spec, "gen:"):
		n := 0
		if _, err := fmt.Sscanf(spec, "gen:%d", &n); err != nil || n <= 0 {
			return nil, fmt.Errorf("bad corpus spec %q (want gen:N)", spec)
		}
		return comet.GenerateBlocks(n, 1), nil
	case strings.HasPrefix(spec, "elf:"):
		return loadELFCorpus(strings.TrimPrefix(spec, "elf:"))
	case spec == "-":
		data, err := io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return parseCorpusText(string(data), "stdin")
	}
	data, err := os.ReadFile(spec)
	if err != nil {
		return nil, err
	}
	return parseCorpusText(string(data), spec)
}

// loadELFCorpus extracts the deduplicated basic-block corpus of an ELF
// binary, logging ingest accounting to stderr. Extraction is
// deterministic, so -store/-resume keys stay stable across runs and
// match server-side ingestion of the same binary.
func loadELFCorpus(path string) ([]*comet.BasicBlock, error) {
	res, err := ingest.ExtractFile(path, ingest.Options{})
	if err != nil {
		return nil, err
	}
	if len(res.Blocks) == 0 {
		return nil, fmt.Errorf("elf:%s contains no supported basic blocks (%s)", path, res.Stats)
	}
	fmt.Fprintf(os.Stderr, "comet: ingested %s: %s\n", path, res.Stats)
	blocks := make([]*comet.BasicBlock, len(res.Blocks))
	for i, b := range res.Blocks {
		blocks[i] = b.Block
	}
	return blocks, nil
}

// parseCorpusText parses corpus text: Intel-syntax blocks separated by
// lines containing only "---" (exactly).
func parseCorpusText(data, name string) ([]*comet.BasicBlock, error) {
	var blocks []*comet.BasicBlock
	var chunk []string
	flush := func() error {
		src := strings.TrimSpace(strings.Join(chunk, "\n"))
		chunk = chunk[:0]
		if src == "" {
			return nil
		}
		b, err := comet.ParseBlock(src)
		if err != nil {
			return fmt.Errorf("corpus block %d: %w", len(blocks), err)
		}
		blocks = append(blocks, b)
		return nil
	}
	for _, line := range strings.Split(data, "\n") {
		if strings.TrimSpace(line) == "---" {
			if err := flush(); err != nil {
				return nil, err
			}
			continue
		}
		chunk = append(chunk, line)
	}
	if err := flush(); err != nil {
		return nil, err
	}
	if len(blocks) == 0 {
		return nil, fmt.Errorf("corpus %s contains no blocks", name)
	}
	return blocks, nil
}

func readInput(path string) (string, error) {
	if path == "" {
		data, err := io.ReadAll(os.Stdin)
		return string(data), err
	}
	data, err := os.ReadFile(path)
	return string(data), err
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(s, "\n", "\n    ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "comet:", err)
	os.Exit(1)
}
