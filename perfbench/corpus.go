package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	comet "github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

const (
	corpusSize    = 2000 // more blocks than a run can explain
	corpusWorkers = 2    // block workers (= nproc on the reference box)
	qualityPrefix = 160  // quality guards cover at most this many leading blocks
	heldoutSample = 48   // certified anchors re-checked on fresh draws
	heldoutDraws  = 200  // fresh Γ draws per held-out precision estimate
	checkSample   = 3    // blocks recomputed through the independent path
	// Set-ups per run; setup_s is their median. A corpus set-up takes
	// milliseconds, so many repeats cost nothing and steady the median.
	corpusSetups   = 25
	corpusSpecName = "c@hsw"
)

// corpusState is one set-up of the corpus workload: the seeded corpus, the
// resolved model and a fresh explainer (with its own prediction cache).
type corpusState struct {
	blocks    []*x86.BasicBlock
	model     costmodel.Model
	cfg       core.Config
	explainer *core.Explainer
}

func setupCorpus(seed int64) (*corpusState, error) {
	blocks := corpusInputs(corpusSize)
	rm, err := comet.ResolveModelString(corpusSpecName)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Epsilon = rm.Epsilon
	cfg.Parallelism = 1
	cfg.Seed = seed
	cfg.CacheSize = cacheEntries
	return &corpusState{blocks: blocks, model: rm.Model, cfg: cfg,
		explainer: core.NewExplainer(rm.Model, cfg)}, nil
}

// explainRun is what one pass over the corpus produced.
type explainRun struct {
	byIndex map[int]*core.Explanation
	wall    map[int]time.Duration // each explanation's call, timed by the driver
	order   []int                 // indices in completion order
	failed  int
	errs    []string
	ref     hostRef // one reference unit after each explanation
}

// add records one result.
func (r *explainRun) add(idx int, e *core.Explanation, wall time.Duration, err error) {
	if err != nil {
		r.failed++
		r.errs = append(r.errs, err.Error())
		return
	}
	r.byIndex[idx] = e
	r.wall[idx] = wall
	r.order = append(r.order, idx)
}

// explainFunc explains corpus block idx under the given seed option.
type explainFunc func(idx int, seed core.ExplainOption) (*core.Explanation, error)

// explainBlocks explains the listed corpus indices the way ExplainAll
// does, on corpusWorkers goroutines with each block's ExplainAll seed
// (core.BlockSeed(base, index)), but times every call itself. Indices not
// started by the deadline are skipped (a zero deadline runs them all);
// calls already started finish and are counted. After each call the
// worker times one host reference unit.
func explainBlocks(st *corpusState, indices []int, deadline time.Time, explain explainFunc) *explainRun {
	run := &explainRun{byIndex: map[int]*core.Explanation{}, wall: map[int]time.Duration{}}
	var mu sync.Mutex
	_ = parallel(len(indices), corpusWorkers, func(k int) error {
		if !deadline.IsZero() && time.Now().After(deadline) {
			return nil
		}
		idx := indices[k]
		start := time.Now()
		e, err := explain(idx, core.WithSeed(core.BlockSeed(st.cfg.Seed, idx)))
		wall := time.Since(start)
		run.ref.sample()
		mu.Lock()
		run.add(idx, e, wall, err)
		mu.Unlock()
		return nil
	})
	return run
}

// explainCorpus runs the untraced pass over the corpus, in corpus order,
// with the set-up's explainer and its prediction cache.
func explainCorpus(st *corpusState, d time.Duration) *explainRun {
	indices := make([]int, len(st.blocks))
	for i := range indices {
		indices[i] = i
	}
	return explainBlocks(st, indices, time.Now().Add(d), func(idx int, seed core.ExplainOption) (*core.Explanation, error) {
		return st.explainer.ExplainContext(context.Background(), st.blocks[idx], seed)
	})
}

// engineRates are the end-to-end engine figures of a set of explanations.
type engineRates struct {
	queriesPerS float64 // workers × Σ queries / Σ explanation wall time
	p50ms       float64 // median explanation wall time
	totalS      float64 // Σ explanation wall time
}

// rates computes the engine figures over the given indices from the
// driver's timings. Each worker explains one block at a time, so Σ
// queries / Σ explanation wall time is one worker's query rate and the
// worker count scales it to the machine's. Unlike queries over elapsed
// time, it is not diluted by a worker idling at the end of a run while
// the other finishes a long explanation.
func (r *explainRun) rates(indices []int, workers int) engineRates {
	var q int
	var total float64
	ms := make([]float64, 0, len(indices))
	for _, i := range indices {
		t := r.wall[i].Seconds()
		q += r.byIndex[i].Queries
		total += t
		ms = append(ms, t*1e3)
	}
	return engineRates{queriesPerS: float64(workers) * float64(q) / total, p50ms: median(ms), totalS: total}
}

// prefix returns the longest run of leading corpus indices that all
// completed, capped at limit.
func (r *explainRun) prefix(limit int) []int {
	var out []int
	for i := 0; i < limit; i++ {
		if _, ok := r.byIndex[i]; !ok {
			break
		}
		out = append(out, i)
	}
	return out
}

// explanations returns the explanations of the given indices.
func (r *explainRun) explanations(indices []int) []*core.Explanation {
	out := make([]*core.Explanation, 0, len(indices))
	for _, i := range indices {
		out = append(out, r.byIndex[i])
	}
	return out
}

// quality computes the run's quality guards over the leading blocks
// (deterministic at a fixed seed once that many blocks completed).
type quality struct {
	n                int
	certifiedShare   float64
	meanCoverage     float64
	accuracy         float64
	heldoutPrecision float64 // mean held-out precision of re-checked certified anchors
	heldoutMissShare float64 // share of them below 1−δ
	heldoutN         int
}

// certificationStats fills the share of certified explanations and mean
// coverage.
func (q *quality) certificationStats(expls []*core.Explanation) {
	q.n = len(expls)
	for _, e := range expls {
		if e.Certified {
			q.certifiedShare++
		}
		q.meanCoverage += e.Coverage
	}
	q.certifiedShare /= float64(len(expls))
	q.meanCoverage /= float64(len(expls))
}

// heldout re-estimates, on fresh Γ draws, the precision of a seeded sample
// of the certified anchors (Table 3's held-out check): a certificate holds
// when the fresh estimate stays at or above 1−δ.
func (q *quality) heldout(model costmodel.Model, expls []*core.Explanation, cfg core.Config, seed int64) error {
	var certified []*core.Explanation
	for _, e := range expls {
		if e.Certified && len(e.Features) > 0 {
			certified = append(certified, e)
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 50)))
	rng.Shuffle(len(certified), func(i, j int) { certified[i], certified[j] = certified[j], certified[i] })
	if len(certified) > heldoutSample {
		certified = certified[:heldoutSample]
	}
	if len(certified) == 0 {
		return fmt.Errorf("no certified anchors to re-check")
	}
	for _, e := range certified {
		p, err := core.EstimatePrecision(model, e.Block, e.Features, cfg, heldoutDraws, rng)
		if err != nil {
			return err
		}
		q.heldoutPrecision += p
		if p < cfg.PrecisionThreshold {
			q.heldoutMissShare++
		}
	}
	q.heldoutN = len(certified)
	q.heldoutPrecision /= float64(len(certified))
	q.heldoutMissShare /= float64(len(certified))
	return nil
}

// record reports the quality guards as end-to-end metrics.
func (q *quality) record(m metrics) {
	m.set("certified_share", "ratio", q.certifiedShare)
	m.set("mean_coverage", "ratio", q.meanCoverage)
	m.set("accuracy", "ratio", q.accuracy)
	m.set("heldout_precision", "ratio", q.heldoutPrecision)
}

func (q *quality) note() string {
	return fmt.Sprintf("quality over %d explanations; held-out re-check of %d certified anchors: %.1f%% below 1-delta (heldout_miss_share %.4f)",
		q.n, q.heldoutN, 100*q.heldoutMissShare, q.heldoutMissShare)
}

// comparableBytes is an explanation's wire bytes with the cache-accounting
// fields zeroed: cache hits and model calls depend on cache warmth, every
// other byte is a pure function of (model, block, effective config).
func comparableBytes(e *wire.Explanation) ([]byte, error) {
	c := *e
	c.CacheHits, c.ModelCalls, c.Profile = 0, 0, nil
	return wire.EncodeBinary(&c)
}

// checkCorpus recomputes a seeded sample of the leading n blocks with a
// single-block Explain, the prediction cache off and the block's
// ExplainAll seed, and counts explanations whose bytes differ.
func checkCorpus(st *corpusState, run *explainRun, n int, seed int64) (checked, mismatched int, err error) {
	rng := rand.New(rand.NewSource(subSeed(seed, 60)))
	pick := rng.Perm(n)[:min(checkSample, n)]
	same := make([]bool, len(pick))
	errs := make([]error, len(pick))
	var wg sync.WaitGroup
	for k, idx := range pick {
		wg.Add(1)
		go func(k, idx int) {
			defer wg.Done()
			cfg := st.cfg
			cfg.CacheSize = -1
			cfg.Seed = core.BlockSeed(st.cfg.Seed, idx)
			ref, err := core.NewExplainer(st.model, cfg).Explain(st.blocks[idx])
			if err != nil {
				errs[k] = err
				return
			}
			a, err := comparableBytes(wire.FromExplanation(ref))
			if err != nil {
				errs[k] = err
				return
			}
			b, err := comparableBytes(wire.FromExplanation(run.byIndex[idx]))
			errs[k] = err
			same[k] = bytes.Equal(a, b)
		}(k, idx)
	}
	wg.Wait()
	for k := range pick {
		if errs[k] != nil {
			return 0, 0, errs[k]
		}
		if !same[k] {
			mismatched++
		}
	}
	return len(pick), mismatched, nil
}

// checkExplainAll runs ExplainAll with a fresh explainer over the
// leading n blocks and counts explanations whose bytes differ from the
// run's, which shows that the benchmark's driver does the work ExplainAll
// does.
func checkExplainAll(st *corpusState, run *explainRun, n int) (checked, mismatched int, err error) {
	ex := core.NewExplainer(st.model, st.cfg)
	for res := range ex.ExplainAll(st.blocks[:n], core.CorpusOptions{Workers: corpusWorkers}) {
		if res.Err != nil {
			return 0, 0, res.Err
		}
		a, err := comparableBytes(wire.FromExplanation(res.Explanation))
		if err != nil {
			return 0, 0, err
		}
		b, err := comparableBytes(wire.FromExplanation(run.byIndex[res.Index]))
		if err != nil {
			return 0, 0, err
		}
		checked++
		if !bytes.Equal(a, b) {
			mismatched++
		}
	}
	return checked, mismatched, nil
}

// runCorpusAnalytical is the engine-bound workload: the seeded corpus
// explained block by block with the analytical model C at its own ε.
func runCorpusAnalytical(o options) (*outcome, error) {
	st, setupS, err := setupMedian(corpusSetups, func() (*corpusState, error) { return setupCorpus(o.seed) }, func(*corpusState) {})
	if err != nil {
		return nil, err
	}
	if o.trace {
		return traceCorpus(o, st)
	}
	out := newOutcome()
	heap := startHeapSampler()
	start := time.Now()
	run := explainCorpus(st, o.duration())
	elapsed := time.Since(start).Seconds()
	heapMB := heap.finish()
	done := len(run.order)
	out.notef("explained %d blocks in %.1fs (%.2f expl/s, ungated: explanation cost is heavy-tailed)",
		done, elapsed, float64(done)/elapsed)
	out.tally.attempted += done + run.failed
	out.tally.failed += run.failed
	for _, e := range run.errs {
		out.notef("error: %s", e)
	}
	// Rates and quality cover the leading blocks, the same blocks in every
	// run once that many complete, so a run's figures do not depend on
	// which extra blocks it happened to reach.
	lead := run.prefix(qualityPrefix)
	if len(lead) < qualityPrefix {
		out.notef("only %d leading blocks completed; rates and quality cover those", len(lead))
	}
	if len(lead) == 0 {
		return nil, fmt.Errorf("block 0 did not complete")
	}
	r := run.rates(lead, corpusWorkers)
	scale := run.ref.scale()
	out.notes = append(out.notes, run.ref.note())
	out.notef("unscaled: setup_s %.6g, queries_per_s %.6g, req_p50_ms %.6g", setupS, r.queriesPerS, r.p50ms)
	out.metrics.set("setup_s", "s", setupS*scale)
	out.metrics.set("queries_per_s", "1/s", r.queriesPerS/scale)
	out.metrics.set("req_p50_ms", "ms", r.p50ms*scale)
	out.metrics.set("heap_peak_mb", "MiB", heapMB)
	auditStart := time.Now()
	q, err := corpusQuality(st, run.explanations(lead), o.seed)
	if err != nil {
		return nil, err
	}
	auditS := time.Since(auditStart).Seconds()
	q.record(out.metrics)
	out.notes = append(out.notes, q.note())

	checked, mismatched, err := checkCorpus(st, run, len(lead), o.seed)
	if err != nil {
		return nil, err
	}
	allChecked, allMismatched, err := checkExplainAll(st, run, min(checkSample, len(lead)))
	if err != nil {
		return nil, err
	}
	out.tally.attempted += checked + allChecked
	out.tally.mismatched += mismatched + allMismatched
	out.notef("output check: %d of %d single-block recomputes and %d of %d ExplainAll results differ (audit %.1fs, check %.1fs)",
		mismatched, checked, allMismatched, allChecked, auditS, time.Since(auditStart).Seconds()-auditS)
	return out, nil
}

// corpusQuality runs the quality audit: certification and coverage,
// accuracy against the analytical model's closed-form ground truth, and
// the held-out precision re-check.
func corpusQuality(st *corpusState, lead []*core.Explanation, seed int64) (*quality, error) {
	q := &quality{}
	q.certificationStats(lead)
	gtModel, ok := st.model.(*analytical.Model)
	if !ok {
		return nil, fmt.Errorf("%s is not the analytical model", corpusSpecName)
	}
	for _, e := range lead {
		gt, err := gtModel.GroundTruth(e.Block)
		if err != nil {
			return nil, err
		}
		if core.Accurate(e.Features, gt) {
			q.accuracy++
		}
	}
	q.accuracy /= float64(len(lead))
	return q, q.heldout(st.model, lead, st.cfg, seed)
}

// traceCorpus is the traced run. An untraced pass over half the time is
// followed by a traced pass over exactly the blocks it completed, through
// the same driver and under the same cache bound: the same work, so the
// difference in explanation time is the tracing overhead. The traced pass
// opens an obs.Tracer root span per block, so the engine records its stage
// spans, and queries a timing model recording model spans into the same
// trace. Its explanations must equal the untraced pass's.
func traceCorpus(o options, st *corpusState) (*outcome, error) {
	out := newOutcome()
	o0, b0 := allocCounter()
	untraced := explainCorpus(st, o.duration()/2)
	o1, b1 := allocCounter()
	if untraced.failed > 0 {
		return nil, fmt.Errorf("untraced pass: %s", untraced.errs[0])
	}
	indices := untraced.order

	tracer := obs.NewTracer(1<<14, 1)
	spans := newSpanLog()
	stats := &modelStats{}
	tm := &timingModel{inner: costmodel.AsBatch(st.model), stats: stats, spans: spans}
	cache := costmodel.NewCache(cacheEntries)
	cfg := st.cfg
	cfg.CacheSize = -1 // each explainer shares cache rather than allocating its own
	start := time.Now()
	traced := explainBlocks(st, indices, time.Time{}, func(idx int, seed core.ExplainOption) (*core.Explanation, error) {
		ctx, root, tid := tracer.StartRoot(context.Background(), "bench.explain", obs.SpanContext{}, true)
		defer root.End()
		ex := core.NewExplainerWithCache(tm.forTrace(tid.String()), cfg, cache)
		return ex.ExplainContext(ctx, st.blocks[idx], seed)
	})
	elapsed := time.Since(start)
	if traced.failed > 0 {
		return nil, fmt.Errorf("traced pass: %s", traced.errs[0])
	}
	for _, t := range tracer.Ring().Traces(0) {
		spans.addRecords(tracer.Ring().Trace(t.TraceID))
	}

	done := traced.explanations(indices)
	n := float64(len(done))
	before := untraced.rates(indices, corpusWorkers)
	after := traced.rates(indices, corpusWorkers)
	m := out.metrics
	profiles := make([]*wire.Profile, len(done))
	for i, e := range done {
		profiles[i] = wire.FromProfile(e.Profile)
	}
	recordEngine(m, profiles, st.cfg, stats)
	m.set("core.expl_per_s", "1/s", n/elapsed.Seconds())
	m.set("core.allocs_per_expl", "count", float64(o1-o0)/n)
	m.set("core.bytes_per_expl", "B", float64(b1-b0)/n)
	m.set("obs.trace_overhead_share", "ratio", after.totalS/before.totalS-1)
	recordNoService(m)

	out.tally.attempted += 2 * len(indices)
	for _, idx := range indices {
		a, err := comparableBytes(wire.FromExplanation(untraced.byIndex[idx]))
		if err != nil {
			return nil, err
		}
		b, err := comparableBytes(wire.FromExplanation(traced.byIndex[idx]))
		if err != nil {
			return nil, err
		}
		if !bytes.Equal(a, b) {
			out.tally.mismatched++
		}
	}
	out.notef("traced pass: %d explanations, %d differ from the untraced pass", len(done), out.tally.mismatched)

	var blocks []*x86.BasicBlock
	var expls []*wire.Explanation
	for _, e := range done {
		blocks = append(blocks, e.Block)
		expls = append(expls, wire.FromExplanation(e))
	}
	features, err := replayEngine(m, blocks, costmodel.AsBatch(st.model), st.cfg, o.seed)
	if err != nil {
		return nil, err
	}
	noteScaled(out, st.cfg.CoverageSamples, features, 1e9*after.totalS/n)
	if err := replayWire(m, expls); err != nil {
		return nil, err
	}
	if err := replayPersist(m, o, expls); err != nil {
		return nil, err
	}
	return out, out.writeSpans(o, spans)
}

// recordEngine derives the core, anchors, Γ-draw, cost-model and model
// metrics of either workload from the explanations' stage profiles and
// the timing model's counters.
func recordEngine(m metrics, profiles []*wire.Profile, cfg core.Config, stats *modelStats) {
	var q, hits, calls, batches int
	var total, cov, prec, search, model int64
	ms := make([]float64, 0, len(profiles))
	for _, p := range profiles {
		q += p.Queries
		hits += p.CacheHits
		calls += p.ModelCalls
		batches += p.Batches
		total += p.TotalUS
		cov += p.CoverageUS
		prec += p.PrecisionUS
		search += p.SearchUS
		model += p.ModelUS
		ms = append(ms, float64(p.TotalUS)/1e3)
	}
	n := float64(len(profiles))
	m.set("core.queries_per_expl", "count", float64(q)/n)
	m.set("core.model_calls_per_expl", "count", float64(calls)/n)
	m.set("core.cache_hit_share", "ratio", float64(hits)/float64(q))
	m.set("core.batch_fill", "ratio", float64(calls)/float64(max(batches, 1)*cfg.BatchSize))
	m.set("core.expl_p50_ms", "ms", median(ms))
	p90, _, _, _ := tail(ms, 0.9)
	m.set("core.expl_p90_ms", "ms", p90)
	m.set("core.coverage_pool_share", "ratio", float64(cov)/float64(total))
	m.set("core.precision_share", "ratio", float64(prec)/float64(total))
	m.set("anchors.bookkeeping_share", "ratio", float64(search-prec)/float64(total))
	// Every explanation draws the coverage pool plus one Γ draw per query
	// after the unperturbed prediction.
	m.set("perturb.draws_per_expl", "count", float64(cfg.CoverageSamples)+float64(q)/n-1)
	busyUS := float64(stats.busy.Load()) / 1e3
	blocks, nb := stats.blocks.Load(), stats.batches.Load()
	m.set("costmodel.overhead_share", "ratio", (float64(model)-busyUS)/float64(model))
	m.set("model.busy_share", "ratio", busyUS/float64(total))
	m.set("model.ns_per_block", "ns", 1e3*busyUS/float64(max(blocks, 1)))
	m.set("model.blocks_per_batch", "count", float64(blocks)/float64(max(nb, 1)))
}
