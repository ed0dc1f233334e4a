package main

import (
	"math/rand"
	"time"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// Layer replays: outside the timed region, the traced run calls each
// layer's public functions on the workload's own blocks and explanations
// and reports cost per call. Together with the counts the run reported
// (draws, queries and model calls per explanation) they locate where an
// explanation's time goes.

const (
	replayBlocks = 32  // blocks replayed per workload
	replayDraws  = 200 // Γ draws per replayed block
	replayCodec  = 20  // encode/decode repetitions per explanation
)

// measure runs fn once and reports its wall time and heap allocations.
func measure(fn func()) (time.Duration, uint64, uint64) {
	o0, b0 := allocCounter()
	start := time.Now()
	fn()
	el := time.Since(start)
	o1, b1 := allocCounter()
	return el, o1 - o0, b1 - b0
}

// replayEngine measures Γ draws (perturb), dependency graphs (deps),
// feature containment (features), cache keys and lookups (costmodel) and
// model allocations on up to replayBlocks of the workload's blocks.
//
// It returns the mean number of candidate features per replayed block.
func replayEngine(m metrics, blocks []*x86.BasicBlock, model costmodel.BatchModel, cfg core.Config, seed int64) (float64, error) {
	if len(blocks) > replayBlocks {
		blocks = blocks[:replayBlocks]
	}
	var sampleT, graphT, containT, keyT, getT time.Duration
	var sampleA, graphA, keyB, modelA uint64
	var draws, checks, gets, modelBlocks int
	rng := rand.New(rand.NewSource(subSeed(seed, 40)))
	for _, b := range blocks {
		p, err := perturb.New(b, cfg.Perturb)
		if err != nil {
			return 0, err
		}
		res := make([]perturb.Result, replayDraws)
		el, objs, _ := measure(func() {
			for i := range res {
				res[i] = p.Sample(rng, nil)
			}
		})
		sampleT += el
		sampleA += objs
		draws += len(res)

		graphs := make([]*deps.Graph, len(res))
		el, objs, _ = measure(func() {
			for i, r := range res {
				graphs[i], err = r.Graph(cfg.Perturb.DepOptions)
				if err != nil {
					return
				}
			}
		})
		if err != nil {
			return 0, err
		}
		graphT += el
		graphA += objs

		var singles []features.Set
		for _, f := range p.Features() {
			singles = append(singles, features.Set{f})
		}
		el, _, _ = measure(func() {
			for i, r := range res {
				for _, s := range singles {
					s.SetContainedIn(r.Block, graphs[i], r.Mapping)
				}
			}
		})
		containT += el
		checks += len(res) * len(singles)

		keys := make([]string, len(res))
		el, _, bytes := measure(func() {
			for i, r := range res {
				keys[i] = costmodel.BlockKey(r.Block)
			}
		})
		keyT += el
		keyB += bytes

		cache := costmodel.NewCache(0)
		for i := 0; i < len(keys); i += 2 {
			cache.Put(keys[i], float64(i))
		}
		el, _, _ = measure(func() {
			for _, k := range keys {
				cache.Get(k)
			}
		})
		getT += el
		gets += len(keys)

		perturbed := make([]*x86.BasicBlock, len(res))
		for i, r := range res {
			perturbed[i] = r.Block
		}
		_, objs, _ = measure(func() {
			for i := 0; i < len(perturbed); i += cfg.BatchSize {
				end := min(i+cfg.BatchSize, len(perturbed))
				model.PredictBatch(perturbed[i:end])
			}
		})
		modelA += objs
		modelBlocks += len(perturbed)
	}
	m.set("perturb.sample_ns", "ns", perNs(sampleT, draws))
	m.set("perturb.sample_allocs", "count", float64(sampleA)/float64(draws))
	m.set("deps.graph_ns", "ns", perNs(graphT, draws))
	m.set("deps.graph_allocs", "count", float64(graphA)/float64(draws))
	m.set("features.contain_ns", "ns", perNs(containT, checks))
	m.set("costmodel.key_ns", "ns", perNs(keyT, draws))
	m.set("costmodel.key_bytes", "B", float64(keyB)/float64(draws))
	m.set("costmodel.get_ns", "ns", perNs(getT, gets))
	m.set("model.allocs_per_block", "count", float64(modelA)/float64(modelBlocks))
	return float64(checks) / float64(draws), nil
}

// noteScaled scales the replayed per-call costs by the counts the run
// reported per explanation and notes each layer's estimated share of the
// mean explanation time: every draw samples Γ, every coverage-pool draw
// builds a dependency graph and checks every feature, every query renders
// a cache key and looks it up, every model call evaluates one block.
func noteScaled(out *outcome, coverageSamples int, features, meanExplNs float64) {
	m := out.metrics
	perExpl := []struct {
		layer string
		ns    float64
	}{
		{"perturb (Γ draws)", m["perturb.sample_ns"].Value * m["perturb.draws_per_expl"].Value},
		{"deps (graphs)", m["deps.graph_ns"].Value * float64(coverageSamples)},
		{"features (containment)", m["features.contain_ns"].Value * features * float64(coverageSamples)},
		{"costmodel (keys)", m["costmodel.key_ns"].Value * m["core.queries_per_expl"].Value},
		{"costmodel (lookups)", m["costmodel.get_ns"].Value * m["core.queries_per_expl"].Value},
		{"model (evaluations)", m["model.ns_per_block"].Value * m["core.model_calls_per_expl"].Value},
	}
	out.notef("replayed per-call costs x per-explanation counts, against the mean explanation (%.1f ms):", meanExplNs/1e6)
	for _, p := range perExpl {
		out.notef("  %-24s %10.2f ms  %5.1f%%", p.layer, p.ns/1e6, 100*p.ns/meanExplNs)
	}
}

// replayWire measures the binary codec on the workload's explanations.
func replayWire(m metrics, expls []*wire.Explanation) error {
	var encT, decT time.Duration
	var bytes, n int
	for _, e := range expls {
		var frame []byte
		var err error
		el, _, _ := measure(func() {
			for i := 0; i < replayCodec && err == nil; i++ {
				frame, err = wire.EncodeBinary(e)
			}
		})
		if err != nil {
			return err
		}
		encT += el
		el, _, _ = measure(func() {
			for i := 0; i < replayCodec && err == nil; i++ {
				_, err = wire.DecodeBinary(frame)
			}
		})
		if err != nil {
			return err
		}
		decT += el
		bytes += len(frame)
		n++
	}
	m.set("wire.encode_ns", "ns", perNs(encT, n*replayCodec))
	m.set("wire.decode_ns", "ns", perNs(decT, n*replayCodec))
	m.set("wire.bytes_per_resp", "B", float64(bytes)/float64(max(n, 1)))
	return nil
}

// perNs is d divided over n operations, in nanoseconds.
func perNs(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(n)
}
