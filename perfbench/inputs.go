package main

import (
	"math/rand"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/x86"
)

// subSeed derives an independent, reproducible seed for one named input
// stream of a run (core.BlockSeed is a splitmix64 mix).
func subSeed(seed int64, stream int) int64 { return core.BlockSeed(seed, stream) }

// stratifiedBlocks generates n distinct bhive blocks whose sizes cycle
// evenly through [minInstrs, maxInstrs] in a seeded order, so every prefix
// of the list has the same size mix. Category and source follow the
// generator's BHive-like population. Blocks already in exclude are
// skipped, and every block returned is added to it.
func stratifiedBlocks(n, minInstrs, maxInstrs int, seed int64, exclude map[string]bool) []*x86.BasicBlock {
	sizes := maxInstrs - minInstrs + 1
	perSize := n/sizes + 1
	bySize := make([][]*x86.BasicBlock, sizes)
	for s := 0; s < sizes; s++ {
		size := minInstrs + s
		// Over-generate so that dropping duplicates still leaves perSize.
		for round := 0; len(bySize[s]) < perSize; round++ {
			ds := bhive.Generate(bhive.Config{
				N: 2 * perSize, MinInstrs: size, MaxInstrs: size,
				Seed: subSeed(seed, 100*s+round+1), SkipLabels: true,
			})
			for _, d := range ds {
				key := d.Block.String()
				if exclude[key] || len(bySize[s]) == perSize {
					continue
				}
				exclude[key] = true
				bySize[s] = append(bySize[s], d.Block)
			}
		}
	}
	rng := rand.New(rand.NewSource(subSeed(seed, 0)))
	out := make([]*x86.BasicBlock, 0, n)
	for i := 0; len(out) < n; i++ {
		for _, s := range rng.Perm(sizes) {
			if len(out) < n {
				out = append(out, bySize[s][i])
			}
		}
	}
	return out
}

// corpusDataSeed fixes the corpus-analytical block population: like the
// paper's test set, the corpus is one fixed, seeded bhive draw of 4–10
// instruction blocks. A run's seed is the explainer's base seed, from
// which every block's explanation seed is derived as ExplainAll derives
// it (core.BlockSeed(seed, index)), so each seed samples different
// perturbations and queries over the same blocks.
const corpusDataSeed = 1

// corpusInputs is the corpus-analytical input: the blocks explained, in
// order.
func corpusInputs(n int) []*x86.BasicBlock {
	ds := bhive.Generate(bhive.Config{N: n, MinInstrs: 4, MaxInstrs: 10, Seed: corpusDataSeed, SkipLabels: true})
	blocks := make([]*x86.BasicBlock, len(ds))
	for i, d := range ds {
		blocks[i] = d.Block
	}
	return blocks
}

// serveRequest is one /v1/explain call of the serve-mixed sequence.
type serveRequest struct {
	block  *x86.BasicBlock
	seed   int64 // explanation seed sent in the request's config
	hot    int   // index into the hot set, or -1 for a fresh block
	binary bool  // binary frame codec (else JSON)
}

// serveInputs is the serve-mixed input: a hot set warmed during set-up
// and, per client, a generator of that client's fixed request sequence.
type serveInputs struct {
	hot      []*x86.BasicBlock
	hotSeeds []int64
	fresh    [][]*x86.BasicBlock // per client, never repeated anywhere
	seed     int64
}

const (
	serveHot       = 24   // hot-set size
	serveFreshPool = 2000 // fresh blocks per client (far more than a run uses)
	serveFreshRate = 0.10 // share of requests that carry a fresh block
	serveClients   = 2
)

// serveDataSeed fixes the serve-mixed block population (hot set and
// fresh pools), as corpusDataSeed does for the corpus. A run's seed draws
// the request sequence — which hot block, which codec, when a fresh block
// comes — and every explanation seed the requests carry.
const serveDataSeed = 2

// newServeInputs builds the hot set and the per-client fresh pools (2–4
// instruction blocks, all distinct) and the run's explanation seeds.
func newServeInputs(seed int64) *serveInputs {
	seen := map[string]bool{}
	in := &serveInputs{seed: seed}
	in.hot = stratifiedBlocks(serveHot, 2, 4, subSeed(serveDataSeed, 1), seen)
	for i := range in.hot {
		in.hotSeeds = append(in.hotSeeds, core.BlockSeed(seed, i))
	}
	for c := 0; c < serveClients; c++ {
		in.fresh = append(in.fresh, stratifiedBlocks(serveFreshPool, 2, 4, subSeed(serveDataSeed, 10+c), seen))
	}
	return in
}

// sequence returns client c's request generator. The sequence depends
// only on the run seed and the client: each request is fresh with
// probability serveFreshRate (else a uniformly drawn hot block), and
// binary-framed with probability one half.
func (in *serveInputs) sequence(c int) func() serveRequest {
	rng := rand.New(rand.NewSource(subSeed(in.seed, 20+c)))
	nextFresh := 0
	return func() serveRequest {
		fresh := rng.Float64() < serveFreshRate
		binary := rng.Intn(2) == 0
		if fresh && nextFresh < len(in.fresh[c]) {
			b := in.fresh[c][nextFresh]
			r := serveRequest{block: b, seed: core.BlockSeed(in.seed, 1000*(c+1)+nextFresh), hot: -1, binary: binary}
			nextFresh++
			return r
		}
		h := rng.Intn(len(in.hot))
		return serveRequest{block: in.hot[h], seed: in.hotSeeds[h], hot: h, binary: binary}
	}
}
