package core

// Corpus-scale explanation: the paper's evaluation (and any production
// deployment) explains whole BHive-style corpora, not single blocks.
// ExplainAll drives a worker pool over the corpus with deterministic
// per-block seeding, streaming results as they complete. All workers share
// the explainer's prediction cache, if its model has one, so perturbation
// collisions are amortized across the entire run.

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"

	"github.com/comet-explain/comet/internal/x86"
)

// CorpusOptions configures ExplainAll.
type CorpusOptions struct {
	// Workers is the number of blocks explained concurrently
	// (0 = GOMAXPROCS). With more than one worker each block samples,
	// and queries a plain model, on its own goroutine, whatever
	// Config.Parallelism says; with one, the block runs at
	// Config.Parallelism. Neither changes a result.
	Workers int
	// Context, if non-nil, cancels the run: blocks not yet started are
	// skipped (in-flight blocks finish and are still delivered), and the
	// result channel closes early. Blocks that were skipped produce no
	// CorpusResult at all, so a canceled run delivers fewer results than
	// len(blocks).
	Context context.Context
	// Skip, if non-nil, reports corpus indices to omit entirely — they
	// are never fed to a worker and produce no CorpusResult. Resumed
	// runs pass the set of already-persisted blocks here: because every
	// block's seed is BlockSeed(cfg.Seed, index) regardless of which
	// blocks run, the skipped-and-restored union is identical to an
	// uninterrupted run. Skip must be safe for concurrent calls.
	Skip func(index int) bool
	// Index, if non-nil, maps a slice position to the block's corpus
	// index (default: the position itself). The corpus index names the
	// block everywhere: its seed is BlockSeed(cfg.Seed, Index(i)), and
	// CorpusResult.Index and per-block error messages carry it. A cluster
	// worker explaining a slice of someone else's corpus passes the
	// leased indices here, so its results are byte-identical to the
	// whole-corpus run's. Index must be safe for concurrent calls.
	Index func(index int) int
}

// CorpusResult is one streamed ExplainAll outcome. Results arrive in
// completion order; Index identifies the input block.
type CorpusResult struct {
	Index       int
	Block       *x86.BasicBlock
	Explanation *Explanation
	Err         error
}

// BlockSeed derives the seed of stream index under base: the index+1'th
// output of a splitmix64 generator seeded with base, so streams are
// decorrelated but reproducible. ExplainAll explains corpus block i under
// BlockSeed(cfg.Seed, i), and the samplers draw Γ sample i of a round
// under BlockSeed(round base, i). Explaining a single block with
// cfg.Seed = BlockSeed(base, i) therefore yields the identical
// explanation to ExplainAll's block i under cfg.Seed = base, at any
// Parallelism and any worker count.
func BlockSeed(base int64, index int) int64 {
	return int64(mix64(uint64(base) + (uint64(index)+1)*splitMixGamma))
}

// splitMixGamma is splitmix64's state increment.
const splitMixGamma = 0x9E3779B97F4A7C15

// mix64 is splitmix64's output function.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// splitMix is a splitmix64 rand.Source64. Seeding is one store, so the
// samplers reseed it for every Γ draw.
type splitMix struct{ state uint64 }

func (m *splitMix) Seed(seed int64) { m.state = uint64(seed) }

func (m *splitMix) Uint64() uint64 {
	m.state += splitMixGamma
	return mix64(m.state)
}

func (m *splitMix) Int63() int64 { return int64(m.Uint64() >> 1) }

// ExplainAll explains every block of a corpus through a worker pool and
// streams the results in completion order. The channel closes after the
// last result; failures surface per block in CorpusResult.Err and never
// abort the run. The channel has one slot per corpus block, so the run
// always drains to completion and its goroutines exit even if the
// consumer stops receiving early.
func (e *Explainer) ExplainAll(blocks []*x86.BasicBlock, opts CorpusOptions) <-chan CorpusResult {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(blocks) {
		workers = len(blocks)
	}
	if workers < 1 {
		workers = 1
	}
	out := make(chan CorpusResult, len(blocks))
	work := make(chan int)

	// With several blocks in flight, per-block sampling parallelism is
	// pure oversubscription.
	base := e.cfg
	if workers > 1 {
		base.Parallelism = 1
	}

	index := func(i int) int { return i }
	if opts.Index != nil {
		index = opts.Index
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				idx := index(i)
				cfg := base
				cfg.Seed = BlockSeed(base.Seed, idx)
				expl, err := e.explainWith(context.Background(), blocks[i], cfg)
				if err != nil {
					err = fmt.Errorf("block %d: %w", idx, err)
				}
				out <- CorpusResult{Index: idx, Block: blocks[i], Explanation: expl, Err: err}
			}
		}()
	}
	// Feeder: stops handing out blocks once the context is canceled.
	go func() {
		defer close(work)
		var done <-chan struct{}
		if opts.Context != nil {
			done = opts.Context.Done()
		}
		for i := range blocks {
			if opts.Skip != nil && opts.Skip(index(i)) {
				continue
			}
			select {
			case work <- i:
			case <-done:
				return
			}
		}
	}()
	// The channel closes once every started block has been delivered, so
	// a canceled run still terminates cleanly.
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// ExplainCorpus is the collecting convenience over ExplainAll: it returns
// explanations in input order and the first per-block error encountered
// (lowest index wins), with every block still attempted.
func (e *Explainer) ExplainCorpus(blocks []*x86.BasicBlock, opts CorpusOptions) ([]*Explanation, error) {
	expls := make([]*Explanation, len(blocks))
	var errs []CorpusResult
	for res := range e.ExplainAll(blocks, opts) {
		expls[res.Index] = res.Explanation
		if res.Err != nil {
			errs = append(errs, res)
		}
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(i, j int) bool { return errs[i].Index < errs[j].Index })
		return expls, errs[0].Err
	}
	return expls, nil
}
