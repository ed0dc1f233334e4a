package core

// Corpus-scale explanation: the paper's evaluation (and any production
// deployment) explains whole BHive-style corpora, not single blocks.
// ExplainAll drives a worker pool over the corpus with deterministic
// per-block seeding, streaming results as they complete. All workers share
// the explainer's prediction cache, so perturbation collisions are
// amortized across the entire run.

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
	// (0 = GOMAXPROCS). When Config.Parallelism was left unset, corpus
	// blocks sample single-threaded and block-level workers saturate the
	// machine; an explicitly set Parallelism is honored per block (and
	// multiplies with Workers — watch for oversubscription).
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
	// Seeds, if non-nil, overrides the per-block seed: block index i runs
	// under Seeds(i) instead of BlockSeed(cfg.Seed, i). This is the
	// shard-slicing hook — a cluster worker explaining a slice of someone
	// else's corpus passes the original per-block seeds here, so its
	// results are byte-identical to the whole-corpus run that would have
	// produced them. Seeds must be safe for concurrent calls.
	Seeds func(index int) int64
	// Index, if non-nil, remaps local slice positions to the indices
	// results should carry — CorpusResult.Index and per-block error
	// messages both use the remapped value, so a shard slice's outputs
	// are indistinguishable from the whole-corpus run's. Index must be
	// safe for concurrent calls.
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

// BlockSeed derives the deterministic seed ExplainAll uses for corpus
// block index (a splitmix64 mix of the base seed, so per-block rngs are
// decorrelated but reproducible). Explaining a single block with
// cfg.Seed = BlockSeed(base, i) yields the identical explanation to
// ExplainAll's block i under cfg.Seed = base, provided cfg.Parallelism
// matches the corpus run's per-block sampling parallelism (set it
// explicitly — sampling is deterministic per worker count).
func BlockSeed(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

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
	// pure oversubscription — drop it to one goroutine per block unless
	// the caller pinned Parallelism explicitly.
	pe := e
	if e.autoParallel && workers > 1 {
		derived := *e
		derived.cfg.Parallelism = 1
		pe = &derived
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				seed := BlockSeed(e.cfg.Seed, i)
				if opts.Seeds != nil {
					seed = opts.Seeds(i)
				}
				idx := i
				if opts.Index != nil {
					idx = opts.Index(i)
				}
				expl, err := pe.explainSeeded(blocks[i], seed)
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
			if opts.Skip != nil && opts.Skip(i) {
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
