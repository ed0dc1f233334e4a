package core

import (
	"testing"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/x86"
)

func corpusBlocks(t testing.TB, n int) []*x86.BasicBlock {
	t.Helper()
	gen := bhive.Generate(bhive.Config{N: n, Seed: 77, SkipLabels: true})
	blocks := make([]*x86.BasicBlock, len(gen))
	for i, g := range gen {
		blocks[i] = g.Block
	}
	return blocks
}

func corpusConfig() Config {
	cfg := DefaultConfig()
	cfg.Epsilon = analytical.Epsilon
	cfg.CoverageSamples = 200
	cfg.Anchor.BatchSize = 32
	cfg.Anchor.MaxSamplesPerCand = 800
	return cfg
}

// TestExplainAllMatchesSeededExplain is the batching+caching soundness
// contract: ExplainAll must produce, for every corpus block, exactly the
// explanation a standalone Explain produces with that block's derived seed.
func TestExplainAllMatchesSeededExplain(t *testing.T) {
	model := analytical.New(x86.Haswell)
	cfg := corpusConfig()
	blocks := corpusBlocks(t, 8)

	expls, err := NewExplainer(model, cfg).ExplainCorpus(blocks, CorpusOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		solo := cfg
		solo.Seed = BlockSeed(cfg.Seed, i)
		ref, err := NewExplainer(model, solo).Explain(b)
		if err != nil {
			t.Fatal(err)
		}
		if expls[i] == nil {
			t.Fatalf("block %d: missing explanation", i)
		}
		if expls[i].Features.Key() != ref.Features.Key() {
			t.Errorf("block %d: corpus %v != sequential %v", i, expls[i].Features, ref.Features)
		}
		if expls[i].Prediction != ref.Prediction {
			t.Errorf("block %d: prediction %v != %v", i, expls[i].Prediction, ref.Prediction)
		}
		if expls[i].Certified != ref.Certified || expls[i].Precision != ref.Precision {
			t.Errorf("block %d: certification diverged", i)
		}
	}
}

// TestExplainAllReproducible runs the same corpus at 1 and 3 workers with
// Parallelism left at its default — one run samples each block at
// GOMAXPROCS goroutines, the other on one — and demands identical
// explanations.
func TestExplainAllReproducible(t *testing.T) {
	model := uica.New(x86.Haswell)
	cfg := corpusConfig()
	cfg.Epsilon = 0.5
	cfg.CoverageSamples = 100
	cfg.Anchor.MaxSamplesPerCand = 400
	blocks := corpusBlocks(t, 4)

	a, err := NewExplainer(model, cfg).ExplainCorpus(blocks, CorpusOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewExplainer(model, cfg).ExplainCorpus(blocks, CorpusOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if !sameResult(a[i], b[i]) {
			t.Errorf("block %d: 1 worker %v != 3 workers %v", i, a[i], b[i])
		}
	}
}

// sameResult reports whether two explanations agree on everything but
// the cache accounting and the profile, which describe how they were
// served.
func sameResult(a, b *Explanation) bool {
	return a.Features.Key() == b.Features.Key() && a.Prediction == b.Prediction &&
		a.Precision == b.Precision && a.Coverage == b.Coverage &&
		a.Certified == b.Certified && a.Queries == b.Queries
}

func TestExplainAllStreamsAndAccountsCache(t *testing.T) {
	// uica, not C: C declares costmodel.CheapQuery and keeps no cache.
	model := uica.New(x86.Haswell)
	cfg := corpusConfig()
	blocks := corpusBlocks(t, 5)
	e := NewExplainer(model, cfg)

	seen := make(map[int]bool)
	for res := range e.ExplainAll(blocks, CorpusOptions{Workers: 2}) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if seen[res.Index] {
			t.Errorf("duplicate result for block %d", res.Index)
		}
		seen[res.Index] = true
		if res.Explanation.Queries == 0 {
			t.Errorf("block %d: no queries recorded", res.Index)
		}
		if res.Explanation.CacheHits+res.Explanation.ModelCalls > res.Explanation.Queries {
			t.Errorf("block %d: accounting inconsistent: %+v", res.Index, res.Explanation)
		}
		if hr := res.Explanation.CacheHitRate(); hr < 0 || hr > 1 {
			t.Errorf("block %d: hit rate %v", res.Index, hr)
		}
	}
	if len(seen) != len(blocks) {
		t.Errorf("got %d results for %d blocks", len(seen), len(blocks))
	}
	if st := e.CacheStats(); st.Hits == 0 {
		t.Error("shared cache saw no hits across the corpus run")
	}
}

func TestExplainAllSurfacesPerBlockErrors(t *testing.T) {
	model := analytical.New(x86.Haswell)
	cfg := corpusConfig()
	blocks := corpusBlocks(t, 3)
	blocks[1] = &x86.BasicBlock{} // invalid: empty

	expls, err := NewExplainer(model, cfg).ExplainCorpus(blocks, CorpusOptions{Workers: 2})
	if err == nil {
		t.Fatal("expected an error for the invalid block")
	}
	if expls[0] == nil || expls[2] == nil {
		t.Error("valid blocks must still be explained")
	}
	if expls[1] != nil {
		t.Error("invalid block should have no explanation")
	}
}

func TestBlockSeedDistinctAndDeterministic(t *testing.T) {
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := BlockSeed(1, i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("BlockSeed collision between blocks %d and %d", prev, i)
		}
		seen[s] = i
		if s != BlockSeed(1, i) {
			t.Fatal("BlockSeed not deterministic")
		}
	}
	if BlockSeed(1, 0) == BlockSeed(2, 0) {
		t.Error("different base seeds should give different block seeds")
	}
}

// TestCachingDoesNotChangeExplanations disables the cache and compares.
func TestCachingDoesNotChangeExplanations(t *testing.T) {
	model := uica.New(x86.Haswell)
	cfg := corpusConfig()
	cfg.Epsilon = 0.5
	cfg.CoverageSamples = 100
	cfg.Anchor.MaxSamplesPerCand = 400
	blocks := corpusBlocks(t, 3)

	cached, err := NewExplainer(model, cfg).ExplainCorpus(blocks, CorpusOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	nocache := cfg
	nocache.CacheSize = -1
	plain, err := NewExplainer(model, nocache).ExplainCorpus(blocks, CorpusOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range blocks {
		if cached[i].Features.Key() != plain[i].Features.Key() {
			t.Errorf("block %d: cache changed the explanation", i)
		}
		if plain[i].CacheHits != 0 {
			// Within-batch dedup can still save queries without a cache,
			// but the saved queries must never exceed total queries.
			if plain[i].CacheHits > plain[i].Queries {
				t.Errorf("block %d: dedup accounting broken", i)
			}
		}
	}
}

// TestCorpusSkipOmitsBlocks: skipped indices produce no result at all,
// and the blocks that do run keep their original per-block seeds.
func TestCorpusSkipOmitsBlocks(t *testing.T) {
	model := analytical.New(x86.Haswell)
	cfg := corpusConfig()
	blocks := corpusBlocks(t, 5)

	seen := make(map[int]*Explanation)
	for res := range NewExplainer(model, cfg).ExplainAll(blocks, CorpusOptions{
		Workers: 2,
		Skip:    func(i int) bool { return i%2 == 1 },
	}) {
		if res.Err != nil {
			t.Fatalf("block %d: %v", res.Index, res.Err)
		}
		seen[res.Index] = res.Explanation
	}
	if len(seen) != 3 {
		t.Fatalf("got %d results, want 3 (indices 0, 2, 4)", len(seen))
	}
	for _, i := range []int{0, 2, 4} {
		expl := seen[i]
		if expl == nil {
			t.Fatalf("block %d missing", i)
		}
		solo := cfg
		solo.Seed = BlockSeed(cfg.Seed, i)
		want, err := NewExplainer(model, solo).Explain(blocks[i])
		if err != nil {
			t.Fatal(err)
		}
		if expl.Features.Key() != want.Features.Key() {
			t.Errorf("block %d: skip run %v != seeded solo %v", i, expl.Features, want.Features)
		}
	}
}
