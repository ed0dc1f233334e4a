package comet_test

// Path independence: an explanation is a pure function of (canonical
// spec, effective config, canonical block). For generated blocks, the
// wire JSON must be byte-equal whether the explanation is computed
// locally at any model-query batch size or through a remote@ model hop
// at any sampling parallelism, on a cluster worker via a coordinator
// lease, or read back from the durable store — the last three exercise
// the one HTTP client (wire.Call) end to end.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/cluster"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/wire"
)

func TestExplanationPathIndependence(t *testing.T) {
	const seed = 7
	short := bhive.Config{N: 4, MinInstrs: 2, MaxInstrs: 5, Seed: 23, SkipLabels: true}

	srv := service.New(service.Config{})
	srv.SetReady()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})

	for _, tc := range []struct {
		spec       string
		blocks     bhive.Config
		epsilon    float64 // 0: the spec's own ε
		minQueries int     // some explanation takes more queries than this
	}{
		{"c@hsw", short, 0, 0},
		{"uica@hsw", short, 0, 0},
		{"mca@hsw", short, 0, 0},
		// At its own ε of 0.5 the pinned Ithemal certifies each block in
		// one round of 51 queries; 4-10 instructions at ε 0.05 take the
		// search through several rounds.
		{pinnedIthemal, bhive.Config{N: 4, MinInstrs: 4, MaxInstrs: 10, Seed: 7, SkipLabels: true}, 0.05, 51},
	} {
		spec := tc.spec
		ds := bhive.Generate(tc.blocks)
		texts := make([]string, len(ds))
		for i, d := range ds {
			texts[i] = d.Block.String()
		}
		t.Run(spec, func(t *testing.T) {
			local, err := comet.ResolveModelString(spec)
			if err != nil {
				t.Fatal(err)
			}
			cfg := comet.DefaultConfig()
			cfg.Epsilon = local.Epsilon
			if tc.epsilon != 0 {
				cfg.Epsilon = tc.epsilon
			}
			cfg.CoverageSamples = 200
			cfg.Seed = seed
			snap := wire.SnapshotConfig(core.ApplyOptions(cfg))

			// explainAll runs every block through a fresh explainer over
			// model at the per-block seeds a corpus job uses and the given
			// batch size and sampling parallelism, rendering wire JSON.
			explainAll := func(model comet.CostModel, batch, par int) []*wire.Explanation {
				t.Helper()
				c := cfg
				c.BatchSize = batch
				ex := comet.NewExplainer(model, c)
				out := make([]*wire.Explanation, len(texts))
				for i, text := range texts {
					e, err := ex.ExplainContext(context.Background(), comet.MustParseBlock(text),
						comet.WithSeed(core.BlockSeed(seed, i)), comet.WithParallelism(par))
					if err != nil {
						t.Fatalf("block %d: %v", i, err)
					}
					out[i] = wire.FromExplanation(e)
				}
				return out
			}
			want := explainAll(local.Model, cfg.BatchSize, 1)
			maxQueries := 0
			for _, e := range want {
				maxQueries = max(maxQueries, e.Queries)
			}
			if maxQueries <= tc.minQueries {
				t.Errorf("the most queries any explanation took is %d, want more than %d", maxQueries, tc.minQueries)
			}

			// Batch size only groups cache misses into model calls: from a
			// fresh cache, even the accounting fields must match.
			sameCache := map[string][]*wire.Explanation{}
			for _, batch := range []int{1, 7, 4096} {
				sameCache[fmt.Sprintf("local, batch size %d", batch)] = explainAll(local.Model, batch, 1)
			}

			remote, err := comet.DialRemoteModel(ts.URL, comet.RemoteModelOptions{Model: spec})
			if err != nil {
				t.Fatal(err)
			}
			paths := map[string][]*wire.Explanation{}
			for _, par := range []int{1, 2, 4} {
				if par != 1 {
					paths[fmt.Sprintf("local, parallelism %d", par)] = explainAll(local.Model, cfg.BatchSize, par)
				}
				paths[fmt.Sprintf("remote@, parallelism %d", par)] = explainAll(remote, cfg.BatchSize, par)
			}

			opts := cluster.Options{LeaseBlocks: 2, ProbeBackoff: 10 * time.Millisecond, Tick: 5 * time.Millisecond}
			coord := cluster.New(cluster.NewPool([]string{ts.URL}, opts), opts)
			viaCluster := make([]*wire.Explanation, len(texts))
			err = coord.Run(context.Background(), cluster.Job{ID: "job-paths", Spec: spec, Config: snap, Blocks: texts},
				func(r cluster.Result) {
					if r.Error != "" {
						t.Errorf("cluster block %d: %s", r.Index, r.Error)
					}
					viaCluster[r.Index] = r.Explanation
				})
			if err != nil {
				t.Fatal(err)
			}
			paths["cluster lease"] = viaCluster

			dir := t.TempDir()
			store, err := persist.Open(dir, persist.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i, e := range want {
				if err := persist.PutExplanation(store, persist.ExplanationID(spec, snap, texts[i]), spec, snap, e); err != nil {
					t.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
			if store, err = persist.Open(dir, persist.Options{}); err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			viaStore := make([]*wire.Explanation, len(texts))
			for i, text := range texts {
				viaStore[i], _ = persist.LookupExplanation(store, persist.ExplanationID(spec, snap, text))
			}
			paths["store round trip"] = viaStore

			compare := func(paths map[string][]*wire.Explanation, accounting bool) {
				for name, got := range paths {
					for i := range texts {
						w, g := pathJSON(t, want[i], accounting), pathJSON(t, got[i], accounting)
						if !bytes.Equal(g, w) {
							t.Errorf("%s, block %d: explanation differs from local at parallelism 1:\n got %s\nwant %s", name, i, g, w)
						}
					}
				}
			}
			compare(sameCache, true)
			compare(paths, false)
		})
	}
}

// pathJSON renders an explanation's wire JSON ("null" when the path
// produced none). Without accounting the cache-accounting fields are
// zeroed: across processes they report how warm the answering process's
// caches were, not the explanation.
func pathJSON(t *testing.T, e *wire.Explanation, accounting bool) []byte {
	t.Helper()
	if e == nil {
		return []byte("null")
	}
	c := *e
	if !accounting {
		c.CacheHits, c.ModelCalls = 0, 0
	}
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
