package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden explanation corpus in testdata/")

// goldenSeed is the base explanation seed of the golden corpus; block i is
// explained under core.BlockSeed(goldenSeed, i), as ExplainAll seeds it.
const goldenSeed = 7

// goldenCase is one committed corpus: a model at its paper ε, explained
// over a fixed bhive draw.
type goldenCase struct {
	file      string
	model     costmodel.Model
	epsilon   float64
	n         int
	minInstrs int
	maxInstrs int
	dataSeed  int64
}

func goldenCases() []goldenCase {
	return []goldenCase{
		{file: "golden_c_hsw.jsonl", model: analytical.New(x86.Haswell), epsilon: analytical.Epsilon,
			n: 16, minInstrs: 4, maxInstrs: 10, dataSeed: 11},
		{file: "golden_uica_hsw.jsonl", model: uica.New(x86.Haswell), epsilon: core.DefaultConfig().Epsilon,
			n: 8, minInstrs: 2, maxInstrs: 4, dataSeed: 12},
	}
}

// goldenCorpus explains the case's blocks at DefaultConfig (sampling at
// GOMAXPROCS, which no byte depends on) with the prediction cache off,
// and returns one
// wire-encoded explanation per line. The cache-accounting fields are
// zeroed: they describe how a result was served, not the result.
func goldenCorpus(t *testing.T, gc goldenCase) []byte {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Epsilon = gc.epsilon
	cfg.CacheSize = -1
	cfg.Seed = goldenSeed
	ex := core.NewExplainer(gc.model, cfg)
	ds := bhive.Generate(bhive.Config{N: gc.n, MinInstrs: gc.minInstrs, MaxInstrs: gc.maxInstrs,
		Seed: gc.dataSeed, SkipLabels: true})
	var buf bytes.Buffer
	for i, d := range ds {
		e, err := ex.ExplainContext(context.Background(), d.Block, core.WithSeed(core.BlockSeed(goldenSeed, i)))
		if err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
		w := wire.FromExplanation(e)
		w.CacheHits, w.ModelCalls = 0, 0
		line, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestGoldenExplanations recomputes the committed explanation corpus and
// compares it byte for byte: engine optimisations must not change a single
// prediction, feature set, precision or coverage. Regenerate (only for an
// intended algorithm change) with
//
//	go test ./internal/core -run TestGoldenExplanations -update
func TestGoldenExplanations(t *testing.T) {
	for _, gc := range goldenCases() {
		t.Run(gc.file, func(t *testing.T) {
			path := filepath.Join("testdata", gc.file)
			got := goldenCorpus(t, gc)
			if *updateGolden {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("explanations differ from %s:\n%s", path, firstDiff(got, want))
			}
		})
	}
}

// firstDiff names the first differing line of two corpora.
func firstDiff(got, want []byte) string {
	g, w := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl []byte
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if !bytes.Equal(gl, wl) {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, gl, wl)
		}
	}
	return "(no differing line)"
}
