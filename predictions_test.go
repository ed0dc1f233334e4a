package comet_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/hwsim"
	"github.com/comet-explain/comet/internal/mca"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/uica"
	"github.com/comet-explain/comet/internal/x86"
)

// pinnedPredictions is the SHA-256 (first 16 hex digits) of every
// prediction's float64 bits, in pinnedBlocks order, per model and arch.
// The values were generated once and must not be regenerated: a
// refactor of the simulators or of the dependency analysis they read is
// correct only if it leaves every prediction bit-identical.
var pinnedPredictions = map[string]string{
	"uica@HSW":     "3e33f8c3967f2472",
	"hwsim@HSW":    "3a21c0ca00dad751",
	"depchain@HSW": "8e269c15e812c6dc",
	"mca@HSW":      "a8c845784ab40689",
	"uica@SKL":     "8eebc31e08dcb18c",
	"hwsim@SKL":    "77a623bcfa76a35f",
	"depchain@SKL": "b4554b7f6a6236f8",
	"mca@SKL":      "0925d6852d0936f4",
	// pinnedIthemal, generated with workers=1 appended when training
	// still took a worker count: the spec names that one-worker model.
	"ithemal@HSW": "e236cc44b04a112b",
}

// pinnedIthemal is a small trained Ithemal spec: one whose predictions
// moved with the training worker count while there was one.
const pinnedIthemal = "ithemal@hsw?train=200&epochs=4&hidden=8&embed=8"

// pinnedBlocks is a fixed bhive draw followed by Γ draws from its first
// blocks: 1,500 dataset blocks and 5,000 perturbations.
func pinnedBlocks(t *testing.T) []*x86.BasicBlock {
	t.Helper()
	data := bhive.Generate(bhive.Config{N: 1500, MinInstrs: 2, MaxInstrs: 16, Seed: 20, SkipLabels: true})
	blocks := make([]*x86.BasicBlock, 0, 6500)
	for _, d := range data {
		blocks = append(blocks, d.Block)
	}
	rng := rand.New(rand.NewSource(20))
	for _, d := range data[:500] {
		p, err := perturb.New(d.Block, perturb.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for range 10 {
			blocks = append(blocks, p.Sample(rng, nil).Block)
		}
	}
	return blocks
}

// TestPinnedPredictions pins the predictions of the simulation-based and
// static models — uica, the hardware-grade simulator, its dependency-chain
// bound, and mca — over pinnedBlocks on both arches, and those of a small
// trained Ithemal on Haswell.
func TestPinnedPredictions(t *testing.T) {
	blocks := pinnedBlocks(t)
	check := func(key string, preds []float64) {
		h := sha256.New()
		var buf [8]byte
		for _, p := range preds {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p))
			h.Write(buf[:])
		}
		if got := hex.EncodeToString(h.Sum(nil))[:16]; got != pinnedPredictions[key] {
			t.Errorf("%s: prediction hash %s, pinned %s", key, got, pinnedPredictions[key])
		}
	}
	for _, arch := range x86.Arches() {
		hw := hwsim.New(hwsim.HardwareConfig(arch))
		models := map[string]func(*x86.BasicBlock) float64{
			"uica":  uica.New(arch).Predict,
			"hwsim": hw.Throughput,
			"depchain": func(b *x86.BasicBlock) float64 {
				r, err := hw.Analyze(b)
				if err != nil {
					return math.NaN()
				}
				return r.DepChainBound
			},
			"mca": mca.New(arch).Predict,
		}
		for name, predict := range models {
			preds := make([]float64, len(blocks))
			for i, b := range blocks {
				preds[i] = predict(b)
			}
			check(name+"@"+arch.String(), preds)
		}
	}
	neural, err := comet.ResolveModelString(pinnedIthemal)
	if err != nil {
		t.Fatal(err)
	}
	// PredictBatch equals Predict bit for bit (the BatchModel contract),
	// and is the faster way through 6,500 blocks.
	check("ithemal@HSW", neural.Model.(comet.BatchCostModel).PredictBatch(blocks))
}
