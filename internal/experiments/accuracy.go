package experiments

import (
	"fmt"
	"math/rand"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/x86"
)

// accuracyRun measures explanation accuracy against the analytical model
// C's ground truth for one configuration — the machinery behind Table 2
// and the Appendix E sweeps (Figures 5-8).
type accuracyRun struct {
	arch   x86.Arch
	blocks []*x86.BasicBlock
	gts    []features.Set
}

func newAccuracyRun(p Params, arch x86.Arch, nBlocks int) (*accuracyRun, error) {
	r := &accuracyRun{arch: arch, blocks: basicBlocks(bhive.Generate(bhive.Config{
		N: nBlocks, MinInstrs: 4, MaxInstrs: 10, Seed: p.DatasetSeed, SkipLabels: true,
	}))}
	model := analytical.New(arch)
	for _, b := range r.blocks {
		gt, err := model.GroundTruth(b)
		if err != nil {
			return nil, err
		}
		r.gts = append(r.gts, gt)
	}
	return r, nil
}

// accuracyConfig is the configuration the accuracy studies explain C
// with: the default search at C's ε, varied by apply when it is set.
func accuracyConfig(p Params, seed int64, apply func(*core.Config)) core.Config {
	cfg := core.DefaultConfig()
	cfg.Epsilon = analytical.Epsilon
	cfg.CoverageSamples = p.CoverageSamples
	cfg.Seed = seed
	if apply != nil {
		apply(&cfg)
	}
	return cfg
}

// cometAccuracy runs COMET over the block set at accuracyConfig and
// returns the percentage of accurate explanations; block i runs at
// core.BlockSeed(seed, i).
func (r *accuracyRun) cometAccuracy(p Params, seed int64, apply func(*core.Config)) (float64, error) {
	expls, err := core.NewExplainer(analytical.New(r.arch), accuracyConfig(p, seed, apply)).ExplainCorpus(r.blocks, core.CorpusOptions{})
	if err != nil {
		return 0, err
	}
	return r.score(func(i int) features.Set { return expls[i].Features }), nil
}

// baselineAccuracy scores a baseline that explains each block from its
// feature set ˆP alone.
func (r *accuracyRun) baselineAccuracy(explain func(features.Set) features.Set) float64 {
	return r.score(func(i int) features.Set {
		feats, err := features.ExtractFromBlock(r.blocks[i], perturb.DefaultConfig().DepOptions)
		if err != nil {
			return nil
		}
		return explain(feats)
	})
}

// score returns the percentage of blocks i whose explanation(i) is
// accurate against C's ground truth.
func (r *accuracyRun) score(explanation func(i int) features.Set) float64 {
	acc := 0
	for i, gt := range r.gts {
		if core.Accurate(explanation(i), gt) {
			acc++
		}
	}
	return 100 * float64(acc) / float64(len(r.gts))
}

// Table2 reproduces Table 2: explanation accuracy of COMET vs the random
// and fixed baselines over C for Haswell and Skylake.
func (s *Session) Table2() (*Table, error) {
	p := s.Params
	t := &Table{
		ID:     "table2",
		Title:  "Accuracy of COMET's explanations over the analytical model C",
		Header: []string{"Explanation", "Acc.(%) over C_HSW", "Acc.(%) over C_SKL"},
		Rows:   [][]string{{"Random"}, {"Fixed"}, {"COMET"}},
	}
	for _, arch := range x86.Arches() {
		run, err := newAccuracyRun(p, arch, p.Blocks)
		if err != nil {
			return nil, err
		}
		probs, fixed := core.KindDistribution(run.gts), core.MostFrequentKind(run.gts)
		var cometAccs, randAccs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("table2 %v seed %d/%d...", arch, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(seed+1), nil)
			if err != nil {
				return nil, err
			}
			cometAccs = append(cometAccs, a)
			rng := rand.New(rand.NewSource(int64(seed + 1)))
			randAccs = append(randAccs, run.baselineAccuracy(func(feats features.Set) features.Set {
				return core.RandomExplanation(rng, feats, probs)
			}))
		}
		t.Rows[0] = append(t.Rows[0], pm(stats.MeanStd(randAccs)))
		t.Rows[1] = append(t.Rows[1], f2(run.baselineAccuracy(func(feats features.Set) features.Set {
			return core.FixedExplanation(feats, fixed)
		})))
		t.Rows[2] = append(t.Rows[2], pm(stats.MeanStd(cometAccs)))
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d blocks (4-10 instrs), %d seeds; paper: 26.56/26.60 random, 72.33/74.0 fixed, 96.90/98.00 COMET", p.Blocks, p.Seeds))
	return t, nil
}
