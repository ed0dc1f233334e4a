package experiments

import (
	"fmt"

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
	arch     x86.Arch
	blocks   []bhive.Block
	gts      []features.Set
	probs    map[features.Kind]float64
	fixedKnd features.Kind
}

func newAccuracyRun(p Params, arch x86.Arch, nBlocks int) (*accuracyRun, error) {
	blocks := bhive.Generate(bhive.Config{
		N: nBlocks, MinInstrs: 4, MaxInstrs: 10, Seed: p.DatasetSeed, SkipLabels: true,
	})
	model := analytical.New(arch)
	r := &accuracyRun{arch: arch, blocks: blocks}
	for _, b := range blocks {
		gt, err := model.GroundTruth(b.Block)
		if err != nil {
			return nil, err
		}
		r.gts = append(r.gts, gt)
	}
	r.probs = core.KindDistribution(r.gts)
	r.fixedKnd = core.MostFrequentKind(r.gts)
	return r, nil
}

// cometAccuracy runs COMET over the block set with the given config
// mutator and returns the fraction of accurate explanations.
func (r *accuracyRun) cometAccuracy(p Params, seed int64, mutate func(*core.Config)) (float64, error) {
	model := analytical.New(r.arch)
	cfg := core.DefaultConfig()
	cfg.Epsilon = analytical.Epsilon
	cfg.CoverageSamples = p.CoverageSamples
	if mutate != nil {
		mutate(&cfg)
	}
	blocks := make([]*x86.BasicBlock, len(r.blocks))
	for i, b := range r.blocks {
		blocks[i] = b.Block
	}
	expls, err := core.NewExplainer(model, cfg).ExplainCorpus(blocks, core.CorpusOptions{
		Seeds: func(i int) int64 { return seed + int64(i)*104729 },
	})
	if err != nil {
		return 0, err
	}
	acc := 0
	for i, expl := range expls {
		if core.Accurate(expl.Features, r.gts[i]) {
			acc++
		}
	}
	return 100 * float64(acc) / float64(len(r.blocks)), nil
}

// randomAccuracy evaluates the random baseline for one seed.
func (r *accuracyRun) randomAccuracy(seed int64) float64 {
	rng := newRNG(seed)
	acc := 0
	for i, b := range r.blocks {
		set, err := featuresOf(b.Block)
		if err != nil {
			continue
		}
		if core.Accurate(core.RandomExplanation(rng, set, r.probs), r.gts[i]) {
			acc++
		}
	}
	return 100 * float64(acc) / float64(len(r.blocks))
}

// fixedAccuracy evaluates the deterministic fixed baseline.
func (r *accuracyRun) fixedAccuracy() float64 {
	acc := 0
	for i, b := range r.blocks {
		set, err := featuresOf(b.Block)
		if err != nil {
			continue
		}
		if core.Accurate(core.FixedExplanation(set, r.fixedKnd), r.gts[i]) {
			acc++
		}
	}
	return 100 * float64(acc) / float64(len(r.blocks))
}

func featuresOf(b *x86.BasicBlock) (features.Set, error) {
	return features.ExtractFromBlock(b, perturb.DefaultConfig().DepOptions)
}

// Table2 reproduces Table 2: explanation accuracy of COMET vs the random
// and fixed baselines over C for Haswell and Skylake.
func (s *Session) Table2() (*Table, error) {
	p := s.Params
	t := &Table{
		ID:     "table2",
		Title:  "Accuracy of COMET's explanations over the analytical model C",
		Header: []string{"Explanation", "Acc.(%) over C_HSW", "Acc.(%) over C_SKL"},
	}
	cells := map[string][2]string{}
	for ai, arch := range x86.Arches() {
		run, err := newAccuracyRun(p, arch, p.Blocks)
		if err != nil {
			return nil, err
		}
		var cometAccs, randAccs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("table2 %v seed %d/%d...", arch, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(seed+1), nil)
			if err != nil {
				return nil, err
			}
			cometAccs = append(cometAccs, a)
			randAccs = append(randAccs, run.randomAccuracy(int64(seed+1)))
		}
		set := func(name, val string) {
			row := cells[name]
			row[ai] = val
			cells[name] = row
		}
		set("Random", pm(stats.MeanStd(randAccs)))
		set("Fixed", f2(run.fixedAccuracy()))
		set("COMET", pm(stats.MeanStd(cometAccs)))
	}
	for _, name := range []string{"Random", "Fixed", "COMET"} {
		t.Rows = append(t.Rows, []string{name, cells[name][0], cells[name][1]})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("%d blocks (4-10 instrs), %d seeds; paper: 26.56/26.60 random, 72.33/74.0 fixed, 96.90/98.00 COMET", p.Blocks, p.Seeds))
	return t, nil
}
