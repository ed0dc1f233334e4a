package experiments

import (
	"fmt"

	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/x86"
)

// The Appendix E ablation/sensitivity studies (Figures 5-8). Each sweep
// reuses the Table 2 accuracy machinery on C for Haswell with one
// configuration knob varied, exactly as the paper describes (100 blocks,
// error bars dropped).

// sweep runs COMET accuracy across settings of one knob.
func (s *Session) sweep(id, title, knob string, values []float64, mutate func(*core.Config, float64)) (*Table, error) {
	p := s.Params
	run, err := newAccuracyRun(p, x86.Haswell, p.SweepBlocks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{knob, "Accuracy (%)"},
	}
	for _, v := range values {
		var accs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("%s %s=%.2f seed %d/%d...", id, knob, v, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(1+seed), func(cfg *core.Config) { mutate(cfg, v) })
			if err != nil {
				return nil, err
			}
			accs = append(accs, a)
		}
		t.Rows = append(t.Rows, []string{f2(v), f1(stats.Mean(accs))})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("C_HSW, %d blocks, %d seeds", p.SweepBlocks, p.Seeds))
	return t, nil
}

// Figure5 reproduces Figure 5: accuracy vs the precision threshold (1−δ).
func (s *Session) Figure5() (*Table, error) {
	t, err := s.sweep("fig5",
		"Explanation accuracy vs precision threshold (1−δ)",
		"threshold",
		[]float64{0.5, 0.6, 0.7, 0.8, 0.9},
		func(cfg *core.Config, v float64) {
			cfg.PrecisionThreshold = v
			cfg.Anchor.PrecisionThreshold = v
		})
	if err == nil {
		t.Notes = append(t.Notes, "paper: 0.7 is the highest threshold attaining peak accuracy")
	}
	return t, err
}

// Figure6 reproduces Figure 6: accuracy vs the instruction deletion
// probability p_del.
func (s *Session) Figure6() (*Table, error) {
	t, err := s.sweep("fig6",
		"Explanation accuracy vs instruction deletion probability p_del",
		"p_del",
		[]float64{0, 0.25, 0.33, 0.5, 0.75, 1.0},
		func(cfg *core.Config, v float64) { cfg.Perturb.PDelete = v })
	if err == nil {
		t.Notes = append(t.Notes, "paper: p_del = 0.33 maximizes accuracy")
	}
	return t, err
}

// Figure7 reproduces Figure 7: accuracy and held-out precision vs the
// explicit dependency-retention probability.
func (s *Session) Figure7() (*Table, error) {
	p := s.Params
	run, err := newAccuracyRun(p, x86.Haswell, p.SweepBlocks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig7",
		Title:  "Accuracy and precision vs explicit dependency retention probability",
		Header: []string{"p_explicit_ret", "Accuracy (%)", "Av. Precision"},
	}
	for _, v := range []float64{0, 0.1, 0.25, 0.5} {
		var accs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("fig7 p=%.2f seed %d/%d...", v, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(1+seed), func(cfg *core.Config) {
				cfg.Perturb.PExplicitDepRetain = v
			})
			if err != nil {
				return nil, err
			}
			accs = append(accs, a)
		}
		prec, err := s.sweepPrecision(run, v)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{f2(v), f1(stats.Mean(accs)), f2(prec)})
	}
	t.Notes = append(t.Notes, "paper: 0.1 is optimal for both accuracy and precision")
	return t, nil
}

// sweepPrecision measures mean held-out precision of COMET explanations at
// one explicit-retention setting over a small slice of the sweep set.
func (s *Session) sweepPrecision(run *accuracyRun, v float64) (float64, error) {
	model := analyticalHSW()
	cfg := core.DefaultConfig()
	cfg.Epsilon = 0.25
	cfg.CoverageSamples = s.Params.CoverageSamples
	cfg.Perturb.PExplicitDepRetain = v
	n := len(run.blocks)
	if n > 10 {
		n = 10
	}
	rng := newRNG(4242)
	var vals []float64
	for i := 0; i < n; i++ {
		cfg.Seed = int64(900 + i)
		expl, err := core.NewExplainer(model, cfg).Explain(run.blocks[i].Block)
		if err != nil {
			return 0, err
		}
		p, err := core.EstimatePrecision(model, run.blocks[i].Block, expl.Features, cfg, 400, rng)
		if err != nil {
			return 0, err
		}
		vals = append(vals, p)
	}
	return stats.Mean(vals), nil
}

// AblationBounds compares the KL-LUCB confidence bounds the paper adopts
// (Kaufmann & Kalyanakrishnan 2013) against classical Hoeffding bounds: at
// the same budgets, KL bounds certify anchors with fewer samples because
// they are tighter near p̂ = 1, which translates into equal-or-better
// accuracy per query. This design-choice ablation has no direct paper
// counterpart.
func (s *Session) AblationBounds() (*Table, error) {
	p := s.Params
	run, err := newAccuracyRun(p, x86.Haswell, p.SweepBlocks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablate-bounds",
		Title:  "Ablation: KL-LUCB vs Hoeffding precision bounds",
		Header: []string{"Bounds", "Accuracy (%)"},
	}
	kinds := []struct {
		name string
		kind int
	}{{"KL-LUCB (paper)", 0}, {"Hoeffding", 1}}
	for _, k := range kinds {
		var accs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("ablate-bounds %s seed %d/%d...", k.name, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(1+seed), func(cfg *core.Config) {
				cfg.Anchor.Bounds = boundsFromInt(k.kind)
			})
			if err != nil {
				return nil, err
			}
			accs = append(accs, a)
		}
		t.Rows = append(t.Rows, []string{k.name, f1(stats.Mean(accs))})
	}
	return t, nil
}

// Figure8 reproduces Figure 8: opcode-only vs whole-instruction replacement
// schemes.
func (s *Session) Figure8() (*Table, error) {
	p := s.Params
	run, err := newAccuracyRun(p, x86.Haswell, p.SweepBlocks)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig8",
		Title:  "Explanation accuracy by instruction replacement scheme",
		Header: []string{"Scheme", "Accuracy (%)"},
	}
	schemes := []struct {
		name  string
		value int
	}{
		{"opcode-only", 0},
		{"whole-instruction", 1},
	}
	for _, scheme := range schemes {
		var accs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("fig8 %s seed %d/%d...", scheme.name, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(1+seed), func(cfg *core.Config) {
				cfg.Perturb.Scheme = schemeFromInt(scheme.value)
			})
			if err != nil {
				return nil, err
			}
			accs = append(accs, a)
		}
		t.Rows = append(t.Rows, []string{scheme.name, f1(stats.Mean(accs))})
	}
	t.Notes = append(t.Notes, "paper: opcode-only replacement is more accurate")
	return t, nil
}
