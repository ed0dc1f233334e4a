package experiments

import (
	"fmt"
	"math/rand"

	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/anchors"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/x86"
)

// The Appendix E ablation/sensitivity studies (Figures 5-8). Each sweep
// reuses the Table 2 accuracy machinery on C for Haswell with one
// configuration knob varied, exactly as the paper describes (100 blocks,
// error bars dropped).

// setting is one labelled value of a swept knob.
type setting struct {
	label string
	apply func(*core.Config)
}

// numeric labels each value with f2 and applies it with set.
func numeric(values []float64, set func(*core.Config, float64)) []setting {
	out := make([]setting, len(values))
	for i, v := range values {
		out[i] = setting{f2(v), func(cfg *core.Config) { set(cfg, v) }}
	}
	return out
}

// column is a sweep column after the accuracy: its header and the cell
// one setting gives it.
type column struct {
	header string
	cell   func(run *accuracyRun, apply func(*core.Config)) (string, error)
}

// sweep runs COMET accuracy across the settings of one knob, averaged over
// the session's seeds; extra, when set, adds a column to every row.
func (s *Session) sweep(id, title, knob string, settings []setting, extra *column, notes ...string) (*Table, error) {
	p := s.Params
	run, err := newAccuracyRun(p, x86.Haswell, p.SweepBlocks)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id, Title: title, Header: []string{knob, "Accuracy (%)"}}
	if extra != nil {
		t.Header = append(t.Header, extra.header)
	}
	for _, st := range settings {
		var accs []float64
		for seed := 0; seed < p.Seeds; seed++ {
			p.logf("%s %s=%s seed %d/%d...", id, knob, st.label, seed+1, p.Seeds)
			a, err := run.cometAccuracy(p, int64(1+seed), st.apply)
			if err != nil {
				return nil, err
			}
			accs = append(accs, a)
		}
		row := []string{st.label, f1(stats.Mean(accs))}
		if extra != nil {
			c, err := extra.cell(run, st.apply)
			if err != nil {
				return nil, err
			}
			row = append(row, c)
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append([]string{fmt.Sprintf("C_HSW, %d blocks, %d seeds", p.SweepBlocks, p.Seeds)}, notes...)
	return t, nil
}

// Figure5 reproduces Figure 5: accuracy vs the precision threshold (1−δ).
func (s *Session) Figure5() (*Table, error) {
	return s.sweep("fig5", "Explanation accuracy vs precision threshold (1−δ)", "threshold",
		numeric([]float64{0.5, 0.6, 0.7, 0.8, 0.9}, func(cfg *core.Config, v float64) { cfg.PrecisionThreshold = v }),
		nil, "paper: 0.7 is the highest threshold attaining peak accuracy")
}

// Figure6 reproduces Figure 6: accuracy vs the instruction deletion
// probability p_del.
func (s *Session) Figure6() (*Table, error) {
	return s.sweep("fig6", "Explanation accuracy vs instruction deletion probability p_del", "p_del",
		numeric([]float64{0, 0.25, 0.33, 0.5, 0.75, 1.0}, func(cfg *core.Config, v float64) { cfg.Perturb.PDelete = v }),
		nil, "paper: p_del = 0.33 maximizes accuracy")
}

// Figure7 reproduces Figure 7: accuracy and held-out precision vs the
// explicit dependency-retention probability.
func (s *Session) Figure7() (*Table, error) {
	return s.sweep("fig7", "Accuracy and precision vs explicit dependency retention probability", "p_explicit_ret",
		numeric([]float64{0, 0.1, 0.25, 0.5}, func(cfg *core.Config, v float64) { cfg.Perturb.PExplicitDepRetain = v }),
		&column{"Av. Precision", s.heldOutPrecision}, "paper: 0.1 is optimal for both accuracy and precision")
}

// heldOutPrecision measures the mean held-out precision of COMET
// explanations at one setting over a small slice of the sweep set.
func (s *Session) heldOutPrecision(run *accuracyRun, apply func(*core.Config)) (string, error) {
	model := analytical.New(run.arch)
	cfg := accuracyConfig(s.Params, 0, apply)
	rng := rand.New(rand.NewSource(4242))
	var vals []float64
	for i, b := range run.blocks[:min(len(run.blocks), 10)] {
		cfg.Seed = int64(900 + i)
		expl, err := core.NewExplainer(model, cfg).Explain(b)
		if err != nil {
			return "", err
		}
		p, err := core.EstimatePrecision(model, b, expl.Features, cfg, 400, rng)
		if err != nil {
			return "", err
		}
		vals = append(vals, p)
	}
	return f2(stats.Mean(vals)), nil
}

// Figure8 reproduces Figure 8: opcode-only vs whole-instruction replacement
// schemes.
func (s *Session) Figure8() (*Table, error) {
	return s.sweep("fig8", "Explanation accuracy by instruction replacement scheme", "Scheme",
		[]setting{
			{"opcode-only", func(cfg *core.Config) { cfg.Perturb.Scheme = perturb.OpcodeOnly }},
			{"whole-instruction", func(cfg *core.Config) { cfg.Perturb.Scheme = perturb.WholeInstruction }},
		}, nil, "paper: opcode-only replacement is more accurate")
}

// AblationBounds compares the KL test the paper adopts (Kaufmann &
// Kalyanakrishnan 2013), n·KL(p̂ ‖ thr) against the certification level,
// with the classical Hoeffding test n·2(p̂ − thr)²: at the same budgets,
// KL certifies anchors with fewer samples because its bounds are tighter
// near p̂ = 1, which translates into equal-or-better accuracy per query. This design-choice ablation has no direct paper
// counterpart.
func (s *Session) AblationBounds() (*Table, error) {
	return s.sweep("ablate-bounds", "Ablation: KL-LUCB vs Hoeffding precision bounds", "Bounds",
		[]setting{
			{"KL-LUCB (paper)", func(cfg *core.Config) { cfg.Anchor.Bounds = anchors.KLBounds }},
			{"Hoeffding", func(cfg *core.Config) { cfg.Anchor.Bounds = anchors.HoeffdingBounds }},
		}, nil)
}
