// Package experiments reproduces every table and figure of the paper's
// evaluation (Section 6 and Appendices E/F). Each runner returns a Table
// that the comet-bench tool renders; AllIDs lists the experiments and
// Session.Run maps each to its runner.
//
// A Session owns the trained models and caches explanation runs so that
// Table 3 and Figures 2-4 (which share the same underlying explanations)
// do not recompute them.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"unicode"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/hwsim"
	"github.com/comet-explain/comet/internal/ithemal"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// Params scales the experiments. DefaultParams is sized for minutes-scale
// runs; PaperParams restores the paper's setup (200 blocks, 5 seeds, 10k
// coverage samples) at a correspondingly higher cost.
type Params struct {
	Blocks          int // explanation test-set size
	Seeds           int // COMET/baseline seeds averaged over
	SweepBlocks     int // blocks for the Appendix E sweeps (Figures 5-8)
	CoverageSamples int // Γ(∅) pool size per explanation
	TrainBlocks     int // Ithemal training-set size
	Epochs          int // Ithemal training epochs
	Hidden          int // Ithemal hidden width
	DatasetSeed     int64
	Progress        io.Writer // optional progress log
}

// DefaultParams returns the scaled-down configuration.
func DefaultParams() Params {
	return Params{
		Blocks:          24,
		Seeds:           2,
		SweepBlocks:     20,
		CoverageSamples: 400,
		TrainBlocks:     1200,
		Epochs:          5,
		Hidden:          48,
		DatasetSeed:     42,
	}
}

// PaperParams returns the paper-scale configuration (hours of compute).
func PaperParams() Params {
	p := DefaultParams()
	p.Blocks = 200
	p.Seeds = 5
	p.SweepBlocks = 100
	p.CoverageSamples = 10000
	p.TrainBlocks = 4000
	p.Epochs = 10
	p.Hidden = 64
	return p
}

func (p Params) logf(format string, args ...any) {
	if p.Progress != nil {
		fmt.Fprintf(p.Progress, format+"\n", args...)
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for _, row := range append([][]string{t.Header}, t.Rows...) {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], displayWidth(cell))
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	return s + strings.Repeat(" ", max(0, w-displayWidth(s)))
}

// displayWidth counts the runes of s that take a column: combining marks
// (the circumflex of Π̂) sit on the rune before them.
func displayWidth(s string) int {
	n := 0
	for _, r := range s {
		if !unicode.Is(unicode.Mn, r) {
			n++
		}
	}
	return n
}

// experimentList is every experiment in presentation order.
var experimentList = []struct {
	id  string
	run func(*Session) (*Table, error)
}{
	{"table2", (*Session).Table2},
	{"table3", (*Session).Table3},
	{"fig2", (*Session).Figure2},
	{"fig3", (*Session).Figure3},
	{"fig4", (*Session).Figure4},
	{"fig5", (*Session).Figure5},
	{"fig6", (*Session).Figure6},
	{"fig7", (*Session).Figure7},
	{"fig8", (*Session).Figure8},
	{"appf", (*Session).AppendixF},
	{"cases", (*Session).CaseStudies},
	{"ablate-bounds", (*Session).AblationBounds},
}

// AllIDs lists every experiment in presentation order.
func AllIDs() []string {
	ids := make([]string, len(experimentList))
	for i, e := range experimentList {
		ids[i] = e.id
	}
	return ids
}

// Run executes one experiment by its AllIDs id.
func (s *Session) Run(id string) (*Table, error) {
	for _, e := range experimentList {
		if e.id == id {
			return e.run(s)
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %v)", id, AllIDs())
}

// Session owns trained models and cached explanation runs. Models
// resolve through the public comet registry, so every experiment is
// attributable to a canonical model spec (logged at resolve time).
type Session struct {
	Params Params

	mu       sync.Mutex
	ithemal  map[x86.Arch]*ithemal.Model
	explains map[string][]*core.Explanation
}

// NewSession prepares a session.
func NewSession(p Params) *Session {
	return &Session{
		Params:   p,
		ithemal:  make(map[x86.Arch]*ithemal.Model),
		explains: make(map[string][]*core.Explanation),
	}
}

// resolve routes a spec through the public registry, logging the
// canonical spec so experiment output is attributable to it.
func (s *Session) resolve(spec string) costmodel.Model {
	rm, err := comet.ResolveModelString(spec)
	if err != nil {
		// Registry resolution of a session spec only fails on a
		// programming error (the specs are built here, not user input).
		panic(fmt.Sprintf("experiments: resolving %s: %v", spec, err))
	}
	s.Params.logf("resolved model %s", rm.Spec)
	return rm.Model
}

// Hardware returns the full-fidelity simulator standing in for real
// hardware on the given microarchitecture.
func (s *Session) Hardware(arch x86.Arch) *hwsim.Simulator {
	return hwsim.New(hwsim.HardwareConfig(arch))
}

// UICA returns the uiCA surrogate for the architecture.
func (s *Session) UICA(arch x86.Arch) costmodel.Model {
	return s.resolve("uica@" + wire.ArchName(arch))
}

// ithemalSpec is the registry spec the session's parameters correspond to.
func (s *Session) ithemalSpec(arch x86.Arch) string {
	p := s.Params
	return fmt.Sprintf("ithemal@%s?train=%d&epochs=%d&hidden=%d&data=%d",
		wire.ArchName(arch), p.TrainBlocks, p.Epochs, p.Hidden, p.DatasetSeed+100)
}

// Ithemal returns the trained neural model for the architecture, training
// it on first use through the registry (cached for the session).
func (s *Session) Ithemal(arch x86.Arch) *ithemal.Model {
	s.mu.Lock()
	m, ok := s.ithemal[arch]
	s.mu.Unlock()
	if ok {
		return m
	}
	p := s.Params
	p.logf("training ithemal/%v on %d blocks (%d epochs, hidden %d)...", arch, p.TrainBlocks, p.Epochs, p.Hidden)
	m = s.resolve(s.ithemalSpec(arch)).(*ithemal.Model)
	p.logf("  train MAPE %.1f%%", m.MAPE(trainSamples(p, arch)))

	s.mu.Lock()
	s.ithemal[arch] = m
	s.mu.Unlock()
	return m
}

// trainSamples regenerates the session's training set (for post-training
// MAPE reporting; generation is deterministic and cheap next to training).
func trainSamples(p Params, arch x86.Arch) []ithemal.Sample {
	blocks := bhive.Generate(bhive.Config{
		N: p.TrainBlocks, MinInstrs: 1, MaxInstrs: 12, Seed: p.DatasetSeed + 100,
	})
	samples := make([]ithemal.Sample, len(blocks))
	for i, b := range blocks {
		samples[i] = ithemal.Sample{Block: b.Block, Throughput: b.Throughput[arch]}
	}
	return samples
}

// testSet returns the session's explanation test set (blocks of 4-10
// instructions, as in the paper).
func (s *Session) testSet() []bhive.Block {
	return bhive.Generate(bhive.Config{
		N: s.Params.Blocks, MinInstrs: 4, MaxInstrs: 10, Seed: s.Params.DatasetSeed,
	})
}

// explainConfig is the COMET configuration used for the practical models.
// The anchor budgets are tighter than the analytical-model runs: neural
// queries cost ~1ms each, and the paper's own budget (~1 minute per block)
// corresponds to a few tens of thousands of queries.
func (s *Session) explainConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.CoverageSamples = s.Params.CoverageSamples
	cfg.Seed = seed
	cfg.Anchor.MaxSamplesPerCand = 500
	cfg.Anchor.MaxAnchorSize = 3
	return cfg
}

// explainAll runs COMET for a model on a set of blocks, caching by key.
// Blocks flow through the batched corpus engine: block-level workers
// saturate the machine and all blocks share one prediction cache. With
// more than one worker each block samples, and queries a plain model
// (C, mca, uica, hwsim), on its worker's goroutine, so the workers are
// the only fan-out.
func (s *Session) explainAll(key string, model costmodel.Model, blocks []bhive.Block, seed int64) ([]*core.Explanation, error) {
	s.mu.Lock()
	if cached, ok := s.explains[key]; ok {
		s.mu.Unlock()
		return cached, nil
	}
	s.mu.Unlock()

	s.Params.logf("explaining %d blocks with %s/%v...", len(blocks), model.Name(), model.Arch())
	out, err := core.NewExplainer(model, s.explainConfig(seed)).ExplainCorpus(basicBlocks(blocks), core.CorpusOptions{})
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.explains[key] = out
	s.mu.Unlock()
	return out, nil
}

// kindPercents returns the percentage of explanations containing at least
// one feature of each kind (the Figure 2-4 series).
func kindPercents(expls []*core.Explanation) (eta, inst, dep float64) {
	if len(expls) == 0 {
		return
	}
	for _, e := range expls {
		if e.Features.HasKind(features.KindCount) {
			eta++
		}
		if e.Features.HasKind(features.KindInstr) {
			inst++
		}
		if e.Features.HasKind(features.KindDep) {
			dep++
		}
	}
	n := float64(len(expls))
	return 100 * eta / n, 100 * inst / n, 100 * dep / n
}

// mapeOf computes a model's error against the hardware labels of a block
// set, querying it as the explainer does.
func mapeOf(model costmodel.Model, blocks []bhive.Block) float64 {
	preds := make([]float64, len(blocks))
	costmodel.PredictThrough(nil, model, basicBlocks(blocks), 0, 0, preds)
	actuals := make([]float64, len(blocks))
	for i, b := range blocks {
		actuals[i] = b.Throughput[model.Arch()]
	}
	return stats.MAPE(preds, actuals)
}

func basicBlocks(blocks []bhive.Block) []*x86.BasicBlock {
	out := make([]*x86.BasicBlock, len(blocks))
	for i, b := range blocks {
		out[i] = b.Block
	}
	return out
}

func f2(v float64) string    { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string    { return fmt.Sprintf("%.1f", v) }
func pm(m, s float64) string { return fmt.Sprintf("%.2f ± %.2f", m, s) }
