package experiments

import (
	"fmt"
	"math"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/x86"
)

// modelsUnderStudy enumerates the (model, arch) pairs of Table 3/Figure 2.
func (s *Session) modelsUnderStudy() []costmodel.Model {
	return []costmodel.Model{
		s.Ithemal(x86.Haswell),
		s.Ithemal(x86.Skylake),
		s.UICA(x86.Haswell),
		s.UICA(x86.Skylake),
	}
}

func modelLabel(m costmodel.Model) string {
	name := "U"
	if m.Name() == "ithemal" {
		name = "I"
	}
	return fmt.Sprintf("%s (%v)", name, m.Arch())
}

// testExplanations runs (or fetches cached) COMET explanations for one
// model over the shared explanation test set. Table 3 and Figures 2-4 all
// consume this one run per model, mirroring how the paper evaluates a
// single 200-block test set and partitions it for the per-source and
// per-category studies.
func (s *Session) testExplanations(model costmodel.Model) ([]bhive.Block, []*core.Explanation, error) {
	blocks := s.testSet()
	key := fmt.Sprintf("%s-%v-test", model.Name(), model.Arch())
	expls, err := s.explainAll(key, model, blocks, 1000)
	return blocks, expls, err
}

// Table3 reproduces Table 3: average precision and coverage of COMET's
// explanations for Ithemal and uiCA on Haswell and Skylake.
func (s *Session) Table3() (*Table, error) {
	t := &Table{
		ID:     "table3",
		Title:  "Average precision and coverage of COMET's explanations",
		Header: []string{"Model", "Av. Precision", "Av. Coverage"},
	}
	for _, model := range s.modelsUnderStudy() {
		_, expls, err := s.testExplanations(model)
		if err != nil {
			return nil, err
		}
		var ps, cs []float64
		for _, e := range expls {
			ps = append(ps, e.Precision)
			cs = append(cs, e.Coverage)
		}
		pMean, pStd := stats.MeanStd(ps)
		cMean, cStd := stats.MeanStd(cs)
		t.Rows = append(t.Rows, []string{
			modelLabel(model),
			fmt.Sprintf("%.2f ± %.3f", pMean, pStd/sqrtN(len(ps))),
			fmt.Sprintf("%.2f ± %.3f", cMean, cStd/sqrtN(len(cs))),
		})
	}
	t.Notes = append(t.Notes,
		"± is the standard error over test blocks",
		"paper: precision 0.78-0.81, coverage 0.18-0.19 across all four model/µarch pairs")
	return t, nil
}

func sqrtN(n int) float64 {
	if n < 1 {
		return 1
	}
	return math.Sqrt(float64(n))
}

// granularityRows computes, for a subset of the shared test set, each
// model's MAPE against hardware labels alongside the share of explanations
// containing η, instruction, and dependency features — the Figure 2-4
// series. keep selects the partition (nil = all blocks).
func (s *Session) granularityRows(keep func(bhive.Block) bool) ([][]string, error) {
	var rows [][]string
	for _, model := range s.modelsUnderStudy() {
		blocks, expls, err := s.testExplanations(model)
		if err != nil {
			return nil, err
		}
		var subsetBlocks []bhive.Block
		var subsetExpls []*core.Explanation
		for i, b := range blocks {
			if keep == nil || keep(b) {
				subsetBlocks = append(subsetBlocks, b)
				subsetExpls = append(subsetExpls, expls[i])
			}
		}
		if len(subsetBlocks) == 0 {
			continue
		}
		eta, inst, dep := kindPercents(subsetExpls)
		rows = append(rows, []string{
			modelLabel(model),
			f1(mapeOf(model, subsetBlocks)),
			f1(eta), f1(inst), f1(dep),
		})
	}
	return rows, nil
}

var granularityHeader = []string{"Model", "MAPE(%)", "%expl with η", "%expl with inst", "%expl with δ"}

// Figure2 reproduces Figure 2: error versus explanation-feature granularity
// on the full test set, for Haswell and Skylake.
func (s *Session) Figure2() (*Table, error) {
	rows, err := s.granularityRows(nil)
	if err != nil {
		return nil, err
	}
	return &Table{
		ID:     "fig2",
		Title:  "MAPE vs granularity of explanation features (full test set)",
		Header: granularityHeader,
		Rows:   rows,
		Notes: []string{
			"paper's hypothesis: lower-error models (uiCA) rely on finer-grained features (inst, δ); higher-error models (Ithemal) more often on η",
		},
	}, nil
}

// partition is one named subset of the shared test set.
type partition struct {
	name string
	keep func(bhive.Block) bool
}

// partitioned runs the granularity study on each partition of the shared
// test set, one row per (partition, model) with blocks in it.
func (s *Session) partitioned(id, title, label string, parts []partition, note string) (*Table, error) {
	t := &Table{ID: id, Title: title, Header: append([]string{label}, granularityHeader...), Notes: []string{note}}
	for _, part := range parts {
		rows, err := s.granularityRows(part.keep)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			t.Rows = append(t.Rows, append([]string{part.name}, row...))
		}
	}
	return t, nil
}

// Figure3 reproduces Figure 3: the granularity study partitioned by BHive
// source (Clang-like vs OpenBLAS-like blocks).
func (s *Session) Figure3() (*Table, error) {
	var parts []partition
	for _, src := range bhive.Sources() {
		parts = append(parts, partition{string(src), func(b bhive.Block) bool { return b.Source == src }})
	}
	return s.partitioned("fig3", "MAPE vs explanation granularity by BHive source partition", "Source",
		parts, "partitions of the shared test set; sample sizes shrink accordingly")
}

// Figure4 reproduces Figure 4: the granularity study partitioned by BHive
// category (Load, Store, Load/Store, Scalar, Vector, Scalar/Vector).
func (s *Session) Figure4() (*Table, error) {
	var parts []partition
	for _, cat := range bhive.Categories() {
		parts = append(parts, partition{cat.String(), func(b bhive.Block) bool { return b.Category == cat }})
	}
	return s.partitioned("fig4", "MAPE vs explanation granularity by BHive category", "Category",
		parts, "partitions of the shared test set; sparse categories may be absent")
}
