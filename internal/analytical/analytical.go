// Package analytical implements C, the paper's crude-but-interpretable
// analytical cost model (Section 6, eq. 8 and Appendix G), together with
// its closed-form ground-truth explanations GT(β) (eq. 9). C exists so
// COMET's explanation *accuracy* can be measured objectively: because C's
// bottleneck feature is known analytically, an explanation is accurate iff
// it names at least one maximum-cost feature and nothing else.
//
// Cost functions (Appendix G):
//
//	cost_inst(inst) = the instruction's standalone reciprocal throughput
//	                  (from the embedded uops.info-style table);
//	cost_dep(δij)   = cost_inst(i) + cost_inst(j) for RAW (a true
//	                  dependency serializes the pair), 0 for WAR/WAW
//	                  (resolved by register renaming);
//	cost_η(n)       = n/4 (the issue-width baseline of Abel & Reineke).
//
// C(β) = max(cost_η, max_i cost_inst, max_ij cost_dep).
package analytical

import (
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/x86"
)

// Model is the crude interpretable cost model C for one microarchitecture.
type Model struct {
	arch    x86.Arch
	depOpts deps.Options
}

var (
	_ costmodel.Model      = (*Model)(nil)
	_ costmodel.BatchModel = (*Model)(nil)
)

// New builds C for the given microarchitecture.
func New(arch x86.Arch) *Model {
	return &Model{arch: arch}
}

// Name implements costmodel.Model.
func (m *Model) Name() string { return "C" }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.arch }

// Epsilon is the ε-ball radius the paper uses when explaining C: a quarter
// unit, the smallest possible change of cost_η.
const Epsilon = 0.25

// CostInst returns cost_inst for one instruction.
func (m *Model) CostInst(inst x86.Instruction) float64 {
	return x86.InstThroughput(m.arch, inst)
}

// CostDep returns cost_dep for a dependency edge between the two
// instructions (eq. 10 in Appendix G).
func (m *Model) CostDep(h deps.Hazard, src, dst x86.Instruction) float64 {
	if h != deps.RAW {
		return 0
	}
	return m.CostInst(src) + m.CostInst(dst)
}

// CostEta returns cost_η(n) = n/4.
func (m *Model) CostEta(n int) float64 { return float64(n) / 4 }

// Predict implements costmodel.Model: C(β) per eq. 8. Invalid blocks cost 0.
func (m *Model) Predict(b *x86.BasicBlock) float64 {
	// Blocks of up to 16 instructions and 64 edges evaluate without a
	// heap allocation; larger ones grow the buffers.
	var inst [16]float64
	var edges [64]deps.Edge
	ev, err := m.evaluate(b, inst[:0], edges[:0])
	if err != nil {
		return 0
	}
	return ev.cost
}

// PredictBatch implements costmodel.BatchModel by parallel fan-out; the
// model is stateless, so evaluations are independent.
func (m *Model) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return costmodel.FanOut(blocks, 0, m.Predict)
}

// GroundTruth returns GT(β): every feature of ˆP whose cost equals C(β)
// (eq. 9). The set may contain several equally-critical features.
func (m *Model) GroundTruth(b *x86.BasicBlock) (features.Set, error) {
	ev, err := m.evaluate(b, nil, nil)
	if err != nil {
		return nil, err
	}
	var gt features.Set
	const tie = 1e-9
	for _, f := range features.Extract(&deps.Graph{Block: b, Edges: ev.edges}) {
		if m.featureCost(ev, f) >= ev.cost-tie {
			gt = append(gt, f)
		}
	}
	return gt, nil
}

// evaluation is one pass of C over a block: each instruction's cost_inst,
// the dependency edges, and C(β) itself.
type evaluation struct {
	inst  []float64 // cost_inst per instruction
	edges []deps.Edge
	cost  float64
}

// evaluate computes C(β) = max(cost_η, max_i cost_inst, max_RAW cost_dep),
// costing each instruction once and appending into the given buffers.
// WAR and WAW edges cost 0 and never raise the maximum.
func (m *Model) evaluate(b *x86.BasicBlock, inst []float64, edges []deps.Edge) (evaluation, error) {
	edges, err := deps.AppendEdges(edges, b, m.depOpts)
	if err != nil {
		return evaluation{}, err
	}
	cost := m.CostEta(b.Len())
	for _, in := range b.Instructions {
		c := m.CostInst(in)
		inst = append(inst, c)
		cost = max(cost, c)
	}
	for _, e := range edges {
		if e.Hazard == deps.RAW {
			cost = max(cost, inst[e.Src]+inst[e.Dst])
		}
	}
	return evaluation{inst: inst, edges: edges, cost: cost}, nil
}

// featureCost is FeatureCost over the evaluated instruction costs.
func (m *Model) featureCost(ev evaluation, f features.Feature) float64 {
	switch f.Kind {
	case features.KindInstr:
		return ev.inst[f.Index]
	case features.KindDep:
		if f.Hazard == deps.RAW {
			return ev.inst[f.Src] + ev.inst[f.Dst]
		}
	case features.KindCount:
		return m.CostEta(f.Count)
	}
	return 0
}

// FeatureCost exposes the per-feature cost, used by tests and the
// experiment harness to cross-check GT(β).
func (m *Model) FeatureCost(b *x86.BasicBlock, f features.Feature) float64 {
	switch f.Kind {
	case features.KindInstr:
		if f.Index < b.Len() {
			return m.CostInst(b.Instructions[f.Index])
		}
	case features.KindDep:
		if f.Src < b.Len() && f.Dst < b.Len() {
			return m.CostDep(f.Hazard, b.Instructions[f.Src], b.Instructions[f.Dst])
		}
	case features.KindCount:
		return m.CostEta(f.Count)
	}
	return 0
}
