package analytical

import (
	"math"
	"math/rand"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

func TestCostEta(t *testing.T) {
	m := New(x86.Haswell)
	if got := m.CostEta(8); got != 2.0 {
		t.Errorf("cost_η(8) = %v, want 2 (n/4)", got)
	}
}

func TestCostDepOnlyRAWCounts(t *testing.T) {
	m := New(x86.Haswell)
	a := x86.MustParseBlock("add rax, rbx").Instructions[0]
	b := x86.MustParseBlock("imul rcx, rax").Instructions[0]
	raw := m.CostDep(deps.RAW, a, b)
	if want := m.CostInst(a) + m.CostInst(b); math.Abs(raw-want) > 1e-9 {
		t.Errorf("RAW cost = %v, want sum of instruction costs %v", raw, want)
	}
	if m.CostDep(deps.WAR, a, b) != 0 || m.CostDep(deps.WAW, a, b) != 0 {
		t.Error("WAR/WAW must cost 0 (resolved by renaming, eq. 10)")
	}
}

func TestPredictIsMaxOfFeatureCosts(t *testing.T) {
	// Block dominated by its div instruction.
	m := New(x86.Haswell)
	b := x86.MustParseBlock("mov rax, rbx\ndiv rcx\nadd rsi, rdi")
	div := b.Instructions[1]
	pred := m.Predict(b)
	if pred < m.CostInst(div) {
		t.Errorf("C(β) = %v must be ≥ cost of div %v", pred, m.CostInst(div))
	}
	// The RAW between mov (writes rax) and div (reads rax) is the actual max:
	// cost_inst(mov) + cost_inst(div).
	want := m.CostInst(b.Instructions[0]) + m.CostInst(div)
	if math.Abs(pred-want) > 1e-9 {
		t.Errorf("C(β) = %v, want RAW-dominated %v", pred, want)
	}
}

func TestPredictEtaDominatedBlock(t *testing.T) {
	// Many independent cheap instructions: cost_η = n/4 wins over
	// individual costs (0.25 each) and there are no RAW deps.
	m := New(x86.Haswell)
	b := x86.MustParseBlock(`add rax, 1
		add rbx, 1
		add rcx, 1
		add rdx, 1
		add rsi, 1
		add rdi, 1
		add r8, 1
		add r9, 1`)
	if got, want := m.Predict(b), 2.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("C = %v, want η-dominated %v", got, want)
	}
	gt, err := m.GroundTruth(b)
	if err != nil {
		t.Fatal(err)
	}
	if !gt.HasKind(features.KindCount) {
		t.Errorf("GT should contain η; got %v", gt)
	}
}

func TestGroundTruthDivBlock(t *testing.T) {
	m := New(x86.Haswell)
	b := x86.MustParseBlock("mov rax, rbx\ndiv rcx\nadd rsi, rdi")
	gt, err := m.GroundTruth(b)
	if err != nil {
		t.Fatal(err)
	}
	// Max cost is the RAW(1→2): it must be in GT. div alone costs less, so
	// inst2 must NOT be in GT.
	foundRAW, foundDivInst := false, false
	for _, f := range gt {
		if f.Kind == features.KindDep && f.Src == 0 && f.Dst == 1 && f.Hazard == deps.RAW {
			foundRAW = true
		}
		if f.Kind == features.KindInstr && f.Index == 1 {
			foundDivInst = true
		}
	}
	if !foundRAW {
		t.Errorf("GT missing the dominating RAW: %v", gt)
	}
	if foundDivInst {
		t.Errorf("GT should not contain the div instruction alone: %v", gt)
	}
}

func TestGroundTruthTies(t *testing.T) {
	// Two identical divs with no deps: both instruction features tie.
	m := New(x86.Haswell)
	b := x86.MustParseBlock("div rcx\nadd rbx, rsi")
	// div implicitly writes rax/rdx; add doesn't touch them → no RAW into div.
	gt, err := m.GroundTruth(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(gt) == 0 {
		t.Fatal("empty ground truth")
	}
	max := 0.0
	for _, f := range gt {
		if c := m.FeatureCost(b, f); c > max {
			max = c
		}
	}
	for _, f := range gt {
		if math.Abs(m.FeatureCost(b, f)-max) > 1e-9 {
			t.Errorf("GT member %v does not achieve the max cost", f)
		}
	}
}

func TestGroundTruthConsistentWithPredict(t *testing.T) {
	m := New(x86.Skylake)
	blocks := []string{
		"add rcx, rax\nmov rdx, rcx\npop rbx",
		"imul rax, rbx\nimul rax, rcx",
		"mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]",
		"vdivss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
	}
	for _, src := range blocks {
		b := x86.MustParseBlock(src)
		gt, err := m.GroundTruth(b)
		if err != nil {
			t.Fatal(err)
		}
		pred := m.Predict(b)
		for _, f := range gt {
			if math.Abs(m.FeatureCost(b, f)-pred) > 1e-9 {
				t.Errorf("%q: GT feature %v cost %v ≠ C(β) %v", src, f, m.FeatureCost(b, f), pred)
			}
		}
	}
}

func TestArchesDiffer(t *testing.T) {
	// The div cost differs between HSW and SKL, so C differs on div blocks.
	b := x86.MustParseBlock("div rcx")
	h := New(x86.Haswell).Predict(b)
	s := New(x86.Skylake).Predict(b)
	if h == s {
		t.Errorf("C_HSW and C_SKL should differ on div blocks, both %v", h)
	}
}

func TestPredictInvalidBlockZero(t *testing.T) {
	m := New(x86.Haswell)
	if got := m.Predict(&x86.BasicBlock{}); got != 0 {
		t.Errorf("invalid block cost = %v, want 0", got)
	}
	valid := x86.MustParseBlock("div rcx\nadd rax, rbx").Instructions
	for name, b := range map[string]*x86.BasicBlock{
		"unknown opcode": x86.NewBlock(valid[0], x86.Instruction{Opcode: "bogus"}),
		"no matching form": x86.NewBlock(valid[0], x86.Instruction{Opcode: "add",
			Operands: []x86.Operand{x86.NewImm(1, x86.Size8), x86.NewImm(2, x86.Size8)}}),
	} {
		if got := m.Predict(b); got != 0 {
			t.Errorf("%s: C(β) = %v, want 0", name, got)
		}
		if _, err := m.GroundTruth(b); err == nil {
			t.Errorf("%s: GroundTruth accepted an invalid block", name)
		}
	}
}

// TestPredictPropertyPerturbedBlocks checks the one-pass evaluation
// against eq. 8 and eq. 9 written out over ˆP, on Γ draws of bhive
// blocks (deletions, opcode replacements and renamed operands included):
// C(β) is the maximum feature cost and equals the edge-based evaluation
// GroundTruth runs, and every ground-truth feature costs C(β), up to
// GroundTruth's tie tolerance.
func TestPredictPropertyPerturbedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, arch := range x86.Arches() {
		m := New(arch)
		for _, d := range bhive.Generate(bhive.Config{N: 40, MinInstrs: 1, MaxInstrs: 12, Seed: 9, SkipLabels: true}) {
			p, err := perturb.New(d.Block, perturb.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 10; k++ {
				b := p.Sample(rng, nil).Block
				all, err := features.ExtractFromBlock(b, deps.Options{})
				if err != nil {
					t.Fatalf("%q: %v", b, err)
				}
				want := 0.0
				for _, f := range all {
					want = max(want, m.FeatureCost(b, f))
				}
				pred := m.Predict(b)
				if pred != want {
					t.Fatalf("%v %q: C(β) = %v, max feature cost %v", arch, b, pred, want)
				}
				if ev, err := m.evaluate(b); err != nil || ev.cost != pred {
					t.Fatalf("%v %q: summary C(β) = %v, edge-based evaluate %v (%v)", arch, b, pred, ev.cost, err)
				}
				gt, err := m.GroundTruth(b)
				if err != nil || len(gt) == 0 {
					t.Fatalf("%v %q: GroundTruth = %v, %v", arch, b, gt, err)
				}
				for _, f := range gt {
					if c := m.FeatureCost(b, f); math.Abs(c-pred) > 1e-9 {
						t.Fatalf("%v %q: GT feature %v costs %v, C(β) = %v", arch, b, f, c, pred)
					}
				}
			}
		}
	}
}
