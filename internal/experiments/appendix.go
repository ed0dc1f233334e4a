package experiments

import (
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// Paper listings used by the case studies and Appendix F.
const (
	// ListingCase1 is Listing 2 (§6.4 case study 1).
	ListingCase1 = `lea rdx, [rax + 1]
mov qword ptr [rdi + 24], rdx
mov byte ptr [rax], 80
mov rsi, qword ptr [r14 + 32]
mov rdi, rbp`

	// ListingCase2 is Listing 3 (§6.4 case study 2).
	ListingCase2 = `mov ecx, edx
xor edx, edx
lea rax, [rcx + rax - 1]
div rcx
mov rdx, rcx
imul rax, rcx`

	// ListingBeta1 is Listing 4 (Appendix F, β1).
	ListingBeta1 = `vdivss xmm0, xmm0, xmm6
vmulss xmm7, xmm0, xmm0
vxorps xmm0, xmm0, xmm5
vaddss xmm7, xmm7, xmm3
vmulss xmm6, xmm6, xmm7
vdivss xmm6, xmm3, xmm6
vmulss xmm0, xmm6, xmm0`

	// ListingBeta2 is Listing 5 (Appendix F, β2).
	ListingBeta2 = `shl eax, 3
imul rax, r15
xor edx, edx
add rax, 7
shr rax, 3
lea rax, [rbp + rax - 1]
div rbp
imul rax, rbp
mov rbp, qword ptr [rsp + 8]
sub rbp, rax`
)

// AppendixF reproduces the Appendix F perturbation-space size estimates:
// |Π̂(F)| for the two listings with F = ∅ and F = {inst_k}.
func (s *Session) AppendixF() (*Table, error) {
	t := &Table{
		ID:     "appf",
		Title:  "Perturbation space cardinality estimates |Π̂(F)|",
		Header: []string{"Block", "F", "|Π̂(F)| (estimate)", "paper"},
	}
	cases := []struct {
		name, src, fLabel string
		fInstr            int // preserved instruction index, −1 for ∅
		paper             string
	}{
		{"β1", ListingBeta1, "∅", -1, "1.94e+38"},
		{"β1", ListingBeta1, "{inst1}", 0, "6.58e+29"},
		{"β2", ListingBeta2, "∅", -1, "1.63e+32"},
		{"β2", ListingBeta2, "{inst2}", 1, "2.77e+28"},
	}
	for _, c := range cases {
		b, err := x86.ParseBlock(c.src)
		if err != nil {
			return nil, err
		}
		p, err := perturb.New(b, perturb.DefaultConfig())
		if err != nil {
			return nil, err
		}
		var preserve features.Set
		if c.fInstr >= 0 {
			preserve = p.Features().Filter(func(f features.Feature) bool {
				return f.Kind == features.KindInstr && f.Index == c.fInstr
			})
		}
		t.Rows = append(t.Rows, []string{
			c.name, c.fLabel,
			perturb.FormatSpaceSize(p.SpaceSize(preserve)),
			c.paper,
		})
	}
	t.Notes = append(t.Notes,
		"estimates use this repo's opcode table; the paper's exact values depend on the full x86 ISA — the comparison is about astronomical magnitude and the Π-monotonicity, not digits")
	return t, nil
}

// CaseStudies reproduces the §6.4 case studies: predictions and COMET
// explanations for the two paper blocks under Ithemal and uiCA (Haswell).
func (s *Session) CaseStudies() (*Table, error) {
	t := &Table{
		ID:     "cases",
		Title:  "Case studies (paper §6.4, Haswell)",
		Header: []string{"Block", "Model", "Prediction (cyc)", "Explanation"},
	}
	listings := []struct{ name, src string }{
		{"case1", ListingCase1},
		{"case2", ListingCase2},
	}
	models := []costmodel.Model{s.Ithemal(x86.Haswell), s.UICA(x86.Haswell)}
	for _, l := range listings {
		b, err := x86.ParseBlock(l.src)
		if err != nil {
			return nil, err
		}
		hw := s.Hardware(x86.Haswell).Throughput(b)
		t.Rows = append(t.Rows, []string{l.name, "hardware(sim)", f2(hw), "-"})
		for _, m := range models {
			cfg := s.explainConfig(5)
			expl, err := core.NewExplainer(m, cfg).Explain(b)
			if err != nil {
				return nil, err
			}
			t.Rows = append(t.Rows, []string{l.name, modelLabel(m), f2(expl.Prediction), expl.Features.String()})
		}
	}
	t.Notes = append(t.Notes,
		"paper case 1: both models 2 cycles, explanations = the two stores {inst2, inst3}",
		"paper case 2: Ithemal 23 / uiCA 36 vs actual 39; Ithemal explains with η only, uiCA with {δRAW(3→6), inst4}",
	)
	return t, nil
}
