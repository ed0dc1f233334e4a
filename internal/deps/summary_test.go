package deps_test

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// summaryOptions are the dependency options the summary serves.
var summaryOptions = []deps.Options{{}, {TrackFlags: true}}

// checkSummary asserts that b's access summary agrees with its graph:
// both fail with the same error, or HasHazard equals Build().HasEdge on
// every instruction pair (out-of-range and backward pairs included) and
// hazard, and each entry carries its instruction's spec and form.
func checkSummary(t *testing.T, b *x86.BasicBlock, opts deps.Options) {
	t.Helper()
	g, gerr := deps.Build(b, opts)
	sum, serr := deps.AppendSummary(nil, b, opts)
	if gerr != nil || serr != nil {
		if fmt.Sprint(gerr) != fmt.Sprint(serr) {
			t.Fatalf("%+v %q: Build error %v, AppendSummary error %v", opts, b, gerr, serr)
		}
		return
	}
	if len(sum) != b.Len() {
		t.Fatalf("%+v %q: %d summary entries for %d instructions", opts, b, len(sum), b.Len())
	}
	for i, inst := range b.Instructions {
		spec, _ := inst.Spec()
		form, _ := inst.Form()
		if sum[i].Spec != spec || sum[i].Form != form {
			t.Fatalf("%+v %q: instruction %d resolved to %p/%p, want %p/%p", opts, b, i, sum[i].Spec, sum[i].Form, spec, form)
		}
	}
	for i := -1; i <= b.Len(); i++ {
		for j := -1; j <= b.Len(); j++ {
			for _, h := range []deps.Hazard{deps.RAW, deps.WAR, deps.WAW} {
				if got, want := sum.HasHazard(i, j, h), g.HasEdge(i, j, h); got != want {
					t.Fatalf("%+v %q: HasHazard(%d, %d, %v) = %v, graph has %v (edges %v)", opts, b, i, j, h, got, want, g.Edges)
				}
			}
		}
	}
}

// TestSummaryMatchesGraphOnDraws checks the summary against the graph on
// Γ draws of bhive blocks: renamed registers, slid displacements,
// replaced opcodes and deletions.
func TestSummaryMatchesGraphOnDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range bhive.Generate(bhive.Config{N: 60, MinInstrs: 1, MaxInstrs: 16, Seed: 11, SkipLabels: true}) {
		p, err := perturb.New(d.Block, perturb.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 40; k++ {
			b := p.Sample(rng, nil).Block
			for _, opts := range summaryOptions {
				checkSummary(t, b, opts)
			}
		}
	}
}

func TestSummaryEdgeCases(t *testing.T) {
	for _, src := range []string{
		// Memory aliasing: same address at different widths, different
		// displacement, index with and without scale.
		"mov qword ptr [rdi + 8], rax\nmov ecx, dword ptr [rdi + 8]\nmov rdx, qword ptr [rdi + 16]",
		"mov qword ptr [rbx + rcx*8 - 8], rax\nadd rdx, qword ptr [rbx + rcx*8 - 8]\nadd rdx, qword ptr [rbx + rcx*4 - 8]",
		"mov qword ptr [rcx*1 + 8], rax\nmov rdx, qword ptr [rcx*1 + 8]\nmov rdx, qword ptr [rcx + 8]",
		// Read-modify-write memory, lea address-only reads, implicit
		// div operands, the stack, flags.
		"add qword ptr [rsi], rax\nadd qword ptr [rsi], rbx\nlea rax, [rsi + 8]",
		"mov ecx, edx\nxor edx, edx\nlea rax, [rcx + rax - 1]\ndiv rcx\nmov rdx, rcx\nimul rax, rcx",
		"push rax\npush rbx\npop rcx\npop rdx",
		"cmp rax, rbx\nadc rdx, rax\nsbb rcx, rdx",
		"vaddps ymm1, ymm2, ymm3\nmovups xmm3, xmmword ptr [rsi]\nvmulps ymm2, ymm1, ymm1",
	} {
		for _, opts := range summaryOptions {
			checkSummary(t, x86.MustParseBlock(src), opts)
		}
	}
	// Invalid blocks fail like Build does.
	bad := x86.NewBlock(x86.Instruction{Opcode: "add", Operands: []x86.Operand{x86.NewReg(x86.Reg{Family: x86.FamRAX, Size: x86.Size64})}})
	checkSummary(t, bad, deps.Options{})
	if _, err := deps.AppendSummary(nil, bad, deps.Options{}); err == nil {
		t.Error("AppendSummary accepted an instruction that matches no form")
	}
}

// FuzzAccessSummary parses arbitrary Intel-syntax text and, for every
// block the parser accepts, checks the access summary against the
// dependency graph. The graph takes its accesses from the summary's
// masks, so this checks the edge assembly — pairing reads and writes
// per location, memory locations grouped by key, the all-pairs rule —
// against the mask tests, and that both resolve and fail alike. Seeded
// from bhive blocks; wired into `make fuzz-smoke`.
func FuzzAccessSummary(f *testing.F) {
	for _, d := range bhive.Generate(bhive.Config{N: 24, MinInstrs: 2, MaxInstrs: 12, Seed: 3, SkipLabels: true}) {
		f.Add(d.Block.String())
	}
	f.Add("mov qword ptr [rbx + rcx*8 - 8], rax\nadd rdx, qword ptr [rbx + rcx*8 - 8]\npush rdx\npop rax\ndiv rcx")
	f.Fuzz(func(t *testing.T, src string) {
		b, err := x86.ParseBlock(src)
		if err != nil {
			return
		}
		for _, opts := range summaryOptions {
			checkSummary(t, b, opts)
		}
	})
}

// TestMemUopsMatchForm checks the summary's load and store counts
// against x86.MemUops on bhive blocks and their Γ draws.
func TestMemUopsMatchForm(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, d := range bhive.Generate(bhive.Config{N: 40, MinInstrs: 1, MaxInstrs: 16, Seed: 13, SkipLabels: true}) {
		p, err := perturb.New(d.Block, perturb.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		blocks := []*x86.BasicBlock{d.Block, x86.MustParseBlock("push rax\npop qword ptr [rsp + 8]\nadd qword ptr [rdi], rax")}
		for k := 0; k < 20; k++ {
			blocks = append(blocks, p.Sample(rng, nil).Block)
		}
		for _, b := range blocks {
			sum, err := deps.AppendSummary(nil, b, deps.Options{TrackFlags: true})
			if err != nil {
				t.Fatal(err)
			}
			for i := range sum {
				a := &sum[i]
				loads, stores := a.MemUops()
				wl, ws := x86.MemUops(a.Spec, a.Form, b.Instructions[i])
				if loads != wl || stores != ws {
					t.Fatalf("%v: MemUops %d/%d, x86.MemUops %d/%d", b.Instructions[i], loads, stores, wl, ws)
				}
			}
		}
	}
}
