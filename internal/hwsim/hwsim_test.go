package hwsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/comet-explain/comet/internal/x86"
)

func hsw() *Simulator { return New(HardwareConfig(x86.Haswell)) }
func skl() *Simulator { return New(HardwareConfig(x86.Skylake)) }

func tput(t *testing.T, sim *Simulator, src string) float64 {
	t.Helper()
	b, err := x86.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Throughput(b)
}

func TestCaseStudy1StoreBound(t *testing.T) {
	// Paper §6.4 case study 1: both models (and hardware) report 2 cycles;
	// the block is bound by its two stores sharing the store-data port.
	src := `lea rdx, [rax + 1]
		mov qword ptr [rdi + 24], rdx
		mov byte ptr [rax], 80
		mov rsi, qword ptr [r14 + 32]
		mov rdi, rbp`
	got := tput(t, hsw(), src)
	if got < 1.8 || got > 2.6 {
		t.Errorf("case study 1 throughput = %.2f, want ≈2 (store bound)", got)
	}
}

func TestCaseStudy2DivBound(t *testing.T) {
	// Paper §6.4 case study 2: a 64-bit div dominates (~30-40 cycles on
	// hardware). Our synthetic tables put it in the same regime.
	src := `mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`
	got := tput(t, hsw(), src)
	if got < 15 || got > 45 {
		t.Errorf("case study 2 throughput = %.2f, want div-dominated (15..45)", got)
	}
	// Removing the div should collapse the cost.
	noDiv := `mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		mov rdx, rcx
		imul rax, rcx`
	if without := tput(t, hsw(), noDiv); without >= got/3 {
		t.Errorf("deleting div should collapse cost: with=%.2f without=%.2f", got, without)
	}
}

func TestDependencyChainSlowsBlock(t *testing.T) {
	// Loop-carried RAW chain of imuls vs independent imuls.
	chain := "imul rax, rbx\nimul rax, rcx\nimul rax, rdx"
	indep := "imul rax, rbx\nimul rcx, rbx\nimul rdx, rbx"
	c := tput(t, hsw(), chain)
	i := tput(t, hsw(), indep)
	if !(c > i*1.5) {
		t.Errorf("dependency chain should be much slower: chain=%.2f indep=%.2f", c, i)
	}
	// Chain ≈ 3 × imul latency (3 cycles each).
	if c < 8 || c > 10 {
		t.Errorf("imul chain = %.2f, want ≈9 (3×lat 3)", c)
	}
}

func TestFrontendWidthBound(t *testing.T) {
	// Eight independent single-uop adds: bound by the 4-wide frontend at
	// 2 cycles per iteration (ports could do 4/cycle too).
	src := `add rax, 1
		add rbx, 1
		add rcx, 1
		add rdx, 1
		add rsi, 1
		add rdi, 1
		add r8, 1
		add r9, 1`
	got := tput(t, hsw(), src)
	if math.Abs(got-2.0) > 0.3 {
		t.Errorf("8 independent adds = %.2f cycles, want ≈2 (frontend bound)", got)
	}
}

func TestStorePortBound(t *testing.T) {
	// Three independent stores: bound by the single store-data port.
	src := `mov qword ptr [rdi], rax
		mov qword ptr [rsi + 8], rbx
		mov qword ptr [rdx + 16], rcx`
	got := tput(t, hsw(), src)
	if math.Abs(got-3.0) > 0.4 {
		t.Errorf("3 stores = %.2f cycles, want ≈3 (port 4 bound)", got)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	// Store feeding a load from the same address is slower than
	// independent accesses.
	fwd := "mov qword ptr [rdi], rax\nmov rbx, qword ptr [rdi]\nadd rbx, 1\nmov qword ptr [rdi], rbx"
	got := tput(t, hsw(), fwd)
	if got < 3 {
		t.Errorf("store→load→store chain = %.2f, expected serialization ≥3", got)
	}
}

func TestSkylakeNotSlowerOnDivides(t *testing.T) {
	src := "div rcx\nadd rax, rbx"
	h := tput(t, hsw(), src)
	s := tput(t, skl(), src)
	if s > h {
		t.Errorf("Skylake divide (%.2f) should not be slower than Haswell (%.2f)", s, h)
	}
}

func TestApproxConfigCloseToHardware(t *testing.T) {
	// The uiCA surrogate must track the hardware closely (small relative
	// error) across a spread of blocks — its defining property.
	blocks := []string{
		"add rcx, rax\nmov rdx, rcx\npop rbx",
		"imul rax, rbx\nimul rax, rcx",
		"mov rax, qword ptr [rbx]\nadd rax, rcx\nmov qword ptr [rbx], rax",
		"vaddss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
		"shl eax, 3\nadd rbx, rax\nxor rcx, rcx",
	}
	hw := New(HardwareConfig(x86.Haswell))
	approx := New(ApproxConfig(x86.Haswell))
	for _, src := range blocks {
		b := x86.MustParseBlock(src)
		h, a := hw.Throughput(b), approx.Throughput(b)
		if h == 0 {
			continue
		}
		if rel := math.Abs(h-a) / h; rel > 0.35 {
			t.Errorf("approx config too far from hardware on %q: hw=%.2f approx=%.2f", src, h, a)
		}
	}
}

func TestInvalidBlockIsInf(t *testing.T) {
	sim := hsw()
	if got := sim.Throughput(&x86.BasicBlock{}); !math.IsInf(got, 1) {
		t.Errorf("empty block throughput = %v, want +Inf", got)
	}
	bad := &x86.BasicBlock{Instructions: []x86.Instruction{{Opcode: "bogus"}}}
	if got := sim.Throughput(bad); !math.IsInf(got, 1) {
		t.Errorf("invalid block throughput = %v, want +Inf", got)
	}
}

func TestThroughputDeterministic(t *testing.T) {
	src := "add rcx, rax\nmov rdx, rcx\npop rbx"
	if tput(t, hsw(), src) != tput(t, hsw(), src) {
		t.Error("simulation must be deterministic")
	}
}

func TestThroughputPositiveAndFinite(t *testing.T) {
	// Property: every valid block simulates to a positive finite cost that
	// is at least the frontend lower bound and at most a generous serial
	// upper bound.
	opcodes2 := []string{"add", "sub", "xor", "mov", "imul", "and", "or"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fams := x86.GPFamilies()
		n := 1 + rng.Intn(8)
		var insts []x86.Instruction
		for i := 0; i < n; i++ {
			op := opcodes2[rng.Intn(len(opcodes2))]
			r1 := x86.NewReg(x86.Reg{Family: fams[rng.Intn(8)], Size: x86.Size64})
			r2 := x86.NewReg(x86.Reg{Family: fams[rng.Intn(8)], Size: x86.Size64})
			insts = append(insts, x86.Instruction{Opcode: op, Operands: []x86.Operand{r1, r2}})
		}
		b := x86.NewBlock(insts...)
		if b.Validate() != nil {
			return true // imul 8-bit etc. — skip invalid draws
		}
		got := hsw().Throughput(b)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Logf("bad throughput %v for\n%s", got, b)
			return false
		}
		lower := float64(n)/4.0 - 0.6
		upper := float64(n) * 40
		return got >= lower && got <= upper
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 250}); err != nil {
		t.Error(err)
	}
}

func TestLongerBlocksNotFaster(t *testing.T) {
	// Appending an independent instruction never reduces throughput cost.
	base := x86.MustParseBlock("add rax, rbx\nimul rcx, rdx")
	ext := x86.MustParseBlock("add rax, rbx\nimul rcx, rdx\nadd rsi, rdi")
	if tput0, tput1 := hsw().Throughput(base), hsw().Throughput(ext); tput1+1e-9 < tput0 {
		t.Errorf("extended block got faster: %.3f → %.3f", tput0, tput1)
	}
}

func TestVectorDivideChain(t *testing.T) {
	// The Appendix F β1 block: two chained vdivss ops dominate.
	src := `vdivss xmm0, xmm0, xmm6
		vmulss xmm7, xmm0, xmm0
		vxorps xmm0, xmm0, xmm5
		vaddss xmm7, xmm7, xmm3
		vmulss xmm6, xmm6, xmm7
		vdivss xmm6, xmm3, xmm6
		vmulss xmm0, xmm6, xmm0`
	got := tput(t, hsw(), src)
	if got < 20 {
		t.Errorf("chained FP divides should dominate: %.2f cycles", got)
	}
}

func TestIssueOnPort(t *testing.T) {
	// Among equally free eligible ports the lowest index wins; port 0 is
	// free but not eligible.
	free := []float64{0, 5, 3, 3, 3, 0, 0, 0}
	if got := issueOnPort(1, x86.Port(2, 3, 4), 1, free); got != 3 {
		t.Errorf("issue cycle = %v, want 3 (port 2 frees at 3)", got)
	}
	if want := []float64{0, 5, 4, 3, 3, 0, 0, 0}; !slices.Equal(free, want) {
		t.Errorf("ports after the tie = %v, want %v", free, want)
	}

	// An empty eligible set issues at earliest and touches no port.
	before := slices.Clone(free)
	if got := issueOnPort(7, 0, 1, free); got != 7 {
		t.Errorf("empty set: issue cycle = %v, want earliest 7", got)
	}
	if !slices.Equal(free, before) {
		t.Errorf("empty set moved ports: %v, want %v", free, before)
	}

	// Occupancy moves the chosen port's free cycle past the issue cycle;
	// the next uop then prefers the other, earlier-free port.
	free = []float64{0, 2, 0, 0, 0, 0, 0, 0}
	if got := issueOnPort(4, x86.Port(0, 1), 10, free); got != 4 {
		t.Errorf("issue cycle = %v, want 4 (earliest bounds port 0)", got)
	}
	if free[0] != 14 || free[1] != 2 {
		t.Errorf("ports 0,1 free at %v,%v, want 14,2", free[0], free[1])
	}
	if got := issueOnPort(0, x86.Port(0, 1), 1, free); got != 2 || free[1] != 3 {
		t.Errorf("next uop issued at %v with port 1 free at %v, want 2 and 3", got, free[1])
	}
}
