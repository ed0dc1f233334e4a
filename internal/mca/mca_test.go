package mca

import (
	"math"
	"testing"

	"github.com/comet-explain/comet/internal/hwsim"
	"github.com/comet-explain/comet/internal/stats"
	"github.com/comet-explain/comet/internal/x86"
)

func predict(t *testing.T, src string) float64 {
	t.Helper()
	b, err := x86.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	return New(x86.Haswell).Predict(b)
}

func TestFrontendBound(t *testing.T) {
	got := predict(t, `add rax, 1
		add rbx, 1
		add rcx, 1
		add rdx, 1
		add rsi, 1
		add rdi, 1
		add r8, 1
		add r9, 1`)
	if math.Abs(got-2.0) > 0.01 {
		t.Errorf("8 independent adds = %.2f, want 2 (8 uops / width 4)", got)
	}
}

func TestChainBound(t *testing.T) {
	got := predict(t, "imul rax, rbx\nimul rax, rcx\nimul rax, rdx")
	if got < 8.5 || got > 9.5 {
		t.Errorf("imul chain = %.2f, want ≈9", got)
	}
}

// TestChainBoundKillsOverwrittenValues: a loop-carried dependency runs
// only from the block's last writer of a location, so a value overwritten
// later in the iteration carries no chain across the back edge. Memory
// locations kill only at the same address.
func TestChainBoundKillsOverwrittenValues(t *testing.T) {
	for _, c := range []struct {
		src    string
		lo, hi float64
	}{
		// imul's rax chain (latency 3) is cut by the mov; port pressure
		// bounds the block instead.
		{"imul rax, rax\nmov rax, rbx", 0, 2},
		{"imul rax, rax\nmov rbx, rax", 2.99, 3.01},
		// The read-modify-write chain through [rdi] survives a store to
		// [rdi + 8] and is cut by a store to [rdi].
		{"add qword ptr [rdi], rax\nmov qword ptr [rdi + 8], rbx", 5, 100},
		{"add qword ptr [rdi], rax\nmov qword ptr [rdi], rbx", 0, 3},
	} {
		if got := predict(t, c.src); got < c.lo || got > c.hi {
			t.Errorf("%q = %.2f, want in [%v, %v]", c.src, got, c.lo, c.hi)
		}
	}
}

func TestDivDominates(t *testing.T) {
	withDiv := predict(t, "div rcx\nadd rax, rbx")
	without := predict(t, "mov rdx, rcx\nadd rax, rbx")
	if !(withDiv > 5*without) {
		t.Errorf("div should dominate: %.2f vs %.2f", withDiv, without)
	}
}

func TestStorePressure(t *testing.T) {
	got := predict(t, `mov qword ptr [rdi], rax
		mov qword ptr [rsi + 8], rbx
		mov qword ptr [rdx + 16], rcx`)
	if math.Abs(got-3.0) > 0.2 {
		t.Errorf("3 stores = %.2f, want ≈3 (store-data port)", got)
	}
}

func TestHigherErrorThanSimulator(t *testing.T) {
	// The paper's observation (§1): static-analysis models err more than a
	// careful simulator. Measure both against the hardware stand-in.
	blocks := []string{
		"add rcx, rax\nmov rdx, rcx\npop rbx",
		"mov rax, qword ptr [rbx]\nimul rax, rcx\nmov qword ptr [rbx], rax",
		"div rcx\nadd rax, rbx\nxor rdx, rdx",
		"vaddss xmm0, xmm1, xmm2\nvmulss xmm3, xmm0, xmm0",
		"lea rdx, [rax + 1]\nmov qword ptr [rdi + 24], rdx\nmov byte ptr [rax], 80",
		"imul rax, rbx\nimul rax, rcx\nadd rsi, rdi\nshl r8, 2",
	}
	hw := hwsim.New(hwsim.HardwareConfig(x86.Haswell))
	approx := hwsim.New(hwsim.ApproxConfig(x86.Haswell))
	static := New(x86.Haswell)
	var hwVals, simVals, mcaVals []float64
	for _, src := range blocks {
		b := x86.MustParseBlock(src)
		hwVals = append(hwVals, hw.Throughput(b))
		simVals = append(simVals, approx.Throughput(b))
		mcaVals = append(mcaVals, static.Predict(b))
	}
	simErr := stats.MAPE(simVals, hwVals)
	mcaErr := stats.MAPE(mcaVals, hwVals)
	if !(mcaErr >= simErr) {
		t.Errorf("static analyzer (%.1f%%) should err at least as much as the simulator (%.1f%%)", mcaErr, simErr)
	}
}

func TestPredictionsFiniteAndPositive(t *testing.T) {
	blocks := []string{
		"nop", "push rbp", "pop rbp", "cqo",
		"mov byte ptr [rax], 80",
		"vdivss xmm0, xmm0, xmm6\nvmulss xmm7, xmm0, xmm0",
	}
	m := New(x86.Skylake)
	for _, src := range blocks {
		b := x86.MustParseBlock(src)
		got := m.Predict(b)
		if math.IsNaN(got) || math.IsInf(got, 0) || got <= 0 {
			t.Errorf("%q: predicted %v", src, got)
		}
	}
}

func TestInvalidBlockInf(t *testing.T) {
	m := New(x86.Haswell)
	if got := m.Predict(&x86.BasicBlock{}); !math.IsInf(got, 1) {
		t.Errorf("empty block = %v, want +Inf", got)
	}
	noForm := x86.NewBlock(x86.Instruction{Opcode: "add", Operands: []x86.Operand{x86.NewReg(x86.Reg{Family: x86.FamRAX, Size: x86.Size64})}})
	if got := m.Predict(noForm); !math.IsInf(got, 1) {
		t.Errorf("block matching no form = %v, want +Inf", got)
	}
}

func TestInterface(t *testing.T) {
	m := New(x86.Haswell)
	if m.Name() != "mca" || m.Arch() != x86.Haswell {
		t.Errorf("metadata wrong: %q %v", m.Name(), m.Arch())
	}
}
