package deps

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/comet-explain/comet/internal/x86"
)

func build(t *testing.T, src string, opts Options) *Graph {
	t.Helper()
	b, err := x86.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestMotivatingExampleRAW(t *testing.T) {
	// Listing 1(a): add rcx, rax / mov rdx, rcx / pop rbx.
	// The single register dependency is RAW 1→2 on rcx.
	g := build(t, "add rcx, rax\nmov rdx, rcx\npop rbx", Options{})
	if !g.HasEdge(0, 1, RAW) {
		t.Fatalf("expected RAW 1→2; edges: %v", g.Edges)
	}
	for _, e := range g.Edges {
		if e.Loc.Kind == LocReg && !(e.Src == 0 && e.Dst == 1 && e.Hazard == RAW) {
			t.Errorf("unexpected register edge %v", e)
		}
	}
}

func TestCaseStudy2PaperEdges(t *testing.T) {
	// Listing 3. The paper reports a RAW between instructions 3 and 6 via
	// rax and a WAR between 1 and 2 via edx (1-based).
	src := `
		mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`
	g := build(t, src, Options{})
	if !g.HasEdge(2, 5, RAW) {
		t.Errorf("expected paper's RAW 3→6 via rax; edges: %v", g.Edges)
	}
	if !g.HasEdge(0, 1, WAR) {
		t.Errorf("expected paper's WAR 1→2 via edx; edges: %v", g.Edges)
	}
	// div (4) writes rax which imul (6) reads.
	if !g.HasEdge(3, 5, RAW) {
		t.Errorf("expected RAW 4→6 via rax; edges: %v", g.Edges)
	}
}

func TestLastWriterOnlyKillsTransitiveRAW(t *testing.T) {
	src := `
		mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`
	g := build(t, src, Options{LastWriterOnly: true})
	// div overwrites rax between lea and imul, so kill-based analysis has
	// no 3→6 RAW.
	if g.HasEdge(2, 5, RAW) {
		t.Errorf("kill-based analysis should not report RAW 3→6; edges: %v", g.Edges)
	}
	if !g.HasEdge(3, 5, RAW) {
		t.Errorf("kill-based analysis should keep RAW 4→6; edges: %v", g.Edges)
	}
}

func TestWAWDetection(t *testing.T) {
	g := build(t, "mov rax, rbx\nmov rax, rcx", Options{})
	if !g.HasEdge(0, 1, WAW) {
		t.Fatalf("expected WAW 1→2 via rax; edges: %v", g.Edges)
	}
}

func TestMemoryAliasing(t *testing.T) {
	// Store then load from the same syntactic address: RAW through memory.
	g := build(t, "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 8]", Options{})
	found := false
	for _, e := range g.Edges {
		if e.Hazard == RAW && e.Loc.Kind == LocMem {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected memory RAW; edges: %v", g.Edges)
	}

	// Different displacements must not alias.
	g = build(t, "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 16]", Options{})
	for _, e := range g.Edges {
		if e.Loc.Kind == LocMem {
			t.Errorf("unexpected memory edge %v", e)
		}
	}
}

func TestAddressRegistersAreReads(t *testing.T) {
	// First instruction writes rdi; second uses rdi as a base register.
	g := build(t, "mov rdi, rax\nmov rbx, qword ptr [rdi]", Options{})
	if !g.HasEdge(0, 1, RAW) {
		t.Fatalf("address register use should create RAW; edges: %v", g.Edges)
	}
}

func TestLeaReadsAddressNotMemory(t *testing.T) {
	g := build(t, "mov qword ptr [rax + 8], rbx\nlea rcx, [rax + 8]", Options{})
	for _, e := range g.Edges {
		if e.Loc.Kind == LocMem {
			t.Errorf("lea must not touch memory; edge %v", e)
		}
	}
	// But lea does read rax, giving a WAR on rax? No — inst 1 reads rax
	// (address), inst 2 reads rax; no hazard between two reads.
	if g.HasEdge(0, 1, WAR) || g.HasEdge(0, 1, WAW) {
		t.Errorf("two reads of rax must not create WAR/WAW; edges: %v", g.Edges)
	}
}

func TestImplicitDivOperands(t *testing.T) {
	// xor edx, edx writes rdx; div reads rdx implicitly → RAW.
	g := build(t, "xor edx, edx\ndiv rcx", Options{})
	if !g.HasEdge(0, 1, RAW) {
		t.Fatalf("div should implicitly read rdx; edges: %v", g.Edges)
	}
}

func TestPushPopStackDependency(t *testing.T) {
	g := build(t, "push rax\npop rbx", Options{})
	foundStack := false
	for _, e := range g.Edges {
		if e.Loc.Kind == LocStack && e.Hazard == RAW {
			foundStack = true
		}
	}
	if !foundStack {
		t.Fatalf("push→pop should carry a stack RAW; edges: %v", g.Edges)
	}
	// Both also touch rsp (implicit RW): expect edges via rsp too.
	foundRSP := false
	for _, e := range g.Edges {
		if e.Loc.Kind == LocReg && e.Loc.Fam == x86.FamRSP {
			foundRSP = true
		}
	}
	if !foundRSP {
		t.Errorf("push/pop should conflict on rsp; edges: %v", g.Edges)
	}
}

func TestFlagsTrackingOptional(t *testing.T) {
	src := "add rax, rbx\nadc rcx, rdx"
	g := build(t, src, Options{})
	for _, e := range g.Edges {
		if e.Loc.Kind == LocFlags {
			t.Errorf("flags disabled but got edge %v", e)
		}
	}
	g = build(t, src, Options{TrackFlags: true})
	found := false
	for _, e := range g.Edges {
		if e.Loc.Kind == LocFlags && e.Hazard == RAW {
			found = true
		}
	}
	if !found {
		t.Errorf("adc should read flags written by add; edges: %v", g.Edges)
	}
}

func TestNoSelfEdges(t *testing.T) {
	// add rax, rax reads and writes rax but must not self-loop.
	g := build(t, "add rax, rax", Options{})
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Errorf("self edge %v", e)
		}
	}
}

func TestPartialRegisterFamilyGranularity(t *testing.T) {
	// Writing eax then reading rax is a dependency at family granularity.
	g := build(t, "mov eax, ebx\nadd rcx, rax", Options{})
	if !g.HasEdge(0, 1, RAW) {
		t.Fatalf("eax write → rax read should be RAW; edges: %v", g.Edges)
	}
}

func TestEdgeStringFormat(t *testing.T) {
	e := Edge{Src: 0, Dst: 1, Hazard: RAW, Loc: Loc{Kind: LocReg, Fam: x86.FamRCX}}
	if got := e.String(); got != "δRAW(1→2) via rcx" {
		t.Errorf("Edge.String() = %q", got)
	}
}

func randomBlock(rng *rand.Rand, n int) *x86.BasicBlock {
	fams := x86.GPFamilies()
	reg := func() x86.Operand {
		return x86.NewReg(x86.Reg{Family: fams[rng.Intn(8)], Size: x86.Size64})
	}
	var insts []x86.Instruction
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			insts = append(insts, x86.Instruction{Opcode: "add", Operands: []x86.Operand{reg(), reg()}})
		case 1:
			insts = append(insts, x86.Instruction{Opcode: "mov", Operands: []x86.Operand{reg(), reg()}})
		case 2:
			insts = append(insts, x86.Instruction{Opcode: "imul", Operands: []x86.Operand{reg(), reg()}})
		default:
			insts = append(insts, x86.Instruction{Opcode: "xor", Operands: []x86.Operand{reg(), reg()}})
		}
	}
	return x86.NewBlock(insts...)
}

func TestPropertyEdgesWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBlock(rng, 2+rng.Intn(8))
		g, err := Build(b, Options{})
		if err != nil {
			return false
		}
		for _, e := range g.Edges {
			if e.Src >= e.Dst {
				t.Logf("edge %v not forward", e)
				return false
			}
			if e.Src < 0 || e.Dst >= b.Len() {
				t.Logf("edge %v out of range", e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPropertyAllPairsSupersetOfKillBased(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := randomBlock(rng, 2+rng.Intn(8))
		all, err1 := Build(b, Options{})
		kill, err2 := Build(b, Options{LastWriterOnly: true})
		if err1 != nil || err2 != nil {
			return false
		}
		for _, e := range kill.Edges {
			if !all.HasEdge(e.Src, e.Dst, e.Hazard) {
				t.Logf("kill-based edge %v missing from all-pairs graph", e)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDeterministicEdgeOrder(t *testing.T) {
	src := `
		mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`
	g1 := build(t, src, Options{})
	g2 := build(t, src, Options{})
	if len(g1.Edges) != len(g2.Edges) {
		t.Fatal("edge counts differ across runs")
	}
	for i := range g1.Edges {
		if g1.Edges[i] != g2.Edges[i] {
			t.Fatalf("edge order not deterministic: %v vs %v", g1.Edges[i], g2.Edges[i])
		}
	}
}

func TestAppendEdgesKeepsPrefix(t *testing.T) {
	for _, opts := range []Options{{}, {LastWriterOnly: true}, {TrackFlags: true}} {
		b := x86.MustParseBlock("mov qword ptr [rdi + 8], rax\nadd rax, qword ptr [rdi + 8]\npush rax\npop rbx\nimul rbx, rax")
		g, err := Build(b, opts)
		if err != nil {
			t.Fatal(err)
		}
		prefix := Edge{Src: 9, Dst: 1, Hazard: WAW}
		got, err := AppendEdges([]Edge{prefix}, b, opts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 1+len(g.Edges) || got[0] != prefix {
			t.Fatalf("%+v: AppendEdges = %v, want %v after the prefix", opts, got, g.Edges)
		}
		for i, e := range g.Edges {
			if got[1+i] != e {
				t.Fatalf("%+v: edge %d = %v, Build has %v", opts, i, got[1+i], e)
			}
		}
	}
}
