package x86

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegisterNames(t *testing.T) {
	cases := []struct {
		name string
		fam  RegFamily
		size int
	}{
		{"rax", FamRAX, Size64},
		{"eax", FamRAX, Size32},
		{"ax", FamRAX, Size16},
		{"al", FamRAX, Size8},
		{"r8d", FamR8, Size32},
		{"r15b", FamR15, Size8},
		{"sil", FamRSI, Size8},
		{"xmm0", FamXMM0, Size128},
		{"ymm15", FamXMM15, Size256},
	}
	for _, c := range cases {
		r, ok := LookupReg(c.name)
		if !ok {
			t.Fatalf("LookupReg(%q) failed", c.name)
		}
		if r.Family != c.fam || r.Size != c.size {
			t.Errorf("LookupReg(%q) = %v/%d, want %v/%d", c.name, r.Family, r.Size, c.fam, c.size)
		}
		if r.String() != c.name {
			t.Errorf("Reg.String() = %q, want %q", r.String(), c.name)
		}
	}
}

func TestLookupRegUnknown(t *testing.T) {
	for _, name := range []string{"rfoo", "xmm16", "ymm16", "", "ah"} {
		if _, ok := LookupReg(name); ok {
			t.Errorf("LookupReg(%q) unexpectedly succeeded", name)
		}
	}
}

func TestLookupRegCaseInsensitive(t *testing.T) {
	r, ok := LookupReg("RAX")
	if !ok || r.Family != FamRAX {
		t.Fatalf("LookupReg(RAX) = %v, %v", r, ok)
	}
}

func TestParsePaperMotivatingExample(t *testing.T) {
	b, err := ParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 3 {
		t.Fatalf("got %d instructions, want 3", b.Len())
	}
	if b.Instructions[0].Opcode != "add" || b.Instructions[2].Opcode != "pop" {
		t.Errorf("unexpected opcodes: %v", b)
	}
}

func TestParseCaseStudy1(t *testing.T) {
	src := `
		lea rdx, [rax + 1]
		mov qword ptr [rdi + 24], rdx
		mov byte ptr [rax], 80
		mov rsi, qword ptr [r14 + 32]
		mov rdi, rbp`
	b, err := ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 5 {
		t.Fatalf("got %d instructions, want 5", b.Len())
	}
	lea := b.Instructions[0]
	if lea.Operands[1].Kind != KindAddr {
		t.Errorf("lea source should parse as KindAddr, got %v", lea.Operands[1].Kind)
	}
	store := b.Instructions[1]
	if store.Operands[0].Kind != KindMem || store.Operands[0].Size != Size64 {
		t.Errorf("store dst = %+v, want qword mem", store.Operands[0])
	}
	if store.Operands[0].Mem.Disp != 24 {
		t.Errorf("disp = %d, want 24", store.Operands[0].Mem.Disp)
	}
	byteStore := b.Instructions[2]
	if byteStore.Operands[0].Size != Size8 || byteStore.Operands[1].Imm != 80 {
		t.Errorf("byte store parsed wrong: %+v", byteStore)
	}
}

func TestParseCaseStudy2(t *testing.T) {
	src := `
		mov ecx, edx
		xor edx, edx
		lea rax, [rcx + rax - 1]
		div rcx
		mov rdx, rcx
		imul rax, rcx`
	b, err := ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	lea := b.Instructions[2]
	m := lea.Operands[1].Mem
	if m.Base.Family != FamRCX || m.Index.Family != FamRAX || m.Disp != -1 {
		t.Errorf("lea address parsed wrong: %+v", m)
	}
}

func TestParseAppendixFBlocks(t *testing.T) {
	beta1 := `
		vdivss xmm0, xmm0, xmm6
		vmulss xmm7, xmm0, xmm0
		vxorps xmm0, xmm0, xmm5
		vaddss xmm7, xmm7, xmm3
		vmulss xmm6, xmm6, xmm7
		vdivss xmm6, xmm3, xmm6
		vmulss xmm0, xmm6, xmm0`
	if _, err := ParseBlock(beta1); err != nil {
		t.Errorf("beta1: %v", err)
	}
	beta2 := `
		shl eax, 3
		imul rax, r15
		xor edx, edx
		add rax, 7
		shr rax, 3
		lea rax, [rbp + rax - 1]
		div rbp
		imul rax, rbp
		mov rbp, qword ptr [rsp + 8]
		sub rbp, rax`
	if _, err := ParseBlock(beta2); err != nil {
		t.Errorf("beta2: %v", err)
	}
}

func TestParseScaledIndex(t *testing.T) {
	inst, err := ParseInstruction("mov rax, qword ptr [rbx + rcx*8 + 16]")
	if err != nil {
		t.Fatal(err)
	}
	m := inst.Operands[1].Mem
	if m.Base.Family != FamRBX || m.Index.Family != FamRCX || m.Scale != 8 || m.Disp != 16 {
		t.Errorf("parsed %+v", m)
	}
}

func TestParseNumberedLines(t *testing.T) {
	b, err := ParseBlock("1: add rcx, rax\n2: mov rdx, rcx")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("got %d instructions", b.Len())
	}
}

func TestParseComments(t *testing.T) {
	b, err := ParseBlock("add rcx, rax ; RAW with next\nmov rdx, rcx # comment")
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != 2 {
		t.Fatalf("got %d instructions", b.Len())
	}
}

// TestCountInstructionsMatchesParse: CountInstructions counts exactly
// the lines ParseBlock turns into instructions.
func TestCountInstructionsMatchesParse(t *testing.T) {
	for _, src := range []string{
		"add rcx, rax",
		"add rcx, rax\n",
		"\n  \n1: add rcx, rax\n; only a comment\n\tmov rdx, rcx # comment\n# another\n\npop rbx\n",
		"add rcx, rax ; RAW with next\r\nmov rdx, rcx\r\n",
	} {
		b, err := ParseBlock(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := CountInstructions(src); got != b.Len() {
			t.Errorf("%q: CountInstructions %d, ParseBlock %d", src, got, b.Len())
		}
	}
	if got := CountInstructions(""); got != 0 {
		t.Errorf("empty source counts %d", got)
	}
}

func TestParseHexImmediate(t *testing.T) {
	inst, err := ParseInstruction("add rax, 0x10")
	if err != nil {
		t.Fatal(err)
	}
	if inst.Operands[1].Imm != 16 {
		t.Errorf("imm = %d, want 16", inst.Operands[1].Imm)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"bogus rax, rbx",                       // unknown opcode
		"mov rax",                              // missing operand
		"mov rax, ebx",                         // size mismatch
		"add qword ptr [rax], qword ptr [rbx]", // two memory operands
		"mov [rax], rbx",                       // unsized memory operand
		"jmp rax",                              // control flow excluded by design
		"shl rax, rbx",                         // shift count must be imm8 or cl
		"mov rax, qword ptr [rbx + rcx*3]",     // invalid scale
	}
	for _, src := range bad {
		if _, err := ParseBlock(src); err == nil {
			t.Errorf("ParseBlock(%q) unexpectedly succeeded", src)
		}
	}
}

func TestShiftByCL(t *testing.T) {
	if _, err := ParseBlock("shl rax, cl"); err != nil {
		t.Errorf("shl rax, cl should be valid: %v", err)
	}
	if _, err := ParseBlock("shl rax, dl"); err == nil {
		t.Error("shl rax, dl should be invalid")
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	srcs := []string{
		"add rcx, rax",
		"mov qword ptr [rdi + 24], rdx",
		"mov byte ptr [rax], 80",
		"lea rax, [rcx + rax - 1]",
		"lea rdx, [rax + 1]",
		"vdivss xmm0, xmm0, xmm6",
		"vaddps ymm1, ymm2, ymm3",
		"movups xmm3, xmmword ptr [rsi]",
		"push rbp",
		"div rcx",
		"shl eax, 3",
		"mov rax, qword ptr [rbx + rcx*8 + 16]",
		"mov rax, qword ptr [rbx + rcx*8 - 5]",
		"nop",
		"cqo",
	}
	for _, src := range srcs {
		inst, err := ParseInstruction(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := inst.String()
		again, err := ParseInstruction(printed)
		if err != nil {
			t.Fatalf("reparse %q (printed from %q): %v", printed, src, err)
		}
		if printed != again.String() {
			t.Errorf("round trip unstable: %q -> %q", printed, again.String())
		}
	}
}

func TestValidateBlock(t *testing.T) {
	b := MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	empty := &BasicBlock{}
	if err := empty.Validate(); err == nil {
		t.Error("empty block should not validate")
	}
}

func TestFormAccess(t *testing.T) {
	inst, _ := ParseInstruction("add rcx, rax")
	f, err := inst.Form()
	if err != nil {
		t.Fatal(err)
	}
	if f.Ops[0].Access != AccRW || f.Ops[1].Access != AccR {
		t.Errorf("add access = %v/%v, want RW/R", f.Ops[0].Access, f.Ops[1].Access)
	}
	inst, _ = ParseInstruction("mov rcx, rax")
	f, _ = inst.Form()
	if f.Ops[0].Access != AccW {
		t.Errorf("mov dst access = %v, want W", f.Ops[0].Access)
	}
	inst, _ = ParseInstruction("cmp rcx, rax")
	f, _ = inst.Form()
	if f.Ops[0].Access != AccR {
		t.Errorf("cmp dst access = %v, want R", f.Ops[0].Access)
	}
}

func TestReplacementCandidatesLeaHasNone(t *testing.T) {
	inst, _ := ParseInstruction("lea rdx, [rax + 1]")
	if cands := ReplacementCandidates(inst); len(cands) != 0 {
		t.Errorf("lea should have no replacements (Appendix D), got %v", cands)
	}
}

func TestReplacementCandidatesALU(t *testing.T) {
	inst, _ := ParseInstruction("add rcx, rax")
	cands := ReplacementCandidates(inst)
	want := map[string]bool{"sub": true, "mov": true, "xor": true, "cmp": true}
	found := map[string]bool{}
	for _, c := range cands {
		if c == "add" {
			t.Error("candidates must exclude the original opcode")
		}
		found[c] = true
	}
	for w := range want {
		if !found[w] {
			t.Errorf("expected %q among candidates for add rcx, rax; got %v", w, cands)
		}
	}
	// lea must not appear: its operand kind is distinct.
	if found["lea"] {
		t.Error("lea must not be a candidate for reg,reg operands")
	}
}

func TestReplacementCandidatesRespectOperandKinds(t *testing.T) {
	inst, _ := ParseInstruction("div rcx")
	cands := ReplacementCandidates(inst)
	found := map[string]bool{}
	for _, c := range cands {
		found[c] = true
	}
	for _, want := range []string{"mul", "idiv", "inc", "neg", "push"} {
		if !found[want] {
			t.Errorf("expected %q among unary candidates, got %v", want, cands)
		}
	}
	if found["add"] {
		t.Error("two-operand add cannot replace unary div")
	}
}

func TestReplacementCandidatesVector(t *testing.T) {
	inst, _ := ParseInstruction("vdivss xmm0, xmm0, xmm6")
	cands := ReplacementCandidates(inst)
	found := map[string]bool{}
	for _, c := range cands {
		found[c] = true
	}
	for _, want := range []string{"vaddss", "vmulss", "vsubss"} {
		if !found[want] {
			t.Errorf("expected %q among AVX scalar candidates, got %v", want, cands)
		}
	}
	if found["addss"] {
		t.Error("two-operand addss cannot replace three-operand vdivss")
	}
}

func TestReplacementProducesValidInstruction(t *testing.T) {
	srcs := []string{
		"add rcx, rax", "mov rdx, rcx", "div rcx", "vmulss xmm7, xmm0, xmm0",
		"mov qword ptr [rdi + 24], rdx", "shl eax, 3", "push rbp",
	}
	for _, src := range srcs {
		inst, _ := ParseInstruction(src)
		for _, cand := range ReplacementCandidates(inst) {
			repl := Instruction{Opcode: cand, Operands: inst.Operands}
			if err := repl.Validate(); err != nil {
				t.Errorf("replacement %q of %q invalid: %v", cand, src, err)
			}
		}
	}
}

func TestMemRefLocKey(t *testing.T) {
	a, _ := ParseInstruction("mov rax, qword ptr [rbx + 8]")
	b, _ := ParseInstruction("mov ecx, dword ptr [rbx + 8]")
	c, _ := ParseInstruction("mov rax, qword ptr [rbx + 16]")
	if a.Operands[1].Mem.LocKey() != b.Operands[1].Mem.LocKey() {
		t.Error("same address at different widths should share a location key")
	}
	if a.Operands[1].Mem.LocKey() == c.Operands[1].Mem.LocKey() {
		t.Error("different displacements must have different location keys")
	}
}

func TestPerfOrdering(t *testing.T) {
	for _, arch := range Arches() {
		div, _ := ParseInstruction("div rcx")
		imul, _ := ParseInstruction("imul rax, rcx")
		addI, _ := ParseInstruction("add rax, rcx")
		movI, _ := ParseInstruction("mov rax, rcx")
		vdiv, _ := ParseInstruction("vdivss xmm0, xmm1, xmm2")
		vmul, _ := ParseInstruction("vmulss xmm0, xmm1, xmm2")

		if !(InstThroughput(arch, div) > InstThroughput(arch, imul)) {
			t.Errorf("%v: div should out-cost imul", arch)
		}
		if !(InstThroughput(arch, imul) > InstThroughput(arch, addI)) {
			t.Errorf("%v: imul should out-cost add", arch)
		}
		if InstThroughput(arch, addI) != InstThroughput(arch, movI) {
			t.Errorf("%v: add and mov reciprocal throughputs should match", arch)
		}
		if !(InstThroughput(arch, vdiv) > InstThroughput(arch, vmul)) {
			t.Errorf("%v: vdivss should out-cost vmulss", arch)
		}
		divSpec, _ := div.Spec()
		imulSpec, _ := imul.Spec()
		if !(SpecPerf(arch, divSpec, div).Lat > SpecPerf(arch, imulSpec, imul).Lat) {
			t.Errorf("%v: div latency should exceed imul latency", arch)
		}
	}
}

func TestSkylakeFasterDivide(t *testing.T) {
	div, _ := ParseInstruction("div rcx")
	if !(InstThroughput(Skylake, div) < InstThroughput(Haswell, div)) {
		t.Error("Skylake divide should be faster than Haswell (as on real parts)")
	}
}

func TestStoreThroughput(t *testing.T) {
	store, _ := ParseInstruction("mov qword ptr [rdi], rdx")
	load, _ := ParseInstruction("mov rdx, qword ptr [rdi]")
	regmov, _ := ParseInstruction("mov rdx, rdi")
	if !(InstThroughput(Haswell, store) > InstThroughput(Haswell, regmov)) {
		t.Error("stores should out-cost register moves")
	}
	if !(InstThroughput(Haswell, load) > InstThroughput(Haswell, regmov)) {
		t.Error("loads should out-cost register moves")
	}
}

func TestMemAccessCounts(t *testing.T) {
	cases := []struct {
		src           string
		loads, stores int
	}{
		{"mov rax, qword ptr [rbx]", 1, 0},
		{"mov qword ptr [rbx], rax", 0, 1},
		{"add qword ptr [rbx], rax", 1, 1},
		{"push rbp", 0, 1},
		{"pop rbp", 1, 0},
		{"lea rax, [rbx + 8]", 0, 0},
		{"add rax, rbx", 0, 0},
	}
	for _, c := range cases {
		inst, err := ParseInstruction(c.src)
		if err != nil {
			t.Fatalf("%q: %v", c.src, err)
		}
		spec, _ := inst.Spec()
		form, _ := inst.Form()
		loads, stores := MemUops(spec, form, inst)
		if loads != c.loads || stores != c.stores {
			t.Errorf("%q: loads/stores = %d/%d, want %d/%d", c.src, loads, stores, c.loads, c.stores)
		}
	}
}

func TestOpcodesTableConsistency(t *testing.T) {
	names := Opcodes()
	if len(names) < 60 {
		t.Fatalf("expected a rich opcode table, got %d opcodes", len(names))
	}
	for _, name := range names {
		spec, ok := Lookup(name)
		if !ok || spec.Name != name {
			t.Errorf("Lookup(%q) inconsistent", name)
		}
		if len(spec.Forms) == 0 {
			t.Errorf("%q has no forms", name)
		}
	}
	for _, banned := range []string{"jmp", "call", "ret", "je", "jne", "loop"} {
		if _, ok := Lookup(banned); ok {
			t.Errorf("control-flow opcode %q must not be in the basic-block table", banned)
		}
	}
}

// randomValidInstruction builds a random but guaranteed-valid instruction
// for property tests.
func randomValidInstruction(rng *rand.Rand) Instruction {
	gpr := func(size int) Operand {
		fams := GPFamilies()
		return NewReg(Reg{Family: fams[rng.Intn(len(fams))], Size: size})
	}
	xmm := func() Operand {
		fams := VecFamilies()
		return NewReg(Reg{Family: fams[rng.Intn(len(fams))], Size: Size128})
	}
	mem := func(size int) Operand {
		fams := GPFamilies()
		m := MemRef{Base: Reg{Family: fams[rng.Intn(len(fams))], Size: Size64}, Disp: int64(rng.Intn(64)) * 8}
		return NewMem(m, size)
	}
	size := []int{Size32, Size64}[rng.Intn(2)]
	switch rng.Intn(8) {
	case 0:
		return Instruction{Opcode: "add", Operands: []Operand{gpr(size), gpr(size)}}
	case 1:
		return Instruction{Opcode: "mov", Operands: []Operand{gpr(size), mem(size)}}
	case 2:
		return Instruction{Opcode: "mov", Operands: []Operand{mem(size), gpr(size)}}
	case 3:
		return Instruction{Opcode: "imul", Operands: []Operand{gpr(size), gpr(size)}}
	case 4:
		return Instruction{Opcode: "mulss", Operands: []Operand{xmm(), xmm()}}
	case 5:
		return Instruction{Opcode: "vaddss", Operands: []Operand{xmm(), xmm(), xmm()}}
	case 6:
		return Instruction{Opcode: "push", Operands: []Operand{gpr(Size64)}}
	default:
		return Instruction{Opcode: "xor", Operands: []Operand{gpr(size), NewImm(int64(rng.Intn(100)), Size8)}}
	}
}

func TestPropertyRoundTripRandomInstructions(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomValidInstruction(rng)
		if err := inst.Validate(); err != nil {
			t.Logf("invalid generated instruction %v: %v", inst, err)
			return false
		}
		printed := inst.String()
		again, err := ParseInstruction(printed)
		if err != nil {
			t.Logf("reparse %q: %v", printed, err)
			return false
		}
		return again.String() == printed
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPropertyReplacementsAlwaysValid(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomValidInstruction(rng)
		for _, cand := range ReplacementCandidates(inst) {
			repl := Instruction{Opcode: cand, Operands: inst.Operands}
			if repl.Validate() != nil {
				t.Logf("invalid replacement %v for %v", repl, inst)
				return false
			}
			if strings.EqualFold(cand, inst.Opcode) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestPortSet(t *testing.T) {
	s := Port(0, 1, 5, 6)
	if s.Count() != 4 || !s.Contains(5) || s.Contains(4) {
		t.Errorf("PortSet misbehaves: %b", s)
	}
}

func TestBlockCloneIndependent(t *testing.T) {
	b := MustParseBlock("add rcx, rax\nmov rdx, rcx")
	c := b.Clone()
	c.Instructions[0].Opcode = "sub"
	if b.Instructions[0].Opcode != "add" {
		t.Error("Clone must not share instruction storage")
	}
	if !b.Equal(b.Clone()) {
		t.Error("block should equal its clone")
	}
	if b.Equal(c) {
		t.Error("modified clone should differ")
	}
}
