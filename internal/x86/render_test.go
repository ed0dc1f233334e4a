package x86_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/x86"
)

// The reference renderer: the fmt-based text the append renderer replaced.
// Block text is the cost-model input and every prediction-cache key, so
// the two must agree byte for byte.

var refQualifier = map[int]string{
	x86.Size8: "byte ptr", x86.Size16: "word ptr", x86.Size32: "dword ptr",
	x86.Size64: "qword ptr", x86.Size128: "xmmword ptr", x86.Size256: "ymmword ptr",
}

func refReg(r x86.Reg) string {
	if r.IsVec() {
		n := int(r.Family - x86.FamXMM0)
		switch r.Size {
		case x86.Size128:
			return fmt.Sprintf("xmm%d", n)
		case x86.Size256:
			return fmt.Sprintf("ymm%d", n)
		}
	}
	return r.String()
}

func refFamily(f x86.RegFamily) string {
	if f >= x86.FamXMM0 && f <= x86.FamXMM15 {
		return fmt.Sprintf("xmm%d", int(f-x86.FamXMM0))
	}
	return x86.FamilyName(f)
}

func refMem(m x86.MemRef) string {
	var parts []string
	if !m.Base.IsZero() {
		parts = append(parts, refReg(m.Base))
	}
	if !m.Index.IsZero() {
		if m.Scale > 1 {
			parts = append(parts, fmt.Sprintf("%s*%d", refReg(m.Index), m.Scale))
		} else {
			parts = append(parts, refReg(m.Index))
		}
	}
	expr := strings.Join(parts, " + ")
	switch {
	case m.Disp < 0:
		expr = fmt.Sprintf("%s - %d", expr, -m.Disp)
	case m.Disp > 0 && expr != "":
		expr = fmt.Sprintf("%s + %d", expr, m.Disp)
	case expr == "":
		expr = fmt.Sprintf("%d", m.Disp)
	}
	return "[" + expr + "]"
}

func refLocKey(m x86.MemRef) string {
	var b strings.Builder
	b.WriteByte('[')
	if !m.Base.IsZero() {
		b.WriteString(refFamily(m.Base.Family))
	}
	if !m.Index.IsZero() {
		fmt.Fprintf(&b, "+%s*%d", refFamily(m.Index.Family), m.Scale)
	}
	fmt.Fprintf(&b, "%+d]", m.Disp)
	return b.String()
}

func refOperand(o x86.Operand) string {
	switch o.Kind {
	case x86.KindReg:
		return refReg(o.Reg)
	case x86.KindImm:
		return fmt.Sprintf("%d", o.Imm)
	case x86.KindMem:
		q, ok := refQualifier[o.Size]
		if !ok {
			q = fmt.Sprintf("size%d ptr", o.Size)
		}
		return q + " " + refMem(o.Mem)
	case x86.KindAddr:
		return refMem(o.Mem)
	}
	return "<bad operand>"
}

func refInstruction(inst x86.Instruction) string {
	if len(inst.Operands) == 0 {
		return inst.Opcode
	}
	parts := make([]string, len(inst.Operands))
	for i, o := range inst.Operands {
		parts[i] = refOperand(o)
	}
	return inst.Opcode + " " + strings.Join(parts, ", ")
}

func refBlock(b *x86.BasicBlock) string {
	lines := make([]string, len(b.Instructions))
	for i, inst := range b.Instructions {
		lines[i] = refInstruction(inst)
	}
	return strings.Join(lines, "\n")
}

// renderCases are operands at the edges of the renderer: every
// displacement sign (and the one whose negation overflows), memory
// operands without a base or an index, scale 1, vector registers, and a
// width no qualifier names.
func renderCases() []x86.Operand {
	rax := x86.Reg{Family: x86.FamRAX, Size: x86.Size64}
	r13 := x86.Reg{Family: x86.FamR13, Size: x86.Size64}
	var ops []x86.Operand
	for _, disp := range []int64{0, 8, -8, 1, -1, math.MaxInt64, math.MinInt64, -math.MaxInt64} {
		for _, m := range []x86.MemRef{
			{Disp: disp},
			{Base: rax, Disp: disp},
			{Index: r13, Scale: 1, Disp: disp},
			{Index: r13, Scale: 8, Disp: disp},
			{Base: rax, Index: r13, Scale: 1, Disp: disp},
			{Base: rax, Index: r13, Scale: 4, Disp: disp},
		} {
			for _, size := range []int{x86.Size8, x86.Size64, x86.Size256, 0, 48} {
				ops = append(ops, x86.NewMem(m, size))
			}
			ops = append(ops, x86.NewAddr(m))
		}
		ops = append(ops, x86.NewImm(disp, x86.Size64))
	}
	for f := x86.FamRAX; f <= x86.FamXMM15; f++ {
		for _, size := range []int{x86.Size8, x86.Size16, x86.Size32, x86.Size64, x86.Size128, x86.Size256} {
			ops = append(ops, x86.NewReg(x86.Reg{Family: f, Size: size}))
		}
	}
	ops = append(ops, x86.Operand{Kind: x86.OperandKind(9)})
	return ops
}

func TestRendererMatchesReference(t *testing.T) {
	for _, o := range renderCases() {
		if got, want := o.String(), refOperand(o); got != want {
			t.Errorf("Operand%+v.String() = %q, reference %q", o, got, want)
		}
		if got, want := string(o.AppendText([]byte("x"))), "x"+refOperand(o); got != want {
			t.Errorf("Operand%+v.AppendText = %q, reference %q", o, got, want)
		}
		if o.Kind == x86.KindMem {
			if got, want := o.Mem.LocKey(), refLocKey(o.Mem); got != want {
				t.Errorf("MemRef%+v.LocKey() = %q, reference %q", o.Mem, got, want)
			}
		}
	}
	for f := x86.FamNone; f <= x86.FamFlags+1; f++ {
		if got, want := x86.FamilyName(f), refFamily(f); got != want {
			t.Errorf("FamilyName(%d) = %q, reference %q", f, got, want)
		}
	}
}

func TestBlockRendererMatchesReference(t *testing.T) {
	ops := renderCases()
	var insts []x86.Instruction
	for i := 0; i+2 < len(ops); i += 3 {
		insts = append(insts, x86.Instruction{Opcode: "op", Operands: ops[i : i+1+i%3]})
	}
	insts = append(insts, x86.Instruction{Opcode: "nop"})
	blocks := []*x86.BasicBlock{x86.NewBlock(), x86.NewBlock(insts...)}
	for _, d := range bhive.Generate(bhive.Config{N: 300, MinInstrs: 1, MaxInstrs: 12, Seed: 5, SkipLabels: true}) {
		blocks = append(blocks, d.Block)
	}
	for _, b := range blocks {
		want := refBlock(b)
		if got := b.String(); got != want {
			t.Fatalf("Block.String() = %q, reference %q", got, want)
		}
		for _, inst := range b.Instructions {
			if got, want := inst.String(), refInstruction(inst); got != want {
				t.Fatalf("Instruction.String() = %q, reference %q", got, want)
			}
			for _, o := range inst.Operands {
				if o.Kind == x86.KindMem {
					if got, want := o.Mem.LocKey(), refLocKey(o.Mem); got != want {
						t.Fatalf("LocKey() = %q, reference %q", got, want)
					}
				}
			}
		}
	}
}

// FuzzParseX86Text feeds arbitrary text to the Intel-syntax parser. Any
// block it accepts must render to text that parses back to the same
// instructions: the canonical text is the wire form of a block and the
// key of every cached prediction. Wired into `make fuzz-smoke`.
func FuzzParseX86Text(f *testing.F) {
	for _, s := range []string{
		"add rcx, rax\nmov rdx, rcx\npop rbx",
		"mov qword ptr [rdi + 24], rdx",
		"lea rax, [rcx + rax - 1]",
		"mov rax, qword ptr [rbx + rcx*8 - 5]",
		"mov rax, qword ptr [rcx*1 + 8]",
		"mov eax, dword ptr [-8]",
		"vaddps ymm1, ymm2, ymm3\nmovups xmm3, xmmword ptr [rsi]",
		"3: shl eax, 3 ; comment",
		"mov rax, 0x7fffffffffffffff",
		"mov rax, qword ptr [rax - 9223372036854775808]",
		"div rcx\ncqo\nnop",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		b, err := x86.ParseBlock(src)
		if err != nil {
			return
		}
		text := b.String()
		again, err := x86.ParseBlock(text)
		if err != nil {
			t.Fatalf("ParseBlock(%q) renders %q, which does not reparse: %v", src, text, err)
		}
		if !again.Equal(b) {
			t.Fatalf("ParseBlock(%q) renders %q, which reparses as %+v, not %+v", src, text, again.Instructions, b.Instructions)
		}
	})
}
