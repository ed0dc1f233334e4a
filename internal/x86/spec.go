package x86

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// Access describes how an instruction form uses one of its operands.
type Access uint8

const (
	// AccNone means the operand is not accessed as data (unused).
	AccNone Access = 0
	// AccR means the operand value is read.
	AccR Access = 1 << 0
	// AccW means the operand is written.
	AccW Access = 1 << 1
	// AccRW means the operand is both read and written.
	AccRW Access = AccR | AccW
)

// Class groups opcodes by execution resource requirements; the performance
// tables in perf.go and the pipeline simulator key off it.
type Class int

// Instruction classes.
const (
	ClassIntALU Class = iota
	ClassIntMul
	ClassIntDiv
	ClassShift
	ClassMov
	ClassMovExt
	ClassLea
	ClassPush
	ClassPop
	ClassXchg
	ClassBitCount
	ClassVecMov
	ClassVecFPAdd
	ClassVecFPMul
	ClassVecFPDiv
	ClassVecFPSqrt
	ClassVecIntALU
	ClassVecIntMul
	ClassVecLogic
	ClassVecCmp
	ClassConvert
	ClassNop
)

// String returns a short class name for diagnostics.
func (c Class) String() string {
	names := [...]string{"int-alu", "int-mul", "int-div", "shift", "mov",
		"mov-ext", "lea", "push", "pop", "xchg", "bit-count", "vec-mov",
		"vec-fp-add", "vec-fp-mul", "vec-fp-div", "vec-fp-sqrt",
		"vec-int-alu", "vec-int-mul", "vec-logic", "vec-cmp", "convert", "nop"}
	if int(c) < len(names) {
		return names[c]
	}
	return "class(?)"
}

// OpTemplate constrains one operand slot of an instruction form.
type OpTemplate struct {
	Kinds      []OperandKind // allowed operand kinds
	Sizes      []int         // allowed widths in bits; nil means any
	Access     Access        // how the form accesses this operand
	SameSizeAs int           // index of operand that must match width, or -1
	RequireReg Reg           // if set, operand must be exactly this register
	VecOnly    bool          // register must be xmm/ymm
	GPOnly     bool          // register must be general-purpose
	// kinds and widths are Kinds, VecOnly, GPOnly and Sizes compiled at
	// init: an operand fits them when its kindBit and widthBit are set.
	kinds, widths uint8
}

// Operand classes as kindBit reports them: the operand kinds, with
// registers split by bank.
const (
	kindGP uint8 = 1 << iota
	kindVec
	kindOtherReg
	kindMem
	kindImm
	kindAddr

	kindAnyReg = kindGP | kindVec | kindOtherReg
)

// kindBit returns o's operand class, 0 for an unknown kind.
func kindBit(o *Operand) uint8 {
	switch o.Kind {
	case KindReg:
		switch {
		case o.Reg.IsGP():
			return kindGP
		case o.Reg.IsVec():
			return kindVec
		}
		return kindOtherReg
	case KindMem:
		return kindMem
	case KindImm:
		return kindImm
	case KindAddr:
		return kindAddr
	}
	return 0
}

// widthIndex returns the index of an operand width among the six the
// ISA subset uses, from 0 for Size8 to 5 for Size256, or -1.
func widthIndex(size int) int {
	if size < Size8 || size > Size256 || size&(size-1) != 0 {
		return -1
	}
	return bits.TrailingZeros(uint(size)) - 3
}

// widthOther is widthBit's bit for every width outside the six; no
// template lists such a width, so only a template that allows any width
// admits it.
const widthOther uint8 = 1 << 6

// widthBit returns the bit of an operand width.
func widthBit(size int) uint8 {
	if w := widthIndex(size); w >= 0 {
		return 1 << w
	}
	return widthOther
}

// compile sets the template's masks from its declarative fields.
func (t *OpTemplate) compile() {
	for _, k := range t.Kinds {
		if k != KindReg {
			t.kinds |= kindBit(&Operand{Kind: k})
			continue
		}
		reg := kindAnyReg
		if t.VecOnly {
			reg &= kindVec
		}
		if t.GPOnly {
			reg &= kindGP
		}
		t.kinds |= reg
	}
	if t.Sizes == nil {
		t.widths = ^uint8(0)
		return
	}
	for _, size := range t.Sizes {
		bit := widthBit(size)
		if bit == widthOther {
			panic("x86: template lists width " + itoa(size))
		}
		t.widths |= bit
	}
}

// Form is one legal operand arrangement for an opcode.
type Form struct {
	Ops []OpTemplate
	// Check optionally imposes extra constraints that templates cannot
	// express (e.g. movzx requires the source narrower than the destination).
	// It may test operand kinds and widths only (see Spec.PinsReg).
	Check func(ops []Operand) bool
}

// Match reports whether the operand list satisfies this form.
func (f *Form) Match(ops []Operand) bool {
	if len(ops) != len(f.Ops) {
		return false
	}
	memCount := 0
	for i := range f.Ops {
		t, o := &f.Ops[i], &ops[i]
		if t.kinds&kindBit(o) == 0 || t.widths&widthBit(o.Size) == 0 {
			return false
		}
		if o.Kind == KindMem {
			memCount++
		}
		if t.SameSizeAs >= 0 && t.SameSizeAs < len(ops) {
			want := ops[t.SameSizeAs].Size
			if o.Kind == KindImm {
				// Immediates may be narrower than the operand they pair with.
				if o.Size > want {
					return false
				}
			} else if o.Size != want {
				return false
			}
		}
		if !t.RequireReg.IsZero() && (o.Kind != KindReg || o.Reg != t.RequireReg) {
			return false
		}
	}
	if memCount > 1 {
		return false // x86 allows at most one memory operand
	}
	if f.Check != nil && !f.Check(ops) {
		return false
	}
	return true
}

// Spec is the full description of one opcode.
type Spec struct {
	Name           string
	Class          Class
	Forms          []Form
	ImplicitReads  []RegFamily
	ImplicitWrites []RegFamily
	ReadsFlags     bool
	WritesFlags    bool
	StackRead      bool // pop-like: reads the stack slot
	StackWrite     bool // push-like: writes the stack slot

	// Compiled at init: whether a form pins a register, and the
	// compute-uop cost per architecture and perfWidths index.
	pinsReg bool
	perf    [numArches][len(perfWidths)]Perf
}

// MatchForm returns the first form satisfied by ops, or nil.
func (s *Spec) MatchForm(ops []Operand) *Form {
	for i := range s.Forms {
		if s.Forms[i].Match(ops) {
			return &s.Forms[i]
		}
	}
	return nil
}

// PinsReg reports whether some form of the opcode requires an exact
// register (OpTemplate.RequireReg), like a shift count in cl. Every
// other template test depends on an operand's kind, bank and width only,
// so renaming a register within its bank and width, or sliding a
// displacement, cannot change which forms an operand list of an opcode
// that pins no register matches.
func (s *Spec) PinsReg() bool { return s.pinsReg }

// ---- template constructors -------------------------------------------------

var (
	gpSizes    = []int{Size8, Size16, Size32, Size64}
	gpSizesW   = []int{Size16, Size32, Size64}
	vecSizes   = []int{Size128, Size256}
	xmmOnly    = []int{Size128}
	scalarSS   = []int{Size32}
	scalarSD   = []int{Size64}
	packed128  = []int{Size128}
	packedBoth = []int{Size128, Size256}
)

func tReg(acc Access, sizes []int, same int) OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindReg}, Sizes: sizes, Access: acc, SameSizeAs: same, GPOnly: true}
}

func tRM(acc Access, sizes []int, same int) OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindReg, KindMem}, Sizes: sizes, Access: acc, SameSizeAs: same, GPOnly: true}
}

func tMem(acc Access, sizes []int, same int) OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindMem}, Sizes: sizes, Access: acc, SameSizeAs: same}
}

func tImm(same int) OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindImm}, Access: AccR, SameSizeAs: same}
}

func tImm8() OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindImm}, Sizes: []int{Size8}, Access: AccR, SameSizeAs: -1}
}

func tVec(acc Access, sizes []int, same int) OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindReg}, Sizes: sizes, Access: acc, SameSizeAs: same, VecOnly: true}
}

func tAddr() OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindAddr}, Access: AccR, SameSizeAs: -1}
}

func tCL(acc Access) OpTemplate {
	return OpTemplate{Kinds: []OperandKind{KindReg}, Sizes: []int{Size8}, Access: acc,
		SameSizeAs: -1, RequireReg: Reg{Family: FamRCX, Size: Size8}}
}

// ---- form constructors ------------------------------------------------------

// binaryGPForms returns the canonical two-operand integer forms:
// (r/m, reg), (reg, r/m), (r/m, imm), with the given destination access.
func binaryGPForms(dst Access) []Form {
	return []Form{
		{Ops: []OpTemplate{tRM(dst, gpSizes, -1), tReg(AccR, gpSizes, 0)}},
		{Ops: []OpTemplate{tReg(dst, gpSizes, -1), tRM(AccR, gpSizes, 0)}},
		{Ops: []OpTemplate{tRM(dst, gpSizes, -1), tImm(0)}},
	}
}

func unaryGPForms(acc Access) []Form {
	return []Form{{Ops: []OpTemplate{tRM(acc, gpSizes, -1)}}}
}

func shiftForms() []Form {
	return []Form{
		{Ops: []OpTemplate{tRM(AccRW, gpSizes, -1), tImm8()}},
		{Ops: []OpTemplate{tRM(AccRW, gpSizes, -1), tCL(AccR)}},
	}
}

// scalarSSEForms returns (xmm dst, xmm/mN src) for scalar FP math, where the
// memory form uses the scalar width.
func scalarSSEForms(dst Access, memSize []int) []Form {
	return []Form{
		{Ops: []OpTemplate{tVec(dst, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tVec(dst, xmmOnly, -1), tMem(AccR, memSize, -1)}},
	}
}

// packedSSEForms returns (xmm dst, xmm/m128 src).
func packedSSEForms(dst Access) []Form {
	return []Form{
		{Ops: []OpTemplate{tVec(dst, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tVec(dst, xmmOnly, -1), tMem(AccR, packed128, -1)}},
	}
}

// avxScalarForms returns the 3-operand scalar AVX forms
// (xmm W, xmm R, xmm/mN R).
func avxScalarForms(memSize []int) []Form {
	return []Form{
		{Ops: []OpTemplate{tVec(AccW, xmmOnly, -1), tVec(AccR, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tVec(AccW, xmmOnly, -1), tVec(AccR, xmmOnly, -1), tMem(AccR, memSize, -1)}},
	}
}

// avxPackedForms returns the 3-operand packed AVX forms over xmm or ymm.
func avxPackedForms() []Form {
	return []Form{
		{Ops: []OpTemplate{tVec(AccW, vecSizes, -1), tVec(AccR, vecSizes, 0), tVec(AccR, vecSizes, 0)}},
		{Ops: []OpTemplate{tVec(AccW, vecSizes, -1), tVec(AccR, vecSizes, 0), tMem(AccR, packedBoth, 0)}},
	}
}

func vecMovForms(sizes []int) []Form {
	return []Form{
		{Ops: []OpTemplate{tVec(AccW, sizes, -1), tVec(AccR, sizes, 0)}},
		{Ops: []OpTemplate{tVec(AccW, sizes, -1), tMem(AccR, sizes, 0)}},
		{Ops: []OpTemplate{tMem(AccW, sizes, -1), tVec(AccR, sizes, 0)}},
	}
}

func scalarMovForms(memSize []int) []Form {
	return []Form{
		{Ops: []OpTemplate{tVec(AccW, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tVec(AccW, xmmOnly, -1), tMem(AccR, memSize, -1)}},
		{Ops: []OpTemplate{tMem(AccW, memSize, -1), tVec(AccR, xmmOnly, -1)}},
	}
}

// ---- the opcode table -------------------------------------------------------

// specs lists every opcode's spec, sorted by name and compiled
// (compileSpecs); specSlots indexes them by name for Lookup.
var specs, specSlots = compileSpecs(buildSpecs())

// buildSpecs returns the opcode table as declared, uncompiled.
func buildSpecs() []*Spec {
	var specs []*Spec

	add := func(s *Spec) { specs = append(specs, s) }

	// Integer data movement.
	add(&Spec{Name: "mov", Class: ClassMov, Forms: []Form{
		{Ops: []OpTemplate{tRM(AccW, gpSizes, -1), tReg(AccR, gpSizes, 0)}},
		{Ops: []OpTemplate{tReg(AccW, gpSizes, -1), tRM(AccR, gpSizes, 0)}},
		{Ops: []OpTemplate{tRM(AccW, gpSizes, -1), tImm(0)}},
	}})
	extCheck := func(ops []Operand) bool { return ops[1].Size < ops[0].Size }
	add(&Spec{Name: "movzx", Class: ClassMovExt, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccW, gpSizesW, -1), tRM(AccR, []int{Size8, Size16}, -1)}, Check: extCheck},
	}})
	add(&Spec{Name: "movsx", Class: ClassMovExt, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccW, gpSizesW, -1), tRM(AccR, []int{Size8, Size16}, -1)}, Check: extCheck},
	}})
	add(&Spec{Name: "lea", Class: ClassLea, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccW, gpSizesW, -1), tAddr()}},
	}})

	// Two-operand integer arithmetic/logic. adc/sbb additionally read flags.
	for _, name := range []string{"add", "sub", "and", "or", "xor"} {
		add(&Spec{Name: name, Class: ClassIntALU, Forms: binaryGPForms(AccRW), WritesFlags: true})
	}
	for _, name := range []string{"adc", "sbb"} {
		add(&Spec{Name: name, Class: ClassIntALU, Forms: binaryGPForms(AccRW), ReadsFlags: true, WritesFlags: true})
	}
	add(&Spec{Name: "cmp", Class: ClassIntALU, Forms: binaryGPForms(AccR), WritesFlags: true})
	add(&Spec{Name: "test", Class: ClassIntALU, WritesFlags: true, Forms: []Form{
		{Ops: []OpTemplate{tRM(AccR, gpSizes, -1), tReg(AccR, gpSizes, 0)}},
		{Ops: []OpTemplate{tRM(AccR, gpSizes, -1), tImm(0)}},
	}})

	// One-operand integer arithmetic/logic.
	for _, name := range []string{"inc", "dec", "neg"} {
		add(&Spec{Name: name, Class: ClassIntALU, Forms: unaryGPForms(AccRW), WritesFlags: true})
	}
	add(&Spec{Name: "not", Class: ClassIntALU, Forms: unaryGPForms(AccRW)})
	add(&Spec{Name: "bswap", Class: ClassIntALU, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccRW, []int{Size32, Size64}, -1)}},
	}})

	// Multiplication and division.
	add(&Spec{Name: "imul", Class: ClassIntMul, WritesFlags: true, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccRW, gpSizesW, -1), tRM(AccR, gpSizesW, 0)}},
		{Ops: []OpTemplate{tReg(AccW, gpSizesW, -1), tRM(AccR, gpSizesW, 0), tImm(0)}},
	}})
	add(&Spec{Name: "mul", Class: ClassIntMul, WritesFlags: true,
		ImplicitReads:  []RegFamily{FamRAX},
		ImplicitWrites: []RegFamily{FamRAX, FamRDX},
		Forms:          unaryGPForms(AccR)})
	for _, name := range []string{"div", "idiv"} {
		add(&Spec{Name: name, Class: ClassIntDiv, WritesFlags: true,
			ImplicitReads:  []RegFamily{FamRAX, FamRDX},
			ImplicitWrites: []RegFamily{FamRAX, FamRDX},
			Forms:          unaryGPForms(AccR)})
	}
	add(&Spec{Name: "cqo", Class: ClassIntALU,
		ImplicitReads: []RegFamily{FamRAX}, ImplicitWrites: []RegFamily{FamRDX},
		Forms: []Form{{Ops: nil}}})
	add(&Spec{Name: "cdq", Class: ClassIntALU,
		ImplicitReads: []RegFamily{FamRAX}, ImplicitWrites: []RegFamily{FamRDX},
		Forms: []Form{{Ops: nil}}})

	// Shifts and rotates.
	for _, name := range []string{"shl", "shr", "sar", "rol", "ror"} {
		add(&Spec{Name: name, Class: ClassShift, Forms: shiftForms(), WritesFlags: true})
	}

	// Bit counting.
	for _, name := range []string{"popcnt", "lzcnt", "tzcnt"} {
		add(&Spec{Name: name, Class: ClassBitCount, WritesFlags: true, Forms: []Form{
			{Ops: []OpTemplate{tReg(AccW, gpSizesW, -1), tRM(AccR, gpSizesW, 0)}},
		}})
	}

	// Stack operations.
	add(&Spec{Name: "push", Class: ClassPush, StackWrite: true,
		ImplicitReads: []RegFamily{FamRSP}, ImplicitWrites: []RegFamily{FamRSP},
		Forms: []Form{
			{Ops: []OpTemplate{tReg(AccR, []int{Size16, Size64}, -1)}},
			{Ops: []OpTemplate{tMem(AccR, []int{Size16, Size64}, -1)}},
			{Ops: []OpTemplate{tImm(-1)}},
		}})
	add(&Spec{Name: "pop", Class: ClassPop, StackRead: true,
		ImplicitReads: []RegFamily{FamRSP}, ImplicitWrites: []RegFamily{FamRSP},
		Forms: []Form{
			{Ops: []OpTemplate{tReg(AccW, []int{Size16, Size64}, -1)}},
			{Ops: []OpTemplate{tMem(AccW, []int{Size16, Size64}, -1)}},
		}})

	add(&Spec{Name: "xchg", Class: ClassXchg, Forms: []Form{
		{Ops: []OpTemplate{tRM(AccRW, gpSizes, -1), tReg(AccRW, gpSizes, 0)}},
	}})
	add(&Spec{Name: "nop", Class: ClassNop, Forms: []Form{{Ops: nil}}})

	// SSE scalar moves and arithmetic (ss = float32, sd = float64).
	add(&Spec{Name: "movss", Class: ClassVecMov, Forms: scalarMovForms(scalarSS)})
	add(&Spec{Name: "movsd", Class: ClassVecMov, Forms: scalarMovForms(scalarSD)})
	type vecOp struct {
		name  string
		class Class
		dst   Access
	}
	scalarOps := []vecOp{
		{"addss", ClassVecFPAdd, AccRW}, {"subss", ClassVecFPAdd, AccRW},
		{"mulss", ClassVecFPMul, AccRW}, {"divss", ClassVecFPDiv, AccRW},
		{"minss", ClassVecFPAdd, AccRW}, {"maxss", ClassVecFPAdd, AccRW},
		{"sqrtss", ClassVecFPSqrt, AccW},
	}
	for _, op := range scalarOps {
		add(&Spec{Name: op.name, Class: op.class, Forms: scalarSSEForms(op.dst, scalarSS)})
		sd := strings.TrimSuffix(op.name, "ss") + "sd"
		add(&Spec{Name: sd, Class: op.class, Forms: scalarSSEForms(op.dst, scalarSD)})
	}
	add(&Spec{Name: "ucomiss", Class: ClassVecCmp, WritesFlags: true, Forms: []Form{
		{Ops: []OpTemplate{tVec(AccR, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tVec(AccR, xmmOnly, -1), tMem(AccR, scalarSS, -1)}},
	}})
	add(&Spec{Name: "ucomisd", Class: ClassVecCmp, WritesFlags: true, Forms: []Form{
		{Ops: []OpTemplate{tVec(AccR, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tVec(AccR, xmmOnly, -1), tMem(AccR, scalarSD, -1)}},
	}})

	// Conversions.
	add(&Spec{Name: "cvtsi2ss", Class: ClassConvert, Forms: []Form{
		{Ops: []OpTemplate{tVec(AccRW, xmmOnly, -1), tRM(AccR, []int{Size32, Size64}, -1)}},
	}})
	add(&Spec{Name: "cvtsi2sd", Class: ClassConvert, Forms: []Form{
		{Ops: []OpTemplate{tVec(AccRW, xmmOnly, -1), tRM(AccR, []int{Size32, Size64}, -1)}},
	}})
	add(&Spec{Name: "cvttss2si", Class: ClassConvert, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccW, []int{Size32, Size64}, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tReg(AccW, []int{Size32, Size64}, -1), tMem(AccR, scalarSS, -1)}},
	}})
	add(&Spec{Name: "cvttsd2si", Class: ClassConvert, Forms: []Form{
		{Ops: []OpTemplate{tReg(AccW, []int{Size32, Size64}, -1), tVec(AccR, xmmOnly, -1)}},
		{Ops: []OpTemplate{tReg(AccW, []int{Size32, Size64}, -1), tMem(AccR, scalarSD, -1)}},
	}})

	// SSE packed moves and arithmetic.
	for _, name := range []string{"movaps", "movups", "movapd", "movupd", "movdqa", "movdqu"} {
		add(&Spec{Name: name, Class: ClassVecMov, Forms: vecMovForms(packed128)})
	}
	packedOps := []vecOp{
		{"addps", ClassVecFPAdd, AccRW}, {"addpd", ClassVecFPAdd, AccRW},
		{"subps", ClassVecFPAdd, AccRW}, {"subpd", ClassVecFPAdd, AccRW},
		{"mulps", ClassVecFPMul, AccRW}, {"mulpd", ClassVecFPMul, AccRW},
		{"divps", ClassVecFPDiv, AccRW}, {"divpd", ClassVecFPDiv, AccRW},
		{"minps", ClassVecFPAdd, AccRW}, {"maxps", ClassVecFPAdd, AccRW},
	}
	for _, op := range packedOps {
		add(&Spec{Name: op.name, Class: op.class, Forms: packedSSEForms(op.dst)})
	}
	for _, name := range []string{"xorps", "xorpd", "andps", "andpd", "orps", "orpd",
		"andnps", "andnpd", "pand", "por", "pxor", "pandn"} {
		add(&Spec{Name: name, Class: ClassVecLogic, Forms: packedSSEForms(AccRW)})
	}
	// The breadth of cheap packed-integer ops matters: it keeps the
	// probability that Γ replaces a cheap vector op with an expensive one
	// (div/sqrt) realistically small, as on real x86 where hundreds of
	// single-cycle SIMD opcodes share each operand signature.
	for _, name := range []string{"paddb", "paddw", "paddd", "paddq",
		"psubb", "psubw", "psubd", "psubq",
		"pavgb", "pavgw", "pmaxsd", "pminsd", "pmaxub", "pminub",
		"pcmpeqb", "pcmpeqw", "pcmpeqd", "pcmpgtb", "pcmpgtw", "pcmpgtd",
		"punpcklbw", "punpckhbw", "punpckldq", "punpckhdq",
		"packssdw", "packuswb",
		"unpcklps", "unpckhps", "unpcklpd", "unpckhpd"} {
		add(&Spec{Name: name, Class: ClassVecIntALU, Forms: packedSSEForms(AccRW)})
	}
	for _, name := range []string{"haddps", "haddpd", "hsubps", "hsubpd", "addsubps", "addsubpd"} {
		add(&Spec{Name: name, Class: ClassVecFPAdd, Forms: packedSSEForms(AccRW)})
	}
	for _, name := range []string{"pmulld", "pmullw", "pmuludq"} {
		add(&Spec{Name: name, Class: ClassVecIntMul, Forms: packedSSEForms(AccRW)})
	}
	for _, name := range []string{"rcpss", "rsqrtss"} {
		add(&Spec{Name: name, Class: ClassVecFPMul, Forms: scalarSSEForms(AccW, scalarSS)})
	}
	for _, name := range []string{"movsldup", "movshdup"} {
		add(&Spec{Name: name, Class: ClassVecMov, Forms: packedSSEForms(AccW)})
	}

	// AVX three-operand encodings.
	for _, name := range []string{"vmovaps", "vmovups", "vmovdqa", "vmovdqu"} {
		add(&Spec{Name: name, Class: ClassVecMov, Forms: []Form{
			{Ops: []OpTemplate{tVec(AccW, vecSizes, -1), tVec(AccR, vecSizes, 0)}},
			{Ops: []OpTemplate{tVec(AccW, vecSizes, -1), tMem(AccR, packedBoth, 0)}},
			{Ops: []OpTemplate{tMem(AccW, packedBoth, -1), tVec(AccR, vecSizes, 0)}},
		}})
	}
	avxScalar := []vecOp{
		{"vaddss", ClassVecFPAdd, AccW}, {"vsubss", ClassVecFPAdd, AccW},
		{"vmulss", ClassVecFPMul, AccW}, {"vdivss", ClassVecFPDiv, AccW},
		{"vminss", ClassVecFPAdd, AccW}, {"vmaxss", ClassVecFPAdd, AccW},
		{"vsqrtss", ClassVecFPSqrt, AccW},
	}
	for _, op := range avxScalar {
		add(&Spec{Name: op.name, Class: op.class, Forms: avxScalarForms(scalarSS)})
		sd := strings.TrimSuffix(op.name, "ss") + "sd"
		add(&Spec{Name: sd, Class: op.class, Forms: avxScalarForms(scalarSD)})
	}
	// Scalar FMA family: same three-operand shape as vaddss/vmulss, with a
	// read-modify destination. Costed like a multiply.
	fmaScalarForms := func(memSize []int) []Form {
		return []Form{
			{Ops: []OpTemplate{tVec(AccRW, xmmOnly, -1), tVec(AccR, xmmOnly, -1), tVec(AccR, xmmOnly, -1)}},
			{Ops: []OpTemplate{tVec(AccRW, xmmOnly, -1), tVec(AccR, xmmOnly, -1), tMem(AccR, memSize, -1)}},
		}
	}
	for _, base := range []string{"vfmadd213", "vfmadd231", "vfmsub213", "vfnmadd213"} {
		add(&Spec{Name: base + "ss", Class: ClassVecFPMul, Forms: fmaScalarForms(scalarSS)})
		add(&Spec{Name: base + "sd", Class: ClassVecFPMul, Forms: fmaScalarForms(scalarSD)})
	}
	avxPacked := []vecOp{
		{"vaddps", ClassVecFPAdd, AccW}, {"vaddpd", ClassVecFPAdd, AccW},
		{"vsubps", ClassVecFPAdd, AccW}, {"vsubpd", ClassVecFPAdd, AccW},
		{"vmulps", ClassVecFPMul, AccW}, {"vmulpd", ClassVecFPMul, AccW},
		{"vdivps", ClassVecFPDiv, AccW}, {"vdivpd", ClassVecFPDiv, AccW},
		{"vxorps", ClassVecLogic, AccW}, {"vandps", ClassVecLogic, AccW},
		{"vorps", ClassVecLogic, AccW},
		{"vpaddd", ClassVecIntALU, AccW}, {"vpaddq", ClassVecIntALU, AccW},
		{"vpsubd", ClassVecIntALU, AccW}, {"vpavgb", ClassVecIntALU, AccW},
		{"vpminsd", ClassVecIntALU, AccW}, {"vpmaxsd", ClassVecIntALU, AccW},
		{"vpcmpeqb", ClassVecIntALU, AccW}, {"vpcmpeqd", ClassVecIntALU, AccW},
		{"vpunpckldq", ClassVecIntALU, AccW}, {"vunpcklps", ClassVecIntALU, AccW},
		{"vunpckhps", ClassVecIntALU, AccW},
		{"vhaddps", ClassVecFPAdd, AccW}, {"vaddsubps", ClassVecFPAdd, AccW},
		{"vpand", ClassVecLogic, AccW}, {"vpor", ClassVecLogic, AccW},
		{"vpxor", ClassVecLogic, AccW}, {"vandnps", ClassVecLogic, AccW},
		{"vfmadd213ps", ClassVecFPMul, AccW}, {"vfmadd231ps", ClassVecFPMul, AccW},
		{"vfmsub213ps", ClassVecFPMul, AccW},
	}
	for _, op := range avxPacked {
		add(&Spec{Name: op.name, Class: op.class, Forms: avxPackedForms()})
	}

	return specs
}

// specSlotCount is the size of Lookup's open-addressing table: a power
// of two over twice the opcode count, so probes stay short and always
// reach an empty slot.
const specSlotCount = 512

// maxOpcodeLen bounds the length of every opcode name; a longer name
// cannot match without a case fold.
const maxOpcodeLen = 16

// compileSpecs compiles every template's masks and every spec's pinned
// registers and costs, sorts the specs by name and builds Lookup's
// table. It panics on a duplicate or over-long name, or a table too
// small for the opcodes.
func compileSpecs(list []*Spec) ([]*Spec, *[specSlotCount]*Spec) {
	if 2*len(list) > specSlotCount {
		panic("x86: opcode table over half full")
	}
	slices.SortFunc(list, func(a, b *Spec) int { return strings.Compare(a.Name, b.Name) })
	var slots [specSlotCount]*Spec
	for _, s := range list {
		if len(s.Name) > maxOpcodeLen {
			panic("x86: opcode name too long: " + s.Name)
		}
		for i := range s.Forms {
			for j := range s.Forms[i].Ops {
				t := &s.Forms[i].Ops[j]
				t.compile()
				s.pinsReg = s.pinsReg || !t.RequireReg.IsZero()
			}
		}
		for _, a := range Arches() {
			for w, size := range perfWidths {
				s.perf[a][w] = opcodePerfOverride(a, s.Name, size, classPerf(a, s.Class))
			}
		}
		i := opcodeSlot(s.Name)
		for ; slots[i] != nil; i = (i + 1) % specSlotCount {
			if slots[i].Name == s.Name {
				panic("x86: duplicate opcode " + s.Name)
			}
		}
		slots[i] = s
	}
	return list, &slots
}

// opcodeSlot returns the slot where Lookup's probe for name starts: the
// 32-bit FNV-1a hash of the name modulo the table size.
func opcodeSlot(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h ^= uint32(name[i])
		h *= 16777619
	}
	return h % specSlotCount
}

// lookupExact returns the spec named exactly name, or nil. The probe
// compares names, so colliding hashes only lengthen it.
func lookupExact(name string) *Spec {
	if len(name) > maxOpcodeLen {
		return nil
	}
	for i := opcodeSlot(name); ; i = (i + 1) % specSlotCount {
		if s := specSlots[i]; s == nil || s.Name == name {
			return s
		}
	}
}

// Lookup returns the spec for an opcode mnemonic, case-insensitively.
func Lookup(opcode string) (*Spec, bool) {
	// Canonical opcodes are lower-case: try them as they are before
	// paying for the case fold.
	if s := lookupExact(opcode); s != nil {
		return s, true
	}
	s := lookupExact(strings.ToLower(opcode))
	return s, s != nil
}

// Opcodes returns all known opcode mnemonics in sorted order.
func Opcodes() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// ---- opcode replacement candidates -----------------------------------------

var (
	candMu    sync.Mutex
	candCache = make(map[string][]string)
)

// ReplacementCandidates returns the opcodes (other than inst's own) that
// accept inst's exact operand list, i.e. the valid vertex perturbations of
// the paper's Γ algorithm. The result is sorted and cached; callers must
// not mutate it.
func ReplacementCandidates(inst Instruction) []string {
	key := inst.shapeKey()
	candMu.Lock()
	cached, ok := candCache[key]
	candMu.Unlock()
	if !ok {
		var names []string
		for _, spec := range specs {
			if spec.MatchForm(inst.Operands) != nil {
				names = append(names, spec.Name)
			}
		}
		candMu.Lock()
		candCache[key] = names
		candMu.Unlock()
		cached = names
	}
	out := make([]string, 0, len(cached))
	for _, name := range cached {
		if name != strings.ToLower(inst.Opcode) {
			out = append(out, name)
		}
	}
	return out
}

// shapeKey canonicalizes the operand list for the candidate cache. It must
// capture everything Form.Match can observe: kinds, sizes, exact registers
// (for RequireReg and size-relation checks) and immediate magnitudes are
// reduced to width only.
func (inst Instruction) shapeKey() string {
	var b strings.Builder
	for _, o := range inst.Operands {
		switch o.Kind {
		case KindReg:
			b.WriteString("r:")
			b.WriteString(o.Reg.String())
		case KindMem:
			b.WriteString("m:")
		case KindImm:
			b.WriteString("i:")
		case KindAddr:
			b.WriteString("a:")
		}
		b.WriteByte(';')
		b.WriteString(itoa(o.Size))
		b.WriteByte('|')
	}
	return b.String()
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
