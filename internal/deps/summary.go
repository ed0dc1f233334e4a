package deps

import (
	"fmt"
	"math/bits"

	"github.com/comet-explain/comet/internal/x86"
)

// Summary is the access summary of a basic block, one entry per
// instruction. It answers the all-pairs multigraph's edge question —
// does instruction i reach instruction j through a hazard of a given
// type — with mask tests, without building, labelling or sorting edges.
type Summary []InstAccess

// InstAccess is what one instruction reads and writes, together with
// its resolved spec and form.
type InstAccess struct {
	Spec *x86.Spec
	Form *x86.Form
	// Reads and Writes hold bit 1<<family per register family, plus
	// StackBit, FlagsBit and MemBit; MemBit stands for Mem.
	Reads, Writes uint64
	// Mem is the instruction's one memory location: a matched form has
	// at most one memory operand (x86.Form.Match).
	Mem MemLoc
}

// MemUops returns how many load and store micro-ops the instruction
// performs, as x86.MemUops counts them: one per stack access and one per
// read and write of its memory operand.
func (a *InstAccess) MemUops() (loads, stores int) {
	const uops = MemBit | StackBit
	return bits.OnesCount64(a.Reads & uops), bits.OnesCount64(a.Writes & uops)
}

// Location bits above the register families. The conversion fails to
// compile if the family table ever reaches MemBit.
const (
	MemBit   = 1 << 61
	StackBit = 1 << 62
	FlagsBit = 1 << 63

	_ = uint(61 - 1 - x86.FamFlags)
)

// MemLoc is the comparable form of MemRef.LocKey: two memory operands
// get equal MemLocs exactly when they get equal keys.
type MemLoc struct {
	base, index x86.RegFamily
	scale       int // 0 without an index, which LocKey does not render
	disp        int64
}

func memLocOf(m *x86.MemRef) MemLoc {
	l := MemLoc{base: m.Base.Family, disp: m.Disp}
	if !m.Index.IsZero() {
		l.index, l.scale = m.Index.Family, m.Scale
	}
	return l
}

// AppendSummary appends the access summary of b's instructions to dst
// and returns the extended slice. AppendEdges takes its accesses from the
// same entries and fails on the same blocks with the same errors; beyond
// growing dst AppendSummary does not allocate.
func AppendSummary(dst Summary, b *x86.BasicBlock, opts Options) (Summary, error) {
	for i := range b.Instructions {
		dst = append(dst, InstAccess{})
		if err := setAccess(&dst[len(dst)-1], &b.Instructions[i], opts); err != nil {
			return dst[:len(dst)-1], fmt.Errorf("instruction %d: %w", i+1, err)
		}
	}
	return dst, nil
}

// setAccess resolves inst's spec and form and sets the zero entry ia to
// what inst reads and writes: its operands as the form accesses them
// (the base and index registers of a memory or address operand are
// reads), its implicit registers, the stack, and the flags when opts
// tracks them. These are the only rules for what an instruction
// accesses.
func setAccess(ia *InstAccess, inst *x86.Instruction, opts Options) error {
	spec, ok := x86.Lookup(inst.Opcode)
	if !ok {
		return fmt.Errorf("deps: unknown opcode %q", inst.Opcode)
	}
	form := spec.MatchForm(inst.Operands)
	if form == nil {
		return fmt.Errorf("deps: %s does not match any form", *inst)
	}
	ia.Spec, ia.Form = spec, form
	for i := range inst.Operands {
		op, acc := &inst.Operands[i], form.Ops[i].Access
		var bit uint64
		switch op.Kind {
		case x86.KindReg:
			bit = 1 << op.Reg.Family
		case x86.KindMem:
			ia.Reads |= addrRegs(&op.Mem)
			bit, ia.Mem = MemBit, memLocOf(&op.Mem)
		case x86.KindAddr:
			ia.Reads |= addrRegs(&op.Mem)
		}
		if acc&x86.AccR != 0 {
			ia.Reads |= bit
		}
		if acc&x86.AccW != 0 {
			ia.Writes |= bit
		}
	}
	for _, fam := range spec.ImplicitReads {
		ia.Reads |= 1 << fam
	}
	for _, fam := range spec.ImplicitWrites {
		ia.Writes |= 1 << fam
	}
	if spec.StackRead {
		ia.Reads |= StackBit
	}
	if spec.StackWrite {
		ia.Writes |= StackBit
	}
	if opts.TrackFlags {
		if spec.ReadsFlags {
			ia.Reads |= FlagsBit
		}
		if spec.WritesFlags {
			ia.Writes |= FlagsBit
		}
	}
	return nil
}

// addrRegs returns the bits of the registers an address reads.
func addrRegs(m *x86.MemRef) uint64 {
	var regs uint64
	if !m.Base.IsZero() {
		regs |= 1 << m.Base.Family
	}
	if !m.Index.IsZero() {
		regs |= 1 << m.Index.Family
	}
	return regs
}

// HasHazard reports whether the block's dependency multigraph has an
// edge of hazard h from instruction i to instruction j: whether, for some
// location, i writes it and j reads it (RAW), i reads and j writes it
// (WAR), or both write it (WAW). Like Graph.HasEdge it is false unless
// i < j.
func (s Summary) HasHazard(i, j int, h Hazard) bool {
	if i < 0 || i >= j || j >= len(s) {
		return false
	}
	a, b := &s[i], &s[j]
	var common uint64
	switch h {
	case RAW:
		common = a.Writes & b.Reads
	case WAR:
		common = a.Reads & b.Writes
	case WAW:
		common = a.Writes & b.Writes
	}
	return Shared(common, a, b) != 0
}

// Shared narrows bits, a mask of locations a and b both access, to those
// they access in common: MemBit stays only when both access the same
// memory location.
func Shared(bits uint64, a, b *InstAccess) uint64 {
	if bits&MemBit != 0 && a.Mem != b.Mem {
		bits &^= MemBit
	}
	return bits
}
