package deps

import (
	"fmt"

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

func memLocOf(m x86.MemRef) MemLoc {
	l := MemLoc{base: m.Base.Family, disp: m.Disp}
	if !m.Index.IsZero() {
		l.index, l.scale = m.Index.Family, m.Scale
	}
	return l
}

// AppendSummary appends the access summary of b's instructions to dst
// and returns the extended slice. It takes its accesses from the same
// rules as AppendEdges and fails on the same blocks with the same
// errors; beyond growing dst it does not allocate.
func AppendSummary(dst Summary, b *x86.BasicBlock, opts Options) (Summary, error) {
	for i, inst := range b.Instructions {
		var ia InstAccess
		spec, form, err := visitAccesses(inst, opts, func(a access) {
			var bit uint64
			switch a.kind {
			case LocReg:
				bit = 1 << a.fam
			case LocMem:
				bit, ia.Mem = MemBit, memLocOf(a.mem)
			case LocStack:
				bit = StackBit
			case LocFlags:
				bit = FlagsBit
			}
			if a.write {
				ia.Writes |= bit
			} else {
				ia.Reads |= bit
			}
		})
		if err != nil {
			return dst, fmt.Errorf("instruction %d: %w", i+1, err)
		}
		ia.Spec, ia.Form = spec, form
		dst = append(dst, ia)
	}
	return dst, nil
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
