package deps

import (
	"errors"
	"fmt"

	"github.com/comet-explain/comet/internal/x86"
)

// ErrNotPairwise is AppendSummary's answer under Options.LastWriterOnly:
// a kill-based edge depends on the instructions between its endpoints,
// so no per-instruction summary can decide it. Build the graph instead.
var ErrNotPairwise = errors.New("deps: kill-based dependencies are not pairwise")

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
	// reads and writes hold bit 1<<family per register family, plus
	// stackBit, flagsBit and memBit; memBit stands for mem.
	reads, writes uint64
	// mem is the instruction's one memory location: a matched form has
	// at most one memory operand (x86.Form.Match).
	mem memLoc
}

// Location bits above the register families. The conversion fails to
// compile if the family table ever reaches memBit.
const (
	memBit   = 1 << 61
	stackBit = 1 << 62
	flagsBit = 1 << 63

	_ = uint(61 - 1 - x86.FamFlags)
)

// memLoc is the comparable form of MemRef.LocKey: two memory operands
// get equal memLocs exactly when they get equal keys.
type memLoc struct {
	base, index x86.RegFamily
	scale       int // 0 without an index, which LocKey does not render
	disp        int64
}

func memLocOf(m x86.MemRef) memLoc {
	l := memLoc{base: m.Base.Family, disp: m.Disp}
	if !m.Index.IsZero() {
		l.index, l.scale = m.Index.Family, m.Scale
	}
	return l
}

// AppendSummary appends the access summary of b's instructions to dst
// and returns the extended slice. It takes its accesses from the same
// rules as AppendEdges and fails on the same blocks with the same
// errors; beyond growing dst it does not allocate. Under
// Options.LastWriterOnly it returns ErrNotPairwise.
func AppendSummary(dst Summary, b *x86.BasicBlock, opts Options) (Summary, error) {
	if opts.LastWriterOnly {
		return dst, ErrNotPairwise
	}
	for i, inst := range b.Instructions {
		var ia InstAccess
		spec, form, err := visitAccesses(inst, opts, func(a access) {
			var bit uint64
			switch a.kind {
			case LocReg:
				bit = 1 << a.fam
			case LocMem:
				bit, ia.mem = memBit, memLocOf(a.mem)
			case LocStack:
				bit = stackBit
			case LocFlags:
				bit = flagsBit
			}
			if a.write {
				ia.writes |= bit
			} else {
				ia.reads |= bit
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
		common = a.writes & b.reads
	case WAR:
		common = a.reads & b.writes
	case WAW:
		common = a.writes & b.writes
	}
	return common&^memBit != 0 || common&memBit != 0 && a.mem == b.mem
}
