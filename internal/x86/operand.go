package x86

import (
	"fmt"
	"strconv"
)

// OperandKind classifies an instruction operand.
type OperandKind int

const (
	// KindReg is a register operand.
	KindReg OperandKind = iota
	// KindMem is a memory operand with an explicit width ("qword ptr [...]").
	KindMem
	// KindImm is an immediate (constant) operand.
	KindImm
	// KindAddr is an effective-address operand: the bracketed operand of
	// lea. It reads the address components but never touches memory, and —
	// deliberately — no other opcode in the table accepts it, so lea has no
	// valid opcode replacement (Appendix D of the paper).
	KindAddr
)

// String returns a short human-readable kind name.
func (k OperandKind) String() string {
	switch k {
	case KindReg:
		return "reg"
	case KindMem:
		return "mem"
	case KindImm:
		return "imm"
	case KindAddr:
		return "addr"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// MemRef is an x86 addressing expression base + index*scale + disp.
type MemRef struct {
	Base  Reg   // zero if absent
	Index Reg   // zero if absent
	Scale int   // 1, 2, 4 or 8; 0 when Index is absent
	Disp  int64 // signed displacement
}

// LocKey returns a canonical identity for the addressed location, at
// register-family granularity. Two memory operands are considered to alias
// exactly when their keys are equal (syntactic aliasing, as in the paper's
// multigraph construction).
func (m MemRef) LocKey() string {
	var buf [48]byte
	dst := append(buf[:0], '[')
	if !m.Base.IsZero() {
		dst = append(dst, FamilyName(m.Base.Family)...)
	}
	if !m.Index.IsZero() {
		dst = append(dst, '+')
		dst = append(dst, FamilyName(m.Index.Family)...)
		dst = append(dst, '*')
		dst = strconv.AppendInt(dst, int64(m.Scale), 10)
	}
	if m.Disp >= 0 {
		dst = append(dst, '+')
	}
	dst = strconv.AppendInt(dst, m.Disp, 10)
	return string(append(dst, ']'))
}

// String renders the bracketed addressing expression in Intel syntax.
func (m MemRef) String() string {
	var buf [48]byte
	return string(m.AppendText(buf[:0]))
}

// AppendText appends String's text ("[rbp + rax*4 - 8]") to dst.
func (m MemRef) AppendText(dst []byte) []byte {
	dst = append(dst, '[')
	empty := true
	if !m.Base.IsZero() {
		dst = append(dst, m.Base.String()...)
		empty = false
	}
	if !m.Index.IsZero() {
		if !empty {
			dst = append(dst, " + "...)
		}
		dst = append(dst, m.Index.String()...)
		if m.Scale > 1 {
			dst = append(dst, '*')
			dst = strconv.AppendInt(dst, int64(m.Scale), 10)
		}
		empty = false
	}
	switch {
	case m.Disp < 0:
		// -m.Disp wraps for math.MinInt64, which renders as
		// " - -9223372036854775808"; the parser reads that back as the
		// same displacement.
		dst = append(dst, " - "...)
		dst = strconv.AppendInt(dst, -m.Disp, 10)
	case m.Disp > 0 && !empty:
		dst = append(dst, " + "...)
		dst = strconv.AppendInt(dst, m.Disp, 10)
	case empty:
		dst = strconv.AppendInt(dst, m.Disp, 10)
	}
	return append(dst, ']')
}

// Regs returns the register families the address expression reads.
func (m MemRef) Regs() []RegFamily {
	var fams []RegFamily
	if !m.Base.IsZero() {
		fams = append(fams, m.Base.Family)
	}
	if !m.Index.IsZero() {
		fams = append(fams, m.Index.Family)
	}
	return fams
}

// Operand is a single instruction operand.
type Operand struct {
	Kind OperandKind
	Reg  Reg    // valid when Kind == KindReg
	Mem  MemRef // valid when Kind == KindMem or KindAddr
	Imm  int64  // valid when Kind == KindImm
	Size int    // operand width in bits
}

// NewReg returns a register operand.
func NewReg(r Reg) Operand { return Operand{Kind: KindReg, Reg: r, Size: r.Size} }

// NewImm returns an immediate operand of the given width.
func NewImm(v int64, size int) Operand { return Operand{Kind: KindImm, Imm: v, Size: size} }

// FitImm returns an immediate operand at the narrowest width that can hold
// v — the same sizing rule the parser applies to immediate literals, so
// machine-code decoders that build immediates with it produce operands
// that survive a print/parse round trip unchanged.
func FitImm(v int64) Operand { return NewImm(v, immWidth(v)) }

// NewMem returns a memory operand of the given width.
func NewMem(m MemRef, size int) Operand { return Operand{Kind: KindMem, Mem: m, Size: size} }

// NewAddr returns a lea-style effective-address operand.
func NewAddr(m MemRef) Operand { return Operand{Kind: KindAddr, Mem: m, Size: Size64} }

var sizeQualifier = map[int]string{
	Size8:   "byte ptr",
	Size16:  "word ptr",
	Size32:  "dword ptr",
	Size64:  "qword ptr",
	Size128: "xmmword ptr",
	Size256: "ymmword ptr",
}

var qualifierSize = map[string]int{
	"byte":    Size8,
	"word":    Size16,
	"dword":   Size32,
	"qword":   Size64,
	"xmmword": Size128,
	"ymmword": Size256,
}

// String renders the operand in Intel syntax.
func (o Operand) String() string {
	var buf [64]byte
	return string(o.AppendText(buf[:0]))
}

// AppendText appends String's text to dst.
func (o Operand) AppendText(dst []byte) []byte {
	switch o.Kind {
	case KindReg:
		return append(dst, o.Reg.String()...)
	case KindImm:
		return strconv.AppendInt(dst, o.Imm, 10)
	case KindMem:
		if q, ok := sizeQualifier[o.Size]; ok {
			dst = append(dst, q...)
		} else {
			dst = append(dst, "size"...)
			dst = strconv.AppendInt(dst, int64(o.Size), 10)
			dst = append(dst, " ptr"...)
		}
		dst = append(dst, ' ')
		return o.Mem.AppendText(dst)
	case KindAddr:
		return o.Mem.AppendText(dst)
	}
	return append(dst, "<bad operand>"...)
}

// Equal reports structural equality of two operands.
func (o Operand) Equal(p Operand) bool { return o == p }
