package x86

import (
	"fmt"
	"strconv"
	"strings"
)

// ParseBlock parses an Intel-syntax basic block, one instruction per line.
// Blank lines, leading "N:" line numbers, and ";"- or "#"-prefixed comments
// are ignored. The parsed block is validated against the instruction table.
func ParseBlock(src string) (*BasicBlock, error) {
	var insts []Instruction
	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		inst, err := ParseInstruction(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo+1, err)
		}
		insts = append(insts, inst)
	}
	b := NewBlock(insts...)
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// MustParseBlock is ParseBlock that panics on error, for tests and examples
// with literal blocks.
func MustParseBlock(src string) *BasicBlock {
	b, err := ParseBlock(src)
	if err != nil {
		panic(err)
	}
	return b
}

func stripComment(line string) string {
	if i := strings.IndexAny(line, ";#"); i >= 0 {
		return line[:i]
	}
	return line
}

// ParseInstruction parses a single Intel-syntax instruction such as
// "mov qword ptr [rdi + 24], rdx". An optional leading "N:" label
// (as used in the paper's listings) is skipped.
func ParseInstruction(line string) (Instruction, error) {
	line = strings.TrimSpace(line)
	// Skip a leading "3:"-style line number.
	if i := strings.IndexByte(line, ':'); i > 0 {
		if _, err := strconv.Atoi(strings.TrimSpace(line[:i])); err == nil {
			line = strings.TrimSpace(line[i+1:])
		}
	}
	if line == "" {
		return Instruction{}, fmt.Errorf("x86: empty instruction")
	}
	opcode := line
	rest := ""
	if i := strings.IndexAny(line, " \t"); i >= 0 {
		opcode, rest = line[:i], strings.TrimSpace(line[i+1:])
	}
	opcode = strings.ToLower(opcode)
	spec, ok := Lookup(opcode)
	if !ok {
		return Instruction{}, fmt.Errorf("x86: unknown opcode %q", opcode)
	}

	var ops []Operand
	if rest != "" {
		for _, field := range splitOperands(rest) {
			op, err := parseOperand(field, opcode == "lea")
			if err != nil {
				return Instruction{}, fmt.Errorf("x86: %q: %w", line, err)
			}
			ops = append(ops, op)
		}
	}
	_ = spec // existence already checked; full form validation happens in Validate
	return Instruction{Opcode: opcode, Operands: ops}, nil
}

// splitOperands splits on commas that are not inside brackets.
func splitOperands(s string) []string {
	var fields []string
	depth, start := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				fields = append(fields, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	fields = append(fields, strings.TrimSpace(s[start:]))
	return fields
}

func parseOperand(s string, isLea bool) (Operand, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Operand{}, fmt.Errorf("empty operand")
	}

	// Register?
	if r, ok := LookupReg(s); ok {
		return NewReg(r), nil
	}

	// Memory with explicit width qualifier ("qword ptr [..]" or "qword [..]")?
	lower := strings.ToLower(s)
	for q, size := range qualifierSize {
		if !strings.HasPrefix(lower, q+" ") {
			continue
		}
		rest := strings.TrimSpace(s[len(q):])
		if restLower := strings.ToLower(rest); strings.HasPrefix(restLower, "ptr") {
			rest = strings.TrimSpace(rest[3:])
		}
		m, err := parseMemRef(rest)
		if err != nil {
			return Operand{}, err
		}
		return NewMem(m, size), nil
	}

	// Bare bracketed expression: address operand for lea, otherwise an
	// unsized memory operand (rejected — our subset requires widths).
	if strings.HasPrefix(s, "[") {
		m, err := parseMemRef(s)
		if err != nil {
			return Operand{}, err
		}
		if isLea {
			return NewAddr(m), nil
		}
		return Operand{}, fmt.Errorf("memory operand %q needs a size qualifier (e.g. \"qword ptr\")", s)
	}

	// Immediate.
	v, err := parseInt(s)
	if err != nil {
		return Operand{}, fmt.Errorf("cannot parse operand %q", s)
	}
	return NewImm(v, immWidth(v)), nil
}

func parseMemRef(s string) (MemRef, error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return MemRef{}, fmt.Errorf("malformed memory reference %q", s)
	}
	inner := s[1 : len(s)-1]
	var m MemRef
	for _, term := range splitTerms(inner) {
		t := strings.TrimSpace(term.text)
		if t == "" {
			return MemRef{}, fmt.Errorf("malformed memory reference %q", s)
		}
		// reg*scale or scale*reg
		if i := strings.IndexByte(t, '*'); i >= 0 {
			a, b := strings.TrimSpace(t[:i]), strings.TrimSpace(t[i+1:])
			reg, regOK := LookupReg(a)
			scale, scaleErr := parseInt(b)
			if !regOK {
				reg, regOK = LookupReg(b)
				scale, scaleErr = parseInt(a)
			}
			if !regOK || scaleErr != nil {
				return MemRef{}, fmt.Errorf("malformed scaled index %q", t)
			}
			if term.neg {
				return MemRef{}, fmt.Errorf("negative index term %q", t)
			}
			if scale != 1 && scale != 2 && scale != 4 && scale != 8 {
				return MemRef{}, fmt.Errorf("invalid scale %d in %q", scale, t)
			}
			if !m.Index.IsZero() {
				return MemRef{}, fmt.Errorf("multiple index registers in %q", s)
			}
			m.Index, m.Scale = reg, int(scale)
			continue
		}
		if reg, ok := LookupReg(t); ok {
			if term.neg {
				return MemRef{}, fmt.Errorf("negative register term %q", t)
			}
			switch {
			case m.Base.IsZero():
				m.Base = reg
			case m.Index.IsZero():
				m.Index, m.Scale = reg, 1
			default:
				return MemRef{}, fmt.Errorf("too many registers in %q", s)
			}
			continue
		}
		v, err := parseInt(t)
		if err != nil {
			return MemRef{}, fmt.Errorf("malformed address term %q", t)
		}
		if term.neg {
			v = -v
		}
		m.Disp += v
	}
	if m.Base.IsZero() && m.Scale == 1 {
		// "[rcx*1]" renders as "[rcx]"; parse both to the same operand so
		// a block and its canonical text never differ.
		m.Base, m.Index, m.Scale = m.Index, Reg{}, 0
	}
	return m, nil
}

type addrTerm struct {
	text string
	neg  bool
}

// splitTerms splits "rbp + rax*4 - 1" into signed terms.
func splitTerms(s string) []addrTerm {
	var terms []addrTerm
	start, neg := 0, false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '+', '-':
			if t := strings.TrimSpace(s[start:i]); t != "" {
				terms = append(terms, addrTerm{t, neg})
			}
			neg = s[i] == '-'
			start = i + 1
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		terms = append(terms, addrTerm{t, neg})
	}
	return terms
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToLower(s))
	neg := false
	if strings.HasPrefix(s, "-") {
		neg, s = true, s[1:]
	}
	var v uint64
	var err error
	switch {
	case strings.HasPrefix(s, "0x"):
		v, err = strconv.ParseUint(s[2:], 16, 64)
	case strings.HasSuffix(s, "h") && len(s) > 1:
		v, err = strconv.ParseUint(s[:len(s)-1], 16, 64)
	default:
		v, err = strconv.ParseUint(s, 10, 64)
	}
	if err != nil {
		return 0, err
	}
	out := int64(v)
	if neg {
		out = -out
	}
	return out, nil
}

// immWidth returns the narrowest operand width that can hold v.
func immWidth(v int64) int {
	switch {
	case v >= -128 && v <= 127:
		return Size8
	case v >= -32768 && v <= 32767:
		return Size16
	case v >= -(1<<31) && v < 1<<31:
		return Size32
	default:
		return Size64
	}
}
