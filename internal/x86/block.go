package x86

import "fmt"

// Instruction is one decoded assembly instruction.
type Instruction struct {
	Opcode   string // canonical lower-case mnemonic
	Operands []Operand
}

// String renders the instruction in Intel syntax.
func (inst Instruction) String() string {
	var buf [128]byte
	return string(inst.AppendText(buf[:0]))
}

// AppendText appends String's text ("add rcx, rax") to dst.
func (inst Instruction) AppendText(dst []byte) []byte {
	dst = append(dst, inst.Opcode...)
	for i := range inst.Operands {
		if i == 0 {
			dst = append(dst, ' ')
		} else {
			dst = append(dst, ", "...)
		}
		dst = inst.Operands[i].appendText(dst)
	}
	return dst
}

// Spec returns the instruction's opcode specification.
func (inst Instruction) Spec() (*Spec, bool) { return Lookup(inst.Opcode) }

// Form returns the matched operand form, or an error when the instruction
// is not valid under the modeled ISA subset.
func (inst Instruction) Form() (*Form, error) {
	spec, ok := inst.Spec()
	if !ok {
		return nil, fmt.Errorf("x86: unknown opcode %q", inst.Opcode)
	}
	f := spec.MatchForm(inst.Operands)
	if f == nil {
		return nil, fmt.Errorf("x86: %s: operands do not match any form of %q", inst, inst.Opcode)
	}
	return f, nil
}

// Validate checks that the instruction is well-formed.
func (inst Instruction) Validate() error {
	_, err := inst.Form()
	return err
}

// Clone returns a deep copy of the instruction.
func (inst Instruction) Clone() Instruction {
	ops := make([]Operand, len(inst.Operands))
	copy(ops, inst.Operands)
	return Instruction{Opcode: inst.Opcode, Operands: ops}
}

// BasicBlock is a straight-line sequence of instructions with no control
// flow, the unit COMET explains.
type BasicBlock struct {
	Instructions []Instruction
}

// NewBlock builds a block from instructions.
func NewBlock(insts ...Instruction) *BasicBlock {
	return &BasicBlock{Instructions: insts}
}

// Len returns the number of instructions.
func (b *BasicBlock) Len() int { return len(b.Instructions) }

// String renders the block, one instruction per line.
func (b *BasicBlock) String() string {
	var buf [512]byte
	return string(b.AppendText(buf[:0]))
}

// AppendText appends String's text to dst.
func (b *BasicBlock) AppendText(dst []byte) []byte {
	for i := range b.Instructions {
		if i > 0 {
			dst = append(dst, '\n')
		}
		dst = b.Instructions[i].AppendText(dst)
	}
	return dst
}

// Validate checks every instruction in the block.
func (b *BasicBlock) Validate() error {
	if len(b.Instructions) == 0 {
		return fmt.Errorf("x86: empty basic block")
	}
	for i, inst := range b.Instructions {
		if err := inst.Validate(); err != nil {
			return fmt.Errorf("instruction %d: %w", i+1, err)
		}
	}
	return nil
}

// Clone returns a deep copy of the block.
func (b *BasicBlock) Clone() *BasicBlock {
	insts := make([]Instruction, len(b.Instructions))
	for i, inst := range b.Instructions {
		insts[i] = inst.Clone()
	}
	return &BasicBlock{Instructions: insts}
}

// Equal reports whether two blocks are structurally identical.
func (b *BasicBlock) Equal(o *BasicBlock) bool {
	if b.Len() != o.Len() {
		return false
	}
	for i := range b.Instructions {
		x, y := b.Instructions[i], o.Instructions[i]
		if x.Opcode != y.Opcode || len(x.Operands) != len(y.Operands) {
			return false
		}
		for j := range x.Operands {
			if !x.Operands[j].Equal(y.Operands[j]) {
				return false
			}
		}
	}
	return true
}
