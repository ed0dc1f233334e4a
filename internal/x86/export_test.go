package x86

// Specs returns the compiled opcode table in name order.
func Specs() []*Spec { return specs }

// UncompiledPerf is SpecPerf as computed before each spec cached its
// costs: the class cost adjusted by the opcode switch.
func UncompiledPerf(a Arch, spec *Spec, inst Instruction) Perf {
	size := 0
	if len(inst.Operands) > 0 {
		size = inst.Operands[0].Size
	}
	return opcodePerfOverride(a, inst.Opcode, size, classPerf(a, spec.Class))
}
