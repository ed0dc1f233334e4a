package x86_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"github.com/comet-explain/comet/internal/bhive"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// The reference resolvers: the name map, slice scans and opcode switch
// the compiled table replaced. Every prediction depends on which spec,
// form and cost an instruction resolves to, so the two must agree.

func refLookup(table map[string]*x86.Spec, opcode string) (*x86.Spec, bool) {
	if s, ok := table[opcode]; ok {
		return s, true
	}
	s, ok := table[strings.ToLower(opcode)]
	return s, ok
}

func refMatch(f *x86.Form, ops []x86.Operand) bool {
	if len(ops) != len(f.Ops) {
		return false
	}
	memCount := 0
	for i := range f.Ops {
		t, o := &f.Ops[i], &ops[i]
		kindOK := false
		for _, k := range t.Kinds {
			kindOK = kindOK || k == o.Kind
		}
		if !kindOK {
			return false
		}
		if o.Kind == x86.KindMem {
			memCount++
		}
		if o.Kind == x86.KindReg {
			if t.VecOnly && !o.Reg.IsVec() {
				return false
			}
			if t.GPOnly && !o.Reg.IsGP() {
				return false
			}
		}
		if t.Sizes != nil {
			sizeOK := false
			for _, s := range t.Sizes {
				sizeOK = sizeOK || s == o.Size
			}
			if !sizeOK {
				return false
			}
		}
		if t.SameSizeAs >= 0 && t.SameSizeAs < len(ops) {
			want := ops[t.SameSizeAs].Size
			if o.Kind == x86.KindImm {
				if o.Size > want {
					return false
				}
			} else if o.Size != want {
				return false
			}
		}
		if !t.RequireReg.IsZero() && (o.Kind != x86.KindReg || o.Reg != t.RequireReg) {
			return false
		}
	}
	return memCount <= 1 && (f.Check == nil || f.Check(ops))
}

func refMatchForm(s *x86.Spec, ops []x86.Operand) *x86.Form {
	for i := range s.Forms {
		if refMatch(&s.Forms[i], ops) {
			return &s.Forms[i]
		}
	}
	return nil
}

func specName(s *x86.Spec) string {
	if s == nil {
		return "<nil>"
	}
	return s.Name
}

func refPinsReg(s *x86.Spec) bool {
	for _, f := range s.Forms {
		for _, t := range f.Ops {
			if !t.RequireReg.IsZero() {
				return true
			}
		}
	}
	return false
}

// operandLists collects the distinct operand lists the engine resolves:
// those of bhive blocks of 1–16 instructions, of Γ draws of them under
// both schemes, and a grid of every operand shape the table's templates
// name, up to three operands.
func operandLists(t *testing.T) (lists [][]x86.Operand, insts []x86.Instruction) {
	seen := map[string]bool{}
	add := func(ops []x86.Operand) {
		if key := fmt.Sprint(ops); !seen[key] {
			seen[key] = true
			lists = append(lists, append([]x86.Operand(nil), ops...))
		}
	}
	rng := rand.New(rand.NewSource(9))
	for i, d := range bhive.Generate(bhive.Config{N: 200, MinInstrs: 1, MaxInstrs: 16, Seed: 17, SkipLabels: true}) {
		for _, inst := range d.Block.Instructions {
			add(inst.Operands)
			insts = append(insts, inst)
		}
		if i%4 != 0 {
			continue
		}
		for _, scheme := range []perturb.Scheme{perturb.OpcodeOnly, perturb.WholeInstruction} {
			cfg := perturb.DefaultConfig()
			cfg.Scheme = scheme
			p, err := perturb.New(d.Block, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 10; k++ {
				for _, inst := range p.Sample(rng, nil).Block.Instructions {
					add(inst.Operands)
					insts = append(insts, inst)
				}
			}
		}
	}

	reg := func(f x86.RegFamily, size int) x86.Operand { return x86.NewReg(x86.Reg{Family: f, Size: size}) }
	mem := x86.MemRef{Base: x86.Reg{Family: x86.FamRSI, Size: x86.Size64}, Disp: 8}
	shapes := []x86.Operand{
		reg(x86.FamRAX, x86.Size8), reg(x86.FamRCX, x86.Size8), reg(x86.FamRAX, x86.Size16),
		reg(x86.FamRAX, x86.Size32), reg(x86.FamRDX, x86.Size64), reg(x86.FamRCX, x86.Size64),
		reg(x86.FamXMM1, x86.Size128), reg(x86.FamXMM2, x86.Size256), reg(x86.FamFlags, x86.Size64),
		x86.NewImm(1, x86.Size8), x86.NewImm(1000, x86.Size16), x86.NewImm(1<<20, x86.Size32), x86.NewImm(1<<40, x86.Size64),
		x86.NewAddr(mem),
		{Kind: x86.OperandKind(9), Size: x86.Size64},
	}
	for _, size := range []int{x86.Size8, x86.Size16, x86.Size32, x86.Size64, x86.Size128, x86.Size256, 24} {
		shapes = append(shapes, x86.NewMem(mem, size))
	}
	add(nil)
	for _, a := range shapes {
		add([]x86.Operand{a})
		for _, b := range shapes {
			add([]x86.Operand{a, b})
			for _, c := range shapes {
				add([]x86.Operand{a, b, c})
			}
		}
	}
	return lists, insts
}

// TestCompiledTableMatchesReference checks the compiled Lookup,
// MatchForm, PinsReg and SpecPerf against the reference resolvers on
// every opcode and the operand lists the engine sees.
func TestCompiledTableMatchesReference(t *testing.T) {
	specs := x86.Specs()
	table := map[string]*x86.Spec{}
	for _, s := range specs {
		table[s.Name] = s
	}
	if len(table) != len(specs) || len(specs) != len(x86.Opcodes()) {
		t.Fatalf("%d specs, %d names, %d opcodes", len(specs), len(table), len(x86.Opcodes()))
	}
	checkLookup := func(name string) {
		t.Helper()
		got, gok := x86.Lookup(name)
		want, wok := refLookup(table, name)
		if got != want || gok != wok {
			t.Errorf("Lookup(%q) = %s, %v; reference %s, %v", name, specName(got), gok, specName(want), wok)
		}
	}
	names := []string{"", "jmp", "ad", "addx", "xmm0", "vfnmadd213ssx", strings.Repeat("a", 40),
		strings.Repeat("add", 30), "ADD\x00",
		// U+212A, the Kelvin sign, folds to an ASCII k: only the case-fold
		// fallback resolves these 11-byte names, to the 9-byte punpcklbw.
		"PUNPC\u212ALBW", "punpc\u212Albw"}
	for _, s := range specs {
		names = append(names, s.Name, strings.ToUpper(s.Name), s.Name[:len(s.Name)-1], s.Name+"s",
			strings.ToUpper(s.Name[:1])+s.Name[1:], s.Name+strings.Repeat(" ", 20))
	}
	for _, name := range names {
		checkLookup(name)
	}
	if t.Failed() {
		t.FailNow() // the operand lists below resolve through Lookup
	}
	lists, insts := operandLists(t)
	for _, inst := range insts {
		for _, cand := range x86.ReplacementCandidates(inst) {
			checkLookup(cand)
		}
	}

	for _, s := range specs {
		if got, want := s.PinsReg(), refPinsReg(s); got != want {
			t.Errorf("%s: PinsReg %v, reference %v", s.Name, got, want)
		}
		for _, ops := range lists {
			if got, want := s.MatchForm(ops), refMatchForm(s, ops); got != want {
				t.Errorf("%s %v: MatchForm %p, reference %p", s.Name, ops, got, want)
			}
		}
	}

	arches := append(x86.Arches(), x86.Arch(-1), x86.Arch(7))
	widths := []int{0, x86.Size8, x86.Size16, x86.Size32, x86.Size64, x86.Size128, x86.Size256, 24, 512}
	for _, s := range specs {
		for _, opcode := range []string{s.Name, strings.ToUpper(s.Name), "div", "vdivpd", "nop"} {
			for _, w := range widths {
				inst := x86.Instruction{Opcode: opcode}
				if w != 0 {
					inst.Operands = []x86.Operand{{Kind: x86.KindReg, Size: w}}
				}
				for _, a := range arches {
					if got, want := x86.SpecPerf(a, s, inst), x86.UncompiledPerf(a, s, inst); got != want {
						t.Errorf("SpecPerf(%v, %s, %q width %d) = %+v, reference %+v", a, s.Name, opcode, w, got, want)
					}
				}
			}
		}
	}
	for _, inst := range insts {
		s, ok := inst.Spec()
		if !ok {
			t.Fatalf("%v: unknown opcode", inst)
		}
		for _, a := range x86.Arches() {
			if got, want := x86.SpecPerf(a, s, inst), x86.UncompiledPerf(a, s, inst); got != want {
				t.Errorf("SpecPerf(%v, %v) = %+v, reference %+v", a, inst, got, want)
			}
		}
	}
}
