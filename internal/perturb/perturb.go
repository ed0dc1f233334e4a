// Package perturb implements Γ, COMET's stochastic basic-block perturbation
// algorithm (Section 5.2 and Algorithm 1 of the paper). Given a block β and
// a set of features F ⊆ ˆP to preserve, Sample draws a perturbed block
// β′ ∼ D_F in which:
//
//   - every vertex (instruction) outside F is independently retained with
//     probability pI,ret, and otherwise deleted (with probability p_del,
//     when the instruction count η is not preserved) or has its opcode
//     replaced by a uniformly random ISA-valid alternative;
//   - every dependency edge outside F is independently retained with
//     probability pD,ret (plus a small explicit-retention probability that
//     locks the dependency for the draw), and otherwise broken by renaming
//     the operands that carry it to registers of the same type and size;
//   - everything in F — instruction opcodes, the operands carrying
//     preserved dependencies, and η when requested — is left intact.
//
// As Appendix D describes, the effective perturbation probabilities are
// block-specific: opcodes with no valid replacement (lea) silently retain,
// and dependencies carried only by implicit operands (div's rax/rdx)
// cannot be broken by operand renaming.
package perturb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/x86"
)

// Scheme selects how instruction (vertex) replacement perturbs operands.
type Scheme int

const (
	// OpcodeOnly replaces just the opcode, the paper's default (§E.4 finds
	// it the more accurate scheme).
	OpcodeOnly Scheme = iota
	// WholeInstruction additionally renames the replaced instruction's
	// register operands (same type and size), the §E.4 ablation.
	WholeInstruction
)

// Config holds Γ's hyperparameters; zero value is not usable, start from
// DefaultConfig.
type Config struct {
	PInstRetain        float64 // pI,ret: retain a non-preserved instruction
	PDepRetain         float64 // pD,ret: retain a non-preserved dependency
	PDelete            float64 // p_del: delete (vs replace) a perturbed instruction
	PExplicitDepRetain float64 // lock a non-preserved dependency for the draw
	Scheme             Scheme
	DepOptions         deps.Options
}

// DefaultConfig returns the paper's experimental settings (§6, App. E):
// retention probabilities 0.5, p_del = 0.33, explicit dependency retention
// 0.1, opcode-only replacement.
func DefaultConfig() Config {
	return Config{
		PInstRetain:        0.5,
		PDepRetain:         0.5,
		PDelete:            0.33,
		PExplicitDepRetain: 0.1,
		Scheme:             OpcodeOnly,
	}
}

// Result is one perturbed block together with the survivor index mapping.
// Its storage is reused by SampleInto: a Result passed back in is
// overwritten, Block and Mapping included.
type Result struct {
	Block *x86.BasicBlock
	// Mapping[i] is the position of original instruction i in Block, or −1
	// if it was deleted.
	Mapping []int

	// insts and ops back Block's instructions and their operands at the
	// original block's size (Block.Instructions holds the survivors).
	insts []x86.Instruction
	ops   []x86.Operand
}

// Graph builds the dependency graph of the perturbed block (convenience
// for feature-containment checks).
func (r Result) Graph(opts deps.Options) (*deps.Graph, error) {
	return deps.Build(r.Block, opts)
}

// Perturber samples perturbations of one fixed basic block. Everything a
// draw needs to know about the original (immutable) block is computed once
// at New: the edges' carrier slots, the resolved opcode specs and the
// fresh-family choices. SampleInto writes a draw into a caller's Result and
// allocates nothing once that Result has held a draw of this block's size;
// Sample allocates only the perturbed block itself. Both are safe for
// concurrent use with distinct rngs and Results.
type Perturber struct {
	cfg   Config
	block *x86.BasicBlock
	graph *deps.Graph
	feats features.Set
	// Per original instruction i: its resolved spec, its opcode
	// replacement candidates, and the offset of its operands in the flat
	// per-operand tables (opStart[len] is the total operand count).
	specs   []*x86.Spec
	cands   [][]candidate
	opStart []int
	// ops holds the original operands, instruction by instruction.
	ops []x86.Operand
	// The carrier plan. Side 0 of edge k is its source instruction and
	// side 1 its destination; carriers[carrierStart[2k+side]:
	// carrierStart[2k+side+1]] are the slots carrying edge k on that side,
	// and locks[lockStart[k]:lockStart[k+1]] the slotSet elements that
	// locking edge k sets.
	carriers     []slot
	carrierStart []int
	locks        []int
	lockStart    []int
	// fresh[f] lists the families freshFamily chooses from when renaming
	// a register of family f (nil outside the GP and vector banks).
	fresh [x86.FamXMM15 + 1][]x86.RegFamily
}

// candidate is one opcode replacement and its spec.
type candidate struct {
	opcode string
	spec   *x86.Spec
}

// New prepares a perturber for the block.
func New(b *x86.BasicBlock, cfg Config) (*Perturber, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	g, err := deps.Build(b, cfg.DepOptions)
	if err != nil {
		return nil, err
	}
	p := &Perturber{cfg: cfg, block: b, graph: g, feats: features.Extract(g)}
	forms := make([]*x86.Form, 0, b.Len())
	nops := 0
	for _, inst := range b.Instructions {
		nops += len(inst.Operands)
	}
	// memKeys holds MemRef.LocKey of every memory operand ("" for other
	// operands), indexed by opStart[i]+operand.
	memKeys := make([]string, 0, nops)
	p.ops = make([]x86.Operand, 0, nops)
	p.opStart = make([]int, 0, b.Len()+1)
	for _, inst := range b.Instructions {
		spec, _ := inst.Spec() // Validate resolved it
		form, err := inst.Form()
		if err != nil {
			return nil, err
		}
		forms = append(forms, form)
		p.specs = append(p.specs, spec)
		var cands []candidate
		for _, name := range x86.ReplacementCandidates(inst) {
			spec, _ := x86.Lookup(name)
			cands = append(cands, candidate{name, spec})
		}
		p.cands = append(p.cands, cands)
		p.opStart = append(p.opStart, len(memKeys))
		p.ops = append(p.ops, inst.Operands...)
		for _, o := range inst.Operands {
			key := ""
			if o.Kind == x86.KindMem {
				key = o.Mem.LocKey()
			}
			memKeys = append(memKeys, key)
		}
	}
	p.opStart = append(p.opStart, len(memKeys))

	p.carrierStart = make([]int, 0, 2*len(g.Edges)+1)
	p.lockStart = make([]int, 0, len(g.Edges)+1)
	for _, e := range g.Edges {
		p.lockStart = append(p.lockStart, len(p.locks))
		for _, idx := range [2]int{e.Src, e.Dst} {
			start := len(p.carriers)
			p.carrierStart = append(p.carrierStart, start)
			p.carriers = p.carrierSlots(p.carriers, e, idx, forms[idx], memKeys)
			// Locking a memory location also locks its base and index
			// registers: renaming those would change the address and
			// silently break the dependency.
			for _, s := range p.carriers[start:] {
				p.locks = append(p.locks, s.at)
				if s.part == partMemWhole {
					p.locks = append(p.locks, p.slotAt(s.inst, s.op, partBase), p.slotAt(s.inst, s.op, partIndex))
				}
			}
		}
	}
	p.carrierStart = append(p.carrierStart, len(p.carriers))
	p.lockStart = append(p.lockStart, len(p.locks))
	p.buildFresh(usedFamilies(b))
	return p, nil
}

// depKey identifies a dependency feature: edges with the same endpoints
// and hazard are one feature, whatever location carries them.
type depKey struct {
	src, dst int
	hazard   deps.Hazard
}

// scratch holds a draw's working state. Draws are hot — a single
// explanation takes thousands of them — so the slices are pooled and reset
// instead of reallocated per call. SampleInto runs concurrently on one
// Perturber (precision sampling is parallel), hence a pool rather than a
// field.
type scratch struct {
	opcodeLocked  []bool
	deleted       []bool
	specs         []*x86.Spec // the spec of each instruction's current opcode
	preservedDeps []depKey
	lockedSlots   slotSet
	toBreak       []int         // indices into the graph's edges
	savedOps      []x86.Operand // renameSlots' undo buffer
}

var scratchPool = sync.Pool{
	New: func() any { return new(scratch) },
}

// getScratch borrows a cleared scratch sized for p's block.
func (p *Perturber) getScratch() *scratch {
	n := p.block.Len()
	sc := scratchPool.Get().(*scratch)
	sc.opcodeLocked = resize(sc.opcodeLocked, n)
	sc.deleted = resize(sc.deleted, n)
	clear(sc.opcodeLocked)
	clear(sc.deleted)
	sc.specs = append(sc.specs[:0], p.specs...)
	sc.preservedDeps = sc.preservedDeps[:0]
	sc.lockedSlots = p.newSlotSet(sc.lockedSlots)
	sc.toBreak = sc.toBreak[:0]
	return sc
}

// resize returns buf at length n, reusing its storage when it is large
// enough; the contents are unspecified.
func resize[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// Block returns the original block.
func (p *Perturber) Block() *x86.BasicBlock { return p.block }

// Graph returns the original block's dependency graph.
func (p *Perturber) Graph() *deps.Graph { return p.graph }

// Features returns ˆP of the original block.
func (p *Perturber) Features() features.Set { return p.feats }

// slotPart locates a register inside an operand.
type slotPart int

const (
	partReg slotPart = iota
	partBase
	partIndex
	partMemWhole // the memory operand as an addressable location (for disp changes)

	numParts // the number of parts
)

// slot addresses one renameable register (or memory expression) position;
// at is its element in the block's slotSet.
type slot struct {
	inst int
	op   int
	part slotPart
	at   int
}

// slotSet is a set of slots, dense over the block's operands: the slot at
// (inst, op, part) is element (opStart[inst]+op)*numParts+part.
// Perturber.newSlotSet sizes one for the block.
type slotSet []bool

// newSlotSet returns an empty slotSet for p's block, reusing buf's
// storage when it is large enough.
func (p *Perturber) newSlotSet(buf slotSet) slotSet {
	buf = resize(buf, p.opStart[len(p.opStart)-1]*int(numParts))
	clear(buf)
	return buf
}

// slotAt returns the slotSet element of the slot at (inst, op, part).
func (p *Perturber) slotAt(inst, op int, part slotPart) int {
	return (p.opStart[inst]+op)*int(numParts) + int(part)
}

// edgeSide returns the slots carrying edge k on side 0 (its source) or
// side 1 (its destination).
func (p *Perturber) edgeSide(k, side int) []slot {
	return p.carriers[p.carrierStart[2*k+side]:p.carrierStart[2*k+side+1]]
}

// lockEdgeSlots marks every operand slot carrying edge k as unmodifiable.
func (p *Perturber) lockEdgeSlots(k int, locked slotSet) {
	for _, at := range p.locks[p.lockStart[k]:p.lockStart[k+1]] {
		locked[at] = true
	}
}

// Sample draws one perturbation retaining the features in preserve into
// a fresh Result. The rng must not be shared across goroutines.
func (p *Perturber) Sample(rng *rand.Rand, preserve features.Set) Result {
	var res Result
	p.SampleInto(rng, preserve, &res)
	return res
}

// SampleInto draws one perturbation retaining the features in preserve
// into res, reusing its storage: the previous draw's block and mapping
// are overwritten. It draws exactly what Sample would from the same rng
// state. The rng must not be shared across goroutines.
func (p *Perturber) SampleInto(rng *rand.Rand, preserve features.Set, res *Result) {
	// Copy the block: every operand goes into one backing slice, each
	// instruction's share capped so it cannot grow into its neighbour's.
	n := p.block.Len()
	insts := resize(res.insts, n)
	ops := resize(res.ops, len(p.ops))
	copy(ops, p.ops)
	for i := range insts {
		lo, hi := p.opStart[i], p.opStart[i+1]
		insts[i] = x86.Instruction{Opcode: p.block.Instructions[i].Opcode, Operands: ops[lo:hi:hi]}
	}

	sc := p.getScratch()
	defer scratchPool.Put(sc)
	preserveEta := false
	opcodeLocked := sc.opcodeLocked
	for _, f := range preserve {
		switch f.Kind {
		case features.KindCount:
			preserveEta = true
		case features.KindInstr:
			if f.Index < n {
				opcodeLocked[f.Index] = true
			}
		case features.KindDep:
			sc.preservedDeps = append(sc.preservedDeps, depKey{f.Src, f.Dst, f.Hazard})
			// Γ preserves the opcodes of the instructions at the ends of
			// every preserved dependency (Section 5.2).
			if f.Src < n {
				opcodeLocked[f.Src] = true
			}
			if f.Dst < n {
				opcodeLocked[f.Dst] = true
			}
		}
	}

	// Decide, per non-preserved dependency edge, whether it is explicitly
	// retained (locked), passively retained, or slated for breaking. Edges
	// that carry a preserved feature are always locked.
	lockedSlots := sc.lockedSlots
	for k := range p.graph.Edges {
		if e := &p.graph.Edges[k]; len(sc.preservedDeps) > 0 && slices.Contains(sc.preservedDeps, depKey{e.Src, e.Dst, e.Hazard}) {
			p.lockEdgeSlots(k, lockedSlots)
			continue
		}
		r := rng.Float64()
		switch {
		case r < p.cfg.PExplicitDepRetain:
			p.lockEdgeSlots(k, lockedSlots)
		case r < p.cfg.PExplicitDepRetain+(1-p.cfg.PExplicitDepRetain)*p.cfg.PDepRetain:
			// passively retained this draw
		default:
			sc.toBreak = append(sc.toBreak, k)
		}
	}

	// Vertex perturbation: delete or replace opcodes.
	deleted := sc.deleted
	remaining := n
	for i := range insts {
		if opcodeLocked[i] {
			continue
		}
		if rng.Float64() < p.cfg.PInstRetain {
			continue
		}
		canDelete := !preserveEta && remaining > 1
		if canDelete && rng.Float64() < p.cfg.PDelete {
			deleted[i] = true
			remaining--
			continue
		}
		p.replaceOpcode(sc, rng, insts, i, lockedSlots)
	}

	// Edge perturbation: break dependencies by renaming carrier operands.
	for _, k := range sc.toBreak {
		e := &p.graph.Edges[k]
		if deleted[e.Src] || deleted[e.Dst] {
			continue // the edge died with its endpoint
		}
		p.breakEdge(sc, rng, insts, k, lockedSlots)
	}

	// Compact the survivors in place and build the index mapping.
	out := insts[:0]
	mapping := resize(res.Mapping, n)
	for i := range insts {
		if deleted[i] {
			mapping[i] = -1
			continue
		}
		mapping[i] = len(out)
		out = append(out, insts[i])
	}
	if res.Block == nil {
		res.Block = x86.NewBlock(out...)
	} else {
		res.Block.Instructions = out
	}
	res.Mapping, res.insts, res.ops = mapping, insts, ops
}

// replaceOpcode swaps instruction i's opcode for a random valid alternative
// (retaining when none exists, e.g. lea). Under the WholeInstruction scheme
// it additionally renames the instruction's unlocked register operands.
func (p *Perturber) replaceOpcode(sc *scratch, rng *rand.Rand, insts []x86.Instruction, i int, locked slotSet) {
	// Vertex perturbation runs before any operand rename, so insts[i] is
	// still the original instruction and its candidates are precomputed.
	cands := p.cands[i]
	if len(cands) > 0 {
		c := cands[rng.Intn(len(cands))]
		insts[i].Opcode, sc.specs[i] = c.opcode, c.spec
	}
	if p.cfg.Scheme != WholeInstruction {
		return
	}
	// Whole-instruction scheme: also rename register operands.
	for op := range insts[i].Operands {
		o := insts[i].Operands[op]
		if o.Kind != x86.KindReg || locked[p.slotAt(i, op, partReg)] {
			continue
		}
		old := insts[i].Operands[op].Reg
		insts[i].Operands[op].Reg = p.randomRegLike(rng, o.Reg)
		if sc.specs[i].MatchForm(insts[i].Operands) == nil {
			insts[i].Operands[op].Reg = old // e.g. shift counts must stay cl
		}
	}
}

// carrierSlots appends to dst the operand slots of instruction idx through
// which edge e is carried (write side for the earlier instruction of
// RAW/WAW, read side for the later instruction of RAW, and so on), given
// the instruction's form and its operands' memory location keys. Implicit
// register accesses have no slot and thus cannot be renamed. New runs it
// once per edge side to build the carrier plan.
func (p *Perturber) carrierSlots(dst []slot, e deps.Edge, idx int, form *x86.Form, memKeys []string) []slot {
	inst := p.block.Instructions[idx]
	wantWrite := false
	switch e.Hazard {
	case deps.RAW:
		wantWrite = idx == e.Src
	case deps.WAR:
		wantWrite = idx == e.Dst
	case deps.WAW:
		wantWrite = true
	}
	add := func(op int, part slotPart) {
		dst = append(dst, slot{idx, op, part, p.slotAt(idx, op, part)})
	}

	switch e.Loc.Kind {
	case deps.LocReg:
		fam := e.Loc.Fam
		for i, o := range inst.Operands {
			acc := form.Ops[i].Access
			switch o.Kind {
			case x86.KindReg:
				if o.Reg.Family != fam {
					continue
				}
				if (wantWrite && acc&x86.AccW != 0) || (!wantWrite && acc&x86.AccR != 0) {
					add(i, partReg)
				}
			case x86.KindMem, x86.KindAddr:
				// Address-component registers are always reads.
				if wantWrite {
					continue
				}
				if o.Mem.Base.Family == fam {
					add(i, partBase)
				}
				if o.Mem.Index.Family == fam {
					add(i, partIndex)
				}
			}
		}
	case deps.LocMem:
		for i, key := range memKeys[p.opStart[idx]:p.opStart[idx+1]] {
			if key == e.Loc.Mem {
				add(i, partMemWhole)
			}
		}
	case deps.LocStack, deps.LocFlags:
		// Carried implicitly; not renameable.
	}
	return dst
}

// breakEdge attempts to delete dependency edge k by renaming its carrier
// operands on one side. Preference goes to the destination instruction;
// if all carrier slots on both sides are locked or implicit, the
// dependency is retained (the block-specific probability shift of App. D).
func (p *Perturber) breakEdge(sc *scratch, rng *rand.Rand, insts []x86.Instruction, k int, locked slotSet) {
	sides := [2]int{1, 0}
	if rng.Intn(2) == 0 {
		sides = [2]int{0, 1}
	}
	for _, side := range sides {
		slots := p.edgeSide(k, side)
		if len(slots) == 0 {
			continue
		}
		anyLocked := false
		for _, s := range slots {
			if locked[s.at] {
				anyLocked = true
				break
			}
		}
		if anyLocked {
			continue
		}
		if p.renameSlots(sc, rng, insts, slots, p.graph.Edges[k].Loc.Kind) {
			// Renamed slots must not be re-renamed by later breaks, or a
			// subsequent rename could recreate a broken dependency.
			for _, s := range slots {
				locked[s.at] = true
			}
			return
		}
	}
}

// renameSlots rewrites all given slots (which belong to one instruction and
// one location) to a fresh register family or displaced address, keeping
// the instruction valid. Reports whether the rename was applied.
func (p *Perturber) renameSlots(sc *scratch, rng *rand.Rand, insts []x86.Instruction, slots []slot, kind deps.LocKind) bool {
	idx := slots[0].inst
	// A same-bank rename or a displacement slide keeps every template
	// test but an exact register's, so the instruction stays valid
	// unless its opcode pins a register.
	check := sc.specs[idx].PinsReg()
	if check {
		sc.savedOps = append(sc.savedOps[:0], insts[idx].Operands...)
	}

	switch kind {
	case deps.LocReg:
		var oldReg x86.Reg
		switch slots[0].part {
		case partReg:
			oldReg = insts[idx].Operands[slots[0].op].Reg
		case partBase:
			oldReg = insts[idx].Operands[slots[0].op].Mem.Base
		case partIndex:
			oldReg = insts[idx].Operands[slots[0].op].Mem.Index
		}
		fresh := p.freshFamily(rng, oldReg)
		if fresh == x86.FamNone {
			return false
		}
		for _, s := range slots {
			op := &insts[idx].Operands[s.op]
			switch s.part {
			case partReg:
				op.Reg.Family = fresh
			case partBase:
				op.Mem.Base.Family = fresh
			case partIndex:
				op.Mem.Index.Family = fresh
			}
		}
	case deps.LocMem:
		// Slide the address by a random cache-line multiple; same base and
		// index registers, different location key.
		delta := int64(1+rng.Intn(8)) * 64
		if rng.Intn(2) == 0 {
			delta = -delta
		}
		for _, s := range slots {
			insts[idx].Operands[s.op].Mem.Disp += delta
		}
	default:
		return false
	}

	if check && sc.specs[idx].MatchForm(insts[idx].Operands) == nil {
		copy(insts[idx].Operands, sc.savedOps) // e.g. renaming a RequireReg operand
		return false
	}
	return true
}

// freshFamily picks a register family of the same bank as old that no
// instruction of the original block uses, guaranteeing the dependency is
// broken and no new one is created. Falls back to any family other than
// old's when every family is in use. RSP is never chosen.
func (p *Perturber) freshFamily(rng *rand.Rand, old x86.Reg) x86.RegFamily {
	if int(old.Family) >= len(p.fresh) {
		return x86.FamNone
	}
	choices := p.fresh[old.Family]
	if len(choices) == 0 {
		return x86.FamNone
	}
	return choices[rng.Intn(len(choices))]
}

// buildFresh fills freshFamily's table from the bit set (1<<family) of
// register families the block uses: per family of a bank, the other
// families of that bank except RSP, the unused ones if there are any.
func (p *Perturber) buildFresh(used uint64) {
	flat := make([]x86.RegFamily, 0, 2*bankSize*(bankSize-1))
	for old := x86.FamRAX; old <= x86.FamXMM15; old++ {
		lo := x86.FamRAX
		if old >= x86.FamXMM0 {
			lo = x86.FamXMM0
		}
		start := len(flat)
		for _, wantUsed := range [2]bool{false, true} {
			for f := lo; f < lo+bankSize; f++ {
				if f != x86.FamRSP && f != old && (used&(1<<f) != 0) == wantUsed {
					flat = append(flat, f)
				}
			}
			if len(flat) > start {
				break
			}
		}
		p.fresh[old] = flat[start:len(flat):len(flat)]
	}
}

// bankSize is the number of families in each register bank (x86.GPFamilies
// and x86.VecFamilies, in family order).
const bankSize = 16

// randomRegLike returns a random register with old's bank and width
// (for the WholeInstruction ablation scheme).
func (p *Perturber) randomRegLike(rng *rand.Rand, old x86.Reg) x86.Reg {
	lo := x86.FamXMM0
	if old.IsGP() {
		lo = x86.FamRAX
	}
	for {
		f := lo + x86.RegFamily(rng.Intn(bankSize))
		if f != x86.FamRSP {
			return x86.Reg{Family: f, Size: old.Size}
		}
	}
}

// usedFamilies returns the bit set (1<<family) of register families the
// block touches, explicitly or implicitly.
func usedFamilies(b *x86.BasicBlock) uint64 {
	var used uint64
	for _, inst := range b.Instructions {
		for _, o := range inst.Operands {
			switch o.Kind {
			case x86.KindReg:
				used |= 1 << o.Reg.Family
			case x86.KindMem, x86.KindAddr:
				if !o.Mem.Base.IsZero() {
					used |= 1 << o.Mem.Base.Family
				}
				if !o.Mem.Index.IsZero() {
					used |= 1 << o.Mem.Index.Family
				}
			}
		}
		if spec, ok := inst.Spec(); ok {
			for _, f := range spec.ImplicitReads {
				used |= 1 << f
			}
			for _, f := range spec.ImplicitWrites {
				used |= 1 << f
			}
		}
	}
	return used
}

// SpaceSize estimates log10 |Π̂(F)|, the size of the perturbation space
// when preserving F (Appendix F). The estimate multiplies, per vertex, the
// number of opcode choices (retention + replacements + deletion when
// allowed) and, per dependency edge, the number of carrier renamings
// available. It is an estimate of the same flavor as the paper's (which
// reports e.g. |Π̂(β1)(∅)| ≈ 1.94×10^38).
func (p *Perturber) SpaceSize(preserve features.Set) float64 {
	preserveEta := false
	locked := make([]bool, p.block.Len())
	var preservedDeps []depKey
	for _, f := range preserve {
		switch f.Kind {
		case features.KindCount:
			preserveEta = true
		case features.KindInstr:
			locked[f.Index] = true
		case features.KindDep:
			preservedDeps = append(preservedDeps, depKey{f.Src, f.Dst, f.Hazard})
			locked[f.Src] = true
			locked[f.Dst] = true
		}
	}
	log10 := 0.0
	for i := range p.block.Instructions {
		if locked[i] {
			continue
		}
		choices := 1 + len(p.cands[i])
		if !preserveEta {
			choices++
		}
		log10 += math.Log10(float64(choices))
	}
	// Operand-renaming choices are counted per renameable slot (register
	// position), not per edge: several edges can share one slot, and a slot
	// has the same alternative pool regardless of how many dependencies it
	// carries.
	const regAlternatives = 14.0 // same-bank families excluding RSP and current
	lockedSlots, seen := p.newSlotSet(nil), p.newSlotSet(nil)
	for k, e := range p.graph.Edges {
		if slices.Contains(preservedDeps, depKey{e.Src, e.Dst, e.Hazard}) {
			p.lockEdgeSlots(k, lockedSlots)
		}
	}
	for k, e := range p.graph.Edges {
		for side, idx := range [2]int{e.Src, e.Dst} {
			if locked[idx] {
				continue
			}
			for _, s := range p.edgeSide(k, side) {
				if seen[s.at] || lockedSlots[s.at] {
					continue
				}
				seen[s.at] = true
				log10 += math.Log10(1 + regAlternatives)
			}
		}
	}
	return log10
}

// FormatSpaceSize renders a log10 magnitude like "1.94e+38".
func FormatSpaceSize(log10 float64) string {
	exp := math.Floor(log10)
	mant := math.Pow(10, log10-exp)
	return fmt.Sprintf("%.2fe+%02d", mant, int(exp))
}
