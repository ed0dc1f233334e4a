// Package deps builds the data-dependency multigraph G of a basic block
// (Section 5.1 of the COMET paper): vertices are the block's instructions
// annotated with their positions, and directed edges connect instruction
// pairs with RAW, WAR, or WAW hazards, labeled by hazard type and the
// location (register family, memory address expression, stack slot, or
// flags) that carries the hazard.
//
// Following the paper's multigraph (e.g. the Listing 3 case study reports a
// RAW between instructions 3 and 6 despite an intervening writer), edges
// are built for every (earlier, later) instruction pair that touches a
// common location, not only adjacent def-use pairs. Options.LastWriterOnly
// restores conventional kill-based analysis for callers that want it.
package deps

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/comet-explain/comet/internal/x86"
)

// Hazard is the type of a data-dependency hazard (Appendix B).
type Hazard int

// Hazard kinds.
const (
	RAW Hazard = iota // read-after-write: true dependency
	WAR               // write-after-read: anti dependency
	WAW               // write-after-write: output dependency
)

// String returns the conventional hazard name.
func (h Hazard) String() string {
	switch h {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	}
	return "hazard(?)"
}

// LocKind classifies a dependency-carrying location.
type LocKind int

// Location kinds.
const (
	LocReg LocKind = iota
	LocMem
	LocStack
	LocFlags
)

// Loc identifies an architectural location at the granularity dependencies
// are tracked: register family, canonical memory expression, the stack slot
// touched by push/pop, or the flags register.
type Loc struct {
	Kind LocKind
	Fam  x86.RegFamily // for LocReg
	Mem  string        // canonical MemRef.LocKey for LocMem
}

// String returns a short printable location name.
func (l Loc) String() string {
	switch l.Kind {
	case LocReg:
		return x86.FamilyName(l.Fam)
	case LocMem:
		return l.Mem
	case LocStack:
		return "stack"
	case LocFlags:
		return "flags"
	}
	return "loc(?)"
}

func regLoc(f x86.RegFamily) Loc { return Loc{Kind: LocReg, Fam: f} }
func memLoc(m x86.MemRef) Loc    { return Loc{Kind: LocMem, Mem: m.LocKey()} }

// Edge is one dependency edge of the multigraph.
type Edge struct {
	Src, Dst int // instruction indices, Src < Dst
	Hazard   Hazard
	Loc      Loc
}

// String renders the edge like "δRAW(1→3) via rax" with 1-based indices to
// match the paper's listings.
func (e Edge) String() string {
	return fmt.Sprintf("δ%s(%d→%d) via %s", e.Hazard, e.Src+1, e.Dst+1, e.Loc)
}

// Graph is the dependency multigraph of a basic block.
type Graph struct {
	Block *x86.BasicBlock
	Edges []Edge
}

// Options controls graph construction.
type Options struct {
	// TrackFlags includes RFLAGS as a dependency location. Off by default:
	// nearly every integer ALU instruction writes flags, so flag edges
	// drown the register/memory structure the paper's explanations use.
	TrackFlags bool
	// LastWriterOnly restricts RAW edges to the most recent writer and
	// WAW/WAR edges to adjacent access pairs (kill-based analysis) instead
	// of the paper's all-pairs multigraph.
	LastWriterOnly bool
}

// Access is the set of locations one instruction reads and writes.
type Access struct {
	Reads  []Loc
	Writes []Loc
}

// AccessOf computes the read and write location sets of an instruction,
// combining explicit operands (with per-form access), address-component
// register reads, implicit register accesses, stack effects, and flags.
func AccessOf(inst x86.Instruction, opts Options) (Access, error) {
	var acc Access
	err := visitAccesses(inst, opts, func(l Loc, write bool) {
		if write {
			acc.Writes = append(acc.Writes, l)
		} else {
			acc.Reads = append(acc.Reads, l)
		}
	})
	if err != nil {
		return Access{}, err
	}
	acc.Reads = dedupeLocs(acc.Reads)
	acc.Writes = dedupeLocs(acc.Writes)
	return acc, nil
}

// visitAccesses calls visit for every location inst reads or writes, in
// operand order, then implicit registers, stack and flags. A location may
// be visited more than once.
func visitAccesses(inst x86.Instruction, opts Options, visit func(l Loc, write bool)) error {
	spec, ok := inst.Spec()
	if !ok {
		return fmt.Errorf("deps: unknown opcode %q", inst.Opcode)
	}
	form := spec.MatchForm(inst.Operands)
	if form == nil {
		return fmt.Errorf("deps: %s does not match any form", inst)
	}
	addrRegs := func(m x86.MemRef) {
		if !m.Base.IsZero() {
			visit(regLoc(m.Base.Family), false)
		}
		if !m.Index.IsZero() {
			visit(regLoc(m.Index.Family), false)
		}
	}
	for i, op := range inst.Operands {
		access := form.Ops[i].Access
		switch op.Kind {
		case x86.KindReg:
			if access&x86.AccR != 0 {
				visit(regLoc(op.Reg.Family), false)
			}
			if access&x86.AccW != 0 {
				visit(regLoc(op.Reg.Family), true)
			}
		case x86.KindMem:
			addrRegs(op.Mem)
			if access&(x86.AccR|x86.AccW) != 0 {
				l := memLoc(op.Mem)
				if access&x86.AccR != 0 {
					visit(l, false)
				}
				if access&x86.AccW != 0 {
					visit(l, true)
				}
			}
		case x86.KindAddr:
			addrRegs(op.Mem)
		case x86.KindImm:
			// no locations
		}
	}
	for _, fam := range spec.ImplicitReads {
		visit(regLoc(fam), false)
	}
	for _, fam := range spec.ImplicitWrites {
		visit(regLoc(fam), true)
	}
	if spec.StackRead {
		visit(Loc{Kind: LocStack}, false)
	}
	if spec.StackWrite {
		visit(Loc{Kind: LocStack}, true)
	}
	if opts.TrackFlags {
		if spec.ReadsFlags {
			visit(Loc{Kind: LocFlags}, false)
		}
		if spec.WritesFlags {
			visit(Loc{Kind: LocFlags}, true)
		}
	}
	return nil
}

func dedupeLocs(ls []Loc) []Loc {
	out := ls[:0]
	for _, l := range ls {
		if !slices.Contains(out, l) {
			out = append(out, l)
		}
	}
	return out
}

// Build constructs the dependency multigraph of a block.
func Build(b *x86.BasicBlock, opts Options) (*Graph, error) {
	var buf [64]Edge
	edges, err := AppendEdges(buf[:0], b, opts)
	if err != nil {
		return nil, err
	}
	g := &Graph{Block: b}
	if len(edges) > 0 {
		g.Edges = slices.Clone(edges)
	}
	return g, nil
}

// AppendEdges appends the block's dependency edges to dst in Build's
// order and returns the extended slice. Blocks are small and the engine
// builds a graph per perturbation draw, so the work happens in
// stack-backed buffers with linear scans: beyond growing dst, the only
// allocations are one key per memory operand.
func AppendEdges(dst []Edge, b *x86.BasicBlock, opts Options) ([]Edge, error) {
	var touchBuf [64]touch
	var locBuf [32]Loc
	touches, locs := touchBuf[:0], locBuf[:0]
	for i, inst := range b.Instructions {
		err := visitAccesses(inst, opts, func(l Loc, write bool) {
			touches = append(touches, touch{loc: l, idx: i, write: write})
			if !slices.Contains(locs, l) {
				locs = append(locs, l)
			}
		})
		if err != nil {
			return dst, fmt.Errorf("instruction %d: %w", i+1, err)
		}
	}
	// Deterministic location order for reproducible edge lists.
	slices.SortFunc(locs, locCmp)

	start := len(dst)
	var evBuf [32]locEvent
	for _, loc := range locs {
		// The location's accesses in instruction order, one event per
		// instruction.
		evs := evBuf[:0]
		for _, t := range touches {
			if t.loc != loc {
				continue
			}
			if len(evs) == 0 || evs[len(evs)-1].idx != t.idx {
				evs = append(evs, locEvent{idx: t.idx})
			}
			if t.write {
				evs[len(evs)-1].wrts = true
			} else {
				evs[len(evs)-1].reads = true
			}
		}
		if opts.LastWriterOnly {
			dst = appendKillBased(dst, loc, evs)
		} else {
			dst = appendAllPairs(dst, loc, evs)
		}
	}
	slices.SortFunc(dst[start:], edgeCmp)
	return dst, nil
}

// touch records that instruction idx reads or writes location loc.
type touch struct {
	loc   Loc
	idx   int
	write bool
}

// locEvent records that one instruction reads and/or writes a location.
type locEvent struct {
	idx         int
	reads, wrts bool
}

func appendAllPairs(edges []Edge, loc Loc, evs []locEvent) []Edge {
	for i := 0; i < len(evs); i++ {
		for j := i + 1; j < len(evs); j++ {
			a, b := evs[i], evs[j]
			if a.wrts && b.reads {
				edges = append(edges, Edge{Src: a.idx, Dst: b.idx, Hazard: RAW, Loc: loc})
			}
			if a.reads && b.wrts {
				edges = append(edges, Edge{Src: a.idx, Dst: b.idx, Hazard: WAR, Loc: loc})
			}
			if a.wrts && b.wrts {
				edges = append(edges, Edge{Src: a.idx, Dst: b.idx, Hazard: WAW, Loc: loc})
			}
		}
	}
	return edges
}

func appendKillBased(edges []Edge, loc Loc, evs []locEvent) []Edge {
	lastWriter := -1
	var readerBuf [32]int
	readersSinceWrite := readerBuf[:0]
	for _, ev := range evs {
		if ev.reads {
			if lastWriter >= 0 {
				edges = append(edges, Edge{Src: lastWriter, Dst: ev.idx, Hazard: RAW, Loc: loc})
			}
		}
		if ev.wrts {
			for _, r := range readersSinceWrite {
				if r != ev.idx {
					edges = append(edges, Edge{Src: r, Dst: ev.idx, Hazard: WAR, Loc: loc})
				}
			}
			if lastWriter >= 0 {
				edges = append(edges, Edge{Src: lastWriter, Dst: ev.idx, Hazard: WAW, Loc: loc})
			}
			lastWriter = ev.idx
			readersSinceWrite = readersSinceWrite[:0]
		}
		if ev.reads {
			readersSinceWrite = append(readersSinceWrite, ev.idx)
		}
	}
	return edges
}

func locCmp(a, b Loc) int {
	if c := cmp.Compare(a.Kind, b.Kind); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Fam, b.Fam); c != 0 {
		return c
	}
	return strings.Compare(a.Mem, b.Mem)
}

func edgeCmp(a, b Edge) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Dst, b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Hazard, b.Hazard); c != 0 {
		return c
	}
	return locCmp(a.Loc, b.Loc)
}

// HasEdge reports whether the graph contains an edge with the given
// endpoints and hazard type, regardless of location.
func (g *Graph) HasEdge(src, dst int, h Hazard) bool {
	for _, e := range g.Edges {
		if e.Src == src && e.Dst == dst && e.Hazard == h {
			return true
		}
	}
	return false
}

// EdgesBetween returns all edges from src to dst.
func (g *Graph) EdgesBetween(src, dst int) []Edge {
	var out []Edge
	for _, e := range g.Edges {
		if e.Src == src && e.Dst == dst {
			out = append(out, e)
		}
	}
	return out
}
