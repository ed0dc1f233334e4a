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
// common location, not only adjacent def-use pairs.
//
// Two views of one set of access rules serve different callers. The
// Summary holds each instruction's reads and writes as location bit masks
// plus its one memory location, computed in one direct pass over the
// operands: it answers the multigraph's edge question with mask tests
// for the coverage pool and model C, and gives the hwsim and mca models
// their per-instruction locations. The Graph is built from the same
// masks plus one key per memory location; it labels and sorts every edge
// for feature extraction, Γ's carrier plan and ground truth.
package deps

import (
	"cmp"
	"fmt"
	"math/bits"
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
// order and returns the extended slice. It takes each instruction's
// accesses from its summary entry (AppendSummary), so the two views share
// one set of access rules. Blocks are small and the engine builds a graph
// per perturbation draw, so the work happens in stack-backed buffers with
// linear scans: beyond growing dst, the only allocations are one key per
// distinct memory location.
func AppendEdges(dst []Edge, b *x86.BasicBlock, opts Options) ([]Edge, error) {
	var sumBuf [32]InstAccess
	sum, err := AppendSummary(sumBuf[:0], b, opts)
	if err != nil {
		return dst, err
	}
	var memBuf [16]memKey
	mems := memBuf[:0]
	var touched uint64 // every location bit some instruction accesses
	for i := range sum {
		a := &sum[i]
		touched |= a.Reads | a.Writes
		if (a.Reads|a.Writes)&MemBit != 0 && !hasMemLoc(mems, a.Mem) {
			mems = append(mems, memKey{a.Mem, memOperand(&b.Instructions[i]).LocKey()})
		}
	}
	// Locations in locCmp order: register families, memory by key, the
	// stack, then flags.
	slices.SortFunc(mems, func(a, b memKey) int { return strings.Compare(a.key, b.key) })

	start := len(dst)
	var evBuf [32]locEvent
	for fams := touched &^ (MemBit | StackBit | FlagsBit); fams != 0; fams &= fams - 1 {
		fam := x86.RegFamily(bits.TrailingZeros64(fams))
		dst = appendAllPairs(dst, Loc{Kind: LocReg, Fam: fam}, sum.events(evBuf[:0], 1<<fam, MemLoc{}))
	}
	for _, m := range mems {
		dst = appendAllPairs(dst, Loc{Kind: LocMem, Mem: m.key}, sum.events(evBuf[:0], MemBit, m.loc))
	}
	if touched&StackBit != 0 {
		dst = appendAllPairs(dst, Loc{Kind: LocStack}, sum.events(evBuf[:0], StackBit, MemLoc{}))
	}
	if touched&FlagsBit != 0 {
		dst = appendAllPairs(dst, Loc{Kind: LocFlags}, sum.events(evBuf[:0], FlagsBit, MemLoc{}))
	}
	slices.SortFunc(dst[start:], edgeCmp)
	return dst, nil
}

// events appends to dst the accesses of one location in instruction
// order, one event per instruction: the location of bit, and for MemBit
// the memory location mem.
func (s Summary) events(dst []locEvent, bit uint64, mem MemLoc) []locEvent {
	for i := range s {
		a := &s[i]
		r, w := a.Reads&bit != 0, a.Writes&bit != 0
		if (r || w) && (bit != MemBit || a.Mem == mem) {
			dst = append(dst, locEvent{idx: i, reads: r, wrts: w})
		}
	}
	return dst
}

// memKey is a memory location and its MemRef.LocKey.
type memKey struct {
	loc MemLoc
	key string
}

func hasMemLoc(mems []memKey, loc MemLoc) bool {
	for i := range mems {
		if mems[i].loc == loc {
			return true
		}
	}
	return false
}

// memOperand returns the memory operand of an instruction that accesses
// memory: a matched form has exactly one.
func memOperand(inst *x86.Instruction) *x86.MemRef {
	for i := range inst.Operands {
		if inst.Operands[i].Kind == x86.KindMem {
			return &inst.Operands[i].Mem
		}
	}
	panic("deps: memory access without a memory operand")
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
