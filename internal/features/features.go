// Package features extracts the explanation feature set ˆP of a basic block
// (Section 5.1): one feature per instruction (annotated with its position
// and opcode), one per data-dependency edge (deduplicated to source,
// destination, and hazard type), and one for the number of instructions.
// It also decides feature containment in perturbed blocks, which is what
// coverage estimation and precision-preservation checks are built on.
package features

import (
	"fmt"
	"sort"
	"strings"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

// Kind classifies a block feature.
type Kind int

// Feature kinds, from fine- to coarse-grained (the granularity ordering
// used by the paper's Section 6.3 analysis).
const (
	// KindInstr is a specific instruction at a specific position.
	KindInstr Kind = iota
	// KindDep is a data-dependency edge between two instructions.
	KindDep
	// KindCount is the number of instructions η in the block.
	KindCount
)

// String returns the paper's symbol for the feature kind.
func (k Kind) String() string {
	switch k {
	case KindInstr:
		return "inst"
	case KindDep:
		return "δ"
	case KindCount:
		return "η"
	}
	return "kind(?)"
}

// Feature is one element of ˆP.
type Feature struct {
	Kind Kind

	// KindInstr fields.
	Index  int    // 0-based instruction position
	Opcode string // opcode at extraction time

	// KindDep fields (Index/Opcode unused).
	Src, Dst int
	Hazard   deps.Hazard

	// KindCount field.
	Count int

	// Text is a human-readable rendering fixed at extraction time.
	Text string
}

// Key returns a canonical identity string, used for set membership.
func (f Feature) Key() string {
	switch f.Kind {
	case KindInstr:
		return fmt.Sprintf("inst:%d:%s", f.Index, f.Opcode)
	case KindDep:
		return fmt.Sprintf("dep:%d:%d:%s", f.Src, f.Dst, f.Hazard)
	case KindCount:
		return fmt.Sprintf("count:%d", f.Count)
	}
	return "invalid"
}

// String renders the feature in the paper's notation with 1-based indices
// (e.g. "inst2: mov rdx, rcx", "δRAW(1→2)", "η=3").
func (f Feature) String() string {
	if f.Text != "" {
		return f.Text
	}
	switch f.Kind {
	case KindInstr:
		return fmt.Sprintf("inst%d: %s", f.Index+1, f.Opcode)
	case KindDep:
		return fmt.Sprintf("δ%s(%d→%d)", f.Hazard, f.Src+1, f.Dst+1)
	case KindCount:
		return fmt.Sprintf("η=%d", f.Count)
	}
	return "<invalid feature>"
}

// Set is an ordered collection of distinct features.
type Set []Feature

// NewSet builds a set, deduplicating by Key and keeping a stable order.
func NewSet(fs ...Feature) Set {
	seen := make(map[string]bool, len(fs))
	var out Set
	for _, f := range fs {
		if k := f.Key(); !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// Contains reports membership by feature identity.
func (s Set) Contains(f Feature) bool {
	k := f.Key()
	for _, g := range s {
		if g.Key() == k {
			return true
		}
	}
	return false
}

// Add returns a new set with f appended (no-op if already present).
func (s Set) Add(f Feature) Set {
	if s.Contains(f) {
		return s
	}
	out := make(Set, len(s), len(s)+1)
	copy(out, s)
	return append(out, f)
}

// Key returns a canonical identity for the whole set (order-insensitive).
func (s Set) Key() string {
	keys := make([]string, len(s))
	for i, f := range s {
		keys[i] = f.Key()
	}
	sort.Strings(keys)
	return strings.Join(keys, "|")
}

// String renders the set like "{inst2: ..., δRAW(1→2)}".
func (s Set) String() string {
	parts := make([]string, len(s))
	for i, f := range s {
		parts[i] = f.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// HasKind reports whether any feature of the given kind is present.
func (s Set) HasKind(k Kind) bool {
	for _, f := range s {
		if f.Kind == k {
			return true
		}
	}
	return false
}

// Extract computes ˆP from a dependency graph: one KindInstr feature per
// instruction, one KindDep feature per distinct (src, dst, hazard) triple,
// and the KindCount feature.
func Extract(g *deps.Graph) Set {
	var fs []Feature
	for i, inst := range g.Block.Instructions {
		fs = append(fs, Feature{
			Kind:   KindInstr,
			Index:  i,
			Opcode: inst.Opcode,
			Text:   fmt.Sprintf("inst%d: %s", i+1, inst),
		})
	}
	seen := make(map[string]bool)
	for _, e := range g.Edges {
		f := Feature{Kind: KindDep, Src: e.Src, Dst: e.Dst, Hazard: e.Hazard}
		if k := f.Key(); !seen[k] {
			seen[k] = true
			fs = append(fs, f)
		}
	}
	fs = append(fs, Feature{Kind: KindCount, Count: g.Block.Len()})
	return NewSet(fs...)
}

// ExtractFromBlock builds the graph with the given options and extracts ˆP.
func ExtractFromBlock(b *x86.BasicBlock, opts deps.Options) (Set, error) {
	g, err := deps.Build(b, opts)
	if err != nil {
		return nil, err
	}
	return Extract(g), nil
}

// ContainedIn reports whether feature f (extracted from an original block)
// is present in a perturbed block. mapping[i] gives the position of the
// original instruction i in the perturbed block, or −1 if deleted; g is the
// perturbed block's dependency graph.
func (f Feature) ContainedIn(b *x86.BasicBlock, g *deps.Graph, mapping []int) bool {
	return f.Retained(b, mapping, g.HasEdge)
}

// Retained is ContainedIn with the perturbed block's dependency test
// given as hasDep (Graph.HasEdge, or Summary.HasHazard, which answers
// the same question without building the graph).
func (f Feature) Retained(b *x86.BasicBlock, mapping []int, hasDep func(src, dst int, h deps.Hazard) bool) bool {
	switch f.Kind {
	case KindInstr:
		if f.Index >= len(mapping) {
			return false
		}
		ni := mapping[f.Index]
		return ni >= 0 && ni < b.Len() && b.Instructions[ni].Opcode == f.Opcode
	case KindDep:
		if f.Src >= len(mapping) || f.Dst >= len(mapping) {
			return false
		}
		ns, nd := mapping[f.Src], mapping[f.Dst]
		return ns >= 0 && nd >= 0 && hasDep(ns, nd, f.Hazard)
	case KindCount:
		return b.Len() == f.Count
	}
	return false
}

// SetContainedIn reports whether every feature of the set is present.
func (s Set) SetContainedIn(b *x86.BasicBlock, g *deps.Graph, mapping []int) bool {
	for _, f := range s {
		if !f.ContainedIn(b, g, mapping) {
			return false
		}
	}
	return true
}

// Filter returns the subset of features matching the predicate.
func (s Set) Filter(keep func(Feature) bool) Set {
	var out Set
	for _, f := range s {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}
