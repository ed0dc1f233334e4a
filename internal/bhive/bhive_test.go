package bhive

import (
	"math"
	"testing"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{N: 20, Seed: 7, SkipLabels: true})
	b := Generate(Config{N: 20, Seed: 7, SkipLabels: true})
	for i := range a {
		if a[i].Block.String() != b[i].Block.String() {
			t.Fatalf("block %d differs across identical seeds", i)
		}
		if a[i].Category != b[i].Category || a[i].Source != b[i].Source {
			t.Fatalf("metadata %d differs across identical seeds", i)
		}
	}
	c := Generate(Config{N: 20, Seed: 8, SkipLabels: true})
	same := 0
	for i := range a {
		if a[i].Block.String() == c[i].Block.String() {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical datasets")
	}
}

func TestGenerateAllValid(t *testing.T) {
	for _, entry := range Generate(Config{N: 100, Seed: 3, SkipLabels: true}) {
		if err := entry.Block.Validate(); err != nil {
			t.Errorf("invalid block generated:\n%s\n%v", entry.Block, err)
		}
	}
}

func TestGenerateSizeBounds(t *testing.T) {
	for _, entry := range Generate(Config{N: 50, MinInstrs: 4, MaxInstrs: 10, Seed: 4, SkipLabels: true}) {
		if n := entry.Block.Len(); n < 4 || n > 10 {
			t.Errorf("block has %d instructions, want 4..10", n)
		}
	}
}

func TestCategoryFilter(t *testing.T) {
	for _, cat := range Categories() {
		cat := cat
		blocks := Generate(Config{N: 15, Seed: 5, Category: &cat, SkipLabels: true})
		for _, b := range blocks {
			if b.Category != cat {
				t.Errorf("requested %v, got %v", cat, b.Category)
			}
		}
	}
}

func TestSourceFilter(t *testing.T) {
	src := SourceOpenBLAS
	for _, b := range Generate(Config{N: 15, Seed: 6, Source: &src, SkipLabels: true}) {
		if b.Source != SourceOpenBLAS {
			t.Errorf("requested %v, got %v", src, b.Source)
		}
	}
}

func TestCategoryInstructionMix(t *testing.T) {
	countMemOps := func(b *x86.BasicBlock) (loads, stores int) {
		for _, inst := range b.Instructions {
			spec, _ := inst.Spec()
			form, _ := inst.Form()
			l, s := x86.MemUops(spec, form, inst)
			loads += l
			stores += s
		}
		return
	}
	loadCat := Load
	blocks := Generate(Config{N: 30, Seed: 9, Category: &loadCat, SkipLabels: true})
	totalLoads := 0
	for _, b := range blocks {
		l, _ := countMemOps(b.Block)
		totalLoads += l
	}
	if totalLoads < 30 {
		t.Errorf("Load category should be load-heavy; %d loads in 30 blocks", totalLoads)
	}

	vecCat := Vector
	blocks = Generate(Config{N: 30, Seed: 10, Category: &vecCat, SkipLabels: true})
	for _, b := range blocks {
		for _, inst := range b.Block.Instructions {
			hasVecOperand := false
			for _, op := range inst.Operands {
				if op.Kind == x86.KindReg && op.Reg.IsVec() {
					hasVecOperand = true
				}
			}
			if !hasVecOperand {
				t.Fatalf("Vector-category block contains non-vector instruction %s", inst)
			}
		}
	}
}

func TestThroughputLabels(t *testing.T) {
	blocks := Generate(Config{N: 10, Seed: 11})
	for _, b := range blocks {
		for _, arch := range x86.Arches() {
			th, ok := b.Throughput[arch]
			if !ok {
				t.Fatalf("missing %v label", arch)
			}
			if math.IsNaN(th) || math.IsInf(th, 0) || th <= 0 {
				t.Errorf("bad throughput label %v for\n%s", th, b.Block)
			}
		}
	}
}

func TestBlocksHaveDependencies(t *testing.T) {
	// The small register pools must produce dependency-rich blocks; COMET's
	// dependency features are pointless otherwise.
	blocks := Generate(Config{N: 50, Seed: 12, SkipLabels: true})
	withDeps := 0
	for _, b := range blocks {
		g, err := deps.Build(b.Block, deps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(g.Edges) > 0 {
			withDeps++
		}
	}
	if withDeps < len(blocks)*3/4 {
		t.Errorf("only %d/%d blocks have any dependency", withDeps, len(blocks))
	}
}

func TestSourcesShapeDistribution(t *testing.T) {
	clang := SourceClang
	blas := SourceOpenBLAS
	countVec := func(blocks []Block) int {
		n := 0
		for _, b := range blocks {
			if b.Category == Vector || b.Category == ScalarVector {
				n++
			}
		}
		return n
	}
	c := Generate(Config{N: 100, Seed: 13, Source: &clang, SkipLabels: true})
	o := Generate(Config{N: 100, Seed: 13, Source: &blas, SkipLabels: true})
	if !(countVec(o) > countVec(c)) {
		t.Errorf("OpenBLAS partition should be more vector-heavy: clang=%d openblas=%d", countVec(c), countVec(o))
	}
}
