package features

import (
	"strings"
	"testing"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/x86"
)

func extract(t *testing.T, src string) (Set, *deps.Graph) {
	t.Helper()
	b, err := x86.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := deps.Build(b, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return Extract(g), g
}

const motivating = "add rcx, rax\nmov rdx, rcx\npop rbx"

func TestExtractMotivatingExample(t *testing.T) {
	// Figure 1(iii): three instruction features, the RAW dependency, and η.
	set, _ := extract(t, motivating)
	counts := make(map[Kind]int)
	for _, f := range set {
		counts[f.Kind]++
	}
	if counts[KindInstr] != 3 {
		t.Errorf("instruction features = %d, want 3", counts[KindInstr])
	}
	if counts[KindCount] != 1 {
		t.Errorf("count features = %d, want 1", counts[KindCount])
	}
	if counts[KindDep] == 0 {
		t.Error("expected at least the RAW(1→2) dependency feature")
	}
	foundRAW := false
	for _, f := range set {
		if f.Kind == KindDep && f.Src == 0 && f.Dst == 1 && f.Hazard == deps.RAW {
			foundRAW = true
		}
	}
	if !foundRAW {
		t.Errorf("missing δRAW(1→2); set: %v", set)
	}
}

func TestFeatureStrings(t *testing.T) {
	set, _ := extract(t, motivating)
	var texts []string
	for _, f := range set {
		texts = append(texts, f.String())
	}
	joined := strings.Join(texts, "; ")
	for _, want := range []string{"inst1: add rcx, rax", "δRAW(1→2)", "η=3"} {
		if !strings.Contains(joined, want) {
			t.Errorf("feature strings %q missing %q", joined, want)
		}
	}
}

func TestDepFeaturesDedupedAcrossLocations(t *testing.T) {
	// div reads both rax and rdx written by the same predecessor pair; a
	// single (src,dst,hazard) feature per pair must remain.
	set, _ := extract(t, "xor edx, edx\nmov rax, rcx\ndiv rbx")
	seen := make(map[string]int)
	for _, f := range set {
		if f.Kind == KindDep {
			seen[f.Key()]++
		}
	}
	for k, n := range seen {
		if n > 1 {
			t.Errorf("dep feature %s appears %d times", k, n)
		}
	}
}

func TestSetOperations(t *testing.T) {
	set, _ := extract(t, motivating)
	a := NewSet(set[0])
	b := a.Add(set[1])
	if len(a) != 1 || len(b) != 2 {
		t.Fatalf("Add should be persistent: %d, %d", len(a), len(b))
	}
	if b.Add(set[0]).Key() != b.Key() {
		t.Error("adding an existing feature should not change the set key")
	}
}

func TestSetKeyOrderInsensitive(t *testing.T) {
	set, _ := extract(t, motivating)
	a := NewSet(set[0], set[1])
	b := NewSet(set[1], set[0])
	if a.Key() != b.Key() {
		t.Errorf("set key must be order-insensitive: %q vs %q", a.Key(), b.Key())
	}
}

func TestContainedInIdentityMapping(t *testing.T) {
	set, g := extract(t, motivating)
	mapping := []int{0, 1, 2}
	for _, f := range set {
		if !f.ContainedIn(g.Block, g, mapping) {
			t.Errorf("feature %v should be contained in the unperturbed block", f)
		}
	}
	if !set.SetContainedIn(g.Block, g, mapping) {
		t.Error("whole set should be contained in the unperturbed block")
	}
}

func TestContainedInAfterOpcodeChange(t *testing.T) {
	set, _ := extract(t, motivating)
	perturbed := x86.MustParseBlock("sub rcx, rax\nmov rdx, rcx\npop rbx")
	pg, err := deps.Build(perturbed, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapping := []int{0, 1, 2}
	for _, f := range set {
		got := f.ContainedIn(perturbed, pg, mapping)
		switch {
		case f.Kind == KindInstr && f.Index == 0:
			if got {
				t.Errorf("inst1 feature should be absent after add→sub")
			}
		case f.Kind == KindDep && f.Src == 0 && f.Dst == 1:
			if !got {
				t.Errorf("RAW(1→2) survives add→sub (still writes rcx); got absent")
			}
		case f.Kind == KindCount:
			if !got {
				t.Error("η unchanged, feature should be present")
			}
		}
	}
}

func TestContainedInAfterDeletion(t *testing.T) {
	set, _ := extract(t, motivating)
	perturbed := x86.MustParseBlock("add rcx, rax\npop rbx")
	pg, err := deps.Build(perturbed, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapping := []int{0, -1, 1} // instruction 2 deleted
	for _, f := range set {
		got := f.ContainedIn(perturbed, pg, mapping)
		switch {
		case f.Kind == KindInstr && f.Index == 1:
			if got {
				t.Error("deleted instruction feature should be absent")
			}
		case f.Kind == KindDep && f.Dst == 1:
			if got {
				t.Error("dependency into a deleted instruction should be absent")
			}
		case f.Kind == KindCount:
			if got {
				t.Error("η=3 should be absent from a 2-instruction block")
			}
		case f.Kind == KindInstr && f.Index == 0:
			if !got {
				t.Error("surviving instruction feature should be present")
			}
		}
	}
}

func TestContainedInAfterDependencyBreak(t *testing.T) {
	set, _ := extract(t, motivating)
	// Renaming mov's source register breaks the RAW(1→2).
	perturbed := x86.MustParseBlock("add rcx, rax\nmov rdx, rbx\npop rbx")
	pg, err := deps.Build(perturbed, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mapping := []int{0, 1, 2}
	for _, f := range set {
		if f.Kind == KindDep && f.Src == 0 && f.Dst == 1 && f.Hazard == deps.RAW {
			if f.ContainedIn(perturbed, pg, mapping) {
				t.Error("broken RAW should be absent")
			}
		}
	}
}

func TestFilterAndHasKind(t *testing.T) {
	set, _ := extract(t, motivating)
	insts := set.Filter(func(f Feature) bool { return f.Kind == KindInstr })
	if len(insts) != 3 {
		t.Errorf("filter returned %d instruction features, want 3", len(insts))
	}
	if !set.HasKind(KindCount) {
		t.Error("set should contain η")
	}
	if insts.HasKind(KindCount) {
		t.Error("filtered set should not contain η")
	}
}

func TestExtractFromBlock(t *testing.T) {
	b := x86.MustParseBlock(motivating)
	set, err := ExtractFromBlock(b, deps.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(set) < 5 {
		t.Errorf("expected ≥5 features, got %d", len(set))
	}
}
