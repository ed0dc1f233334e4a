package perturb

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/x86"
)

const motivating = "add rcx, rax\nmov rdx, rcx\npop rbx"

var testBlocks = []string{
	motivating,
	`lea rdx, [rax + 1]
	 mov qword ptr [rdi + 24], rdx
	 mov byte ptr [rax], 80
	 mov rsi, qword ptr [r14 + 32]
	 mov rdi, rbp`,
	`mov ecx, edx
	 xor edx, edx
	 lea rax, [rcx + rax - 1]
	 div rcx
	 mov rdx, rcx
	 imul rax, rcx`,
	`vdivss xmm0, xmm0, xmm6
	 vmulss xmm7, xmm0, xmm0
	 vxorps xmm0, xmm0, xmm5
	 vaddss xmm7, xmm7, xmm3
	 vmulss xmm6, xmm6, xmm7
	 vdivss xmm6, xmm3, xmm6
	 vmulss xmm0, xmm6, xmm0`,
	`mov qword ptr [rdi + 8], rax
	 mov rbx, qword ptr [rdi + 8]
	 add rbx, rcx`,
}

func newPerturber(t *testing.T, src string) *Perturber {
	t.Helper()
	b, err := x86.ParseBlock(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(b, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSampleProducesValidBlocks(t *testing.T) {
	for _, src := range testBlocks {
		p := newPerturber(t, src)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 200; i++ {
			res := p.Sample(rng, nil)
			if err := res.Block.Validate(); err != nil {
				t.Fatalf("block %q sample %d invalid:\n%s\nerr: %v", src, i, res.Block, err)
			}
		}
	}
}

func TestSampleMappingConsistent(t *testing.T) {
	p := newPerturber(t, motivating)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		res := p.Sample(rng, nil)
		if len(res.Mapping) != p.Block().Len() {
			t.Fatalf("mapping length %d, want %d", len(res.Mapping), p.Block().Len())
		}
		next := 0
		for _, m := range res.Mapping {
			if m == -1 {
				continue
			}
			if m != next {
				t.Fatalf("mapping %v not monotone", res.Mapping)
			}
			next++
		}
		if next != res.Block.Len() {
			t.Fatalf("mapping survivors %d != block len %d", next, res.Block.Len())
		}
	}
}

func TestPreserveEtaForbidsDeletion(t *testing.T) {
	p := newPerturber(t, motivating)
	etaFeat := p.Features().Filter(func(f features.Feature) bool { return f.Kind == features.KindCount })
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		res := p.Sample(rng, etaFeat)
		if res.Block.Len() != p.Block().Len() {
			t.Fatalf("η preserved but length changed: %d → %d", p.Block().Len(), res.Block.Len())
		}
	}
}

func TestPreservedInstructionOpcodesSurvive(t *testing.T) {
	p := newPerturber(t, motivating)
	instFeats := p.Features().Filter(func(f features.Feature) bool { return f.Kind == features.KindInstr })
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 300; i++ {
		for _, f := range instFeats {
			res := p.Sample(rng, features.NewSet(f))
			ni := res.Mapping[f.Index]
			if ni < 0 {
				t.Fatalf("preserved instruction %d was deleted", f.Index)
			}
			if res.Block.Instructions[ni].Opcode != f.Opcode {
				t.Fatalf("preserved opcode changed: want %s got %s", f.Opcode, res.Block.Instructions[ni].Opcode)
			}
		}
	}
}

// The core soundness invariant of Γ: every feature in the preserve set is
// contained in every sampled perturbation (paper §4: Π(F) only perturbs
// features outside F).
func TestPropertyPreservedFeaturesAlwaysContained(t *testing.T) {
	for _, src := range testBlocks {
		p := newPerturber(t, src)
		feats := p.Features()
		f := func(seed int64, pick uint8, pick2 uint8) bool {
			rng := rand.New(rand.NewSource(seed))
			// Random preserve set of one or two features.
			set := features.NewSet(feats[int(pick)%len(feats)], feats[int(pick2)%len(feats)])
			res := p.Sample(rng, set)
			g, err := res.Graph(deps.Options{})
			if err != nil {
				t.Logf("perturbed graph: %v", err)
				return false
			}
			if !set.SetContainedIn(res.Block, g, res.Mapping) {
				t.Logf("preserve %v violated by perturbation:\n%s\n(original:\n%s)", set, res.Block, p.Block())
				return false
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
			t.Errorf("block %q: %v", src, err)
		}
	}
}

// SampleInto reuses a Result's storage but must draw exactly what Sample
// draws from the same rng state, whatever block size and preserve set the
// buffer held before.
func TestPropertySampleIntoMatchesSample(t *testing.T) {
	perturbers := make([]*Perturber, len(testBlocks))
	for i, src := range testBlocks {
		perturbers[i] = newPerturber(t, src)
	}
	pick := func(p *Perturber, a, b uint8) features.Set {
		feats := p.Features()
		if a%3 == 0 {
			return nil
		}
		return features.NewSet(feats[int(a)%len(feats)], feats[int(b)%len(feats)])
	}
	var warm Result
	f := func(seed int64, prev, cur, a, b, c, d uint8) bool {
		// Warm the buffer on another block and preserve set first.
		pp := perturbers[int(prev)%len(perturbers)]
		pp.SampleInto(rand.New(rand.NewSource(^seed)), pick(pp, c, d), &warm)
		p := perturbers[int(cur)%len(perturbers)]
		if p == pp {
			p = perturbers[(int(cur)+1)%len(perturbers)]
		}
		preserve := pick(p, a, b)
		want := p.Sample(rand.New(rand.NewSource(seed)), preserve)
		p.SampleInto(rand.New(rand.NewSource(seed)), preserve, &warm)
		if warm.Block.String() != want.Block.String() || !slices.Equal(warm.Mapping, want.Mapping) {
			t.Logf("SampleInto drew\n%s\n%v\nSample drew\n%s\n%v", warm.Block, warm.Mapping, want.Block, want.Mapping)
			return false
		}
		return warm.Block.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestPropertySamplesAlwaysValid(t *testing.T) {
	for _, src := range testBlocks {
		p := newPerturber(t, src)
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			res := p.Sample(rng, nil)
			return res.Block.Validate() == nil && res.Block.Len() >= 1
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("block %q: %v", src, err)
		}
	}
}

func TestSamplingIsDiverse(t *testing.T) {
	p := newPerturber(t, motivating)
	rng := rand.New(rand.NewSource(5))
	distinct := make(map[string]bool)
	for i := 0; i < 300; i++ {
		res := p.Sample(rng, nil)
		distinct[res.Block.String()] = true
	}
	if len(distinct) < 30 {
		t.Errorf("expected diverse perturbations, got %d distinct blocks in 300 draws", len(distinct))
	}
}

func TestRetentionRateRoughlyMatchesConfig(t *testing.T) {
	p := newPerturber(t, motivating)
	rng := rand.New(rand.NewSource(6))
	const n = 3000
	retained := 0
	total := 0
	for i := 0; i < n; i++ {
		res := p.Sample(rng, nil)
		for orig, ni := range res.Mapping {
			if orig == 2 {
				continue // pop has limited replacements; test add/mov slots
			}
			total++
			if ni >= 0 && res.Block.Instructions[ni].Opcode == p.Block().Instructions[orig].Opcode {
				retained++
			}
		}
	}
	rate := float64(retained) / float64(total)
	// With pI,ret = 0.5 the opcode survives with probability ~0.5 (plus a
	// tiny chance a replacement draw is impossible). Allow generous slack.
	if rate < 0.40 || rate > 0.65 {
		t.Errorf("opcode retention rate = %.3f, want ≈0.5", rate)
	}
}

func TestLeaAlwaysRetained(t *testing.T) {
	p := newPerturber(t, "lea rdx, [rax + 1]\nadd rcx, rax")
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		res := p.Sample(rng, nil)
		if ni := res.Mapping[0]; ni >= 0 {
			if got := res.Block.Instructions[ni].Opcode; got != "lea" {
				t.Fatalf("lea has no valid replacement but became %q", got)
			}
		}
	}
}

func TestDependencyBreaking(t *testing.T) {
	// With enough samples, the RAW(1→2) must be broken in some draws and
	// kept in others.
	p := newPerturber(t, motivating)
	raw := p.Features().Filter(func(f features.Feature) bool { return f.Kind == features.KindDep })
	if len(raw) == 0 {
		t.Fatal("no dependency features")
	}
	rng := rand.New(rand.NewSource(8))
	broken, kept := 0, 0
	for i := 0; i < 500; i++ {
		res := p.Sample(rng, nil)
		g, err := res.Graph(deps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if raw[0].ContainedIn(res.Block, g, res.Mapping) {
			kept++
		} else {
			broken++
		}
	}
	if broken == 0 || kept == 0 {
		t.Errorf("dependency should sometimes break and sometimes survive: broken=%d kept=%d", broken, kept)
	}
}

func TestImplicitDependencyCannotBreakByRenaming(t *testing.T) {
	// xor edx, edx → div rcx: RAW carried by div's *implicit* rdx read.
	// When both opcodes are preserved, the dependency can never be broken:
	// renaming the only explicit slot (xor's destination) is the write side,
	// but div's side has no slot at all — breaking requires renaming one
	// side fully, which for the write side is possible. Preserve the dep
	// explicitly and confirm it always survives instead.
	p := newPerturber(t, "xor edx, edx\ndiv rcx")
	depFeats := p.Features().Filter(func(f features.Feature) bool {
		return f.Kind == features.KindDep && f.Hazard == deps.RAW
	})
	if len(depFeats) == 0 {
		t.Fatal("expected implicit RAW feature")
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		res := p.Sample(rng, features.NewSet(depFeats[0]))
		g, err := res.Graph(deps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !depFeats[0].ContainedIn(res.Block, g, res.Mapping) {
			t.Fatalf("preserved implicit RAW broken in:\n%s", res.Block)
		}
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	p := newPerturber(t, motivating)
	a := p.Sample(rand.New(rand.NewSource(42)), nil)
	b := p.Sample(rand.New(rand.NewSource(42)), nil)
	if a.Block.String() != b.Block.String() {
		t.Error("same seed must give the same perturbation")
	}
}

func TestWholeInstructionScheme(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Scheme = WholeInstruction
	b := x86.MustParseBlock(motivating)
	p, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	operandChanged := false
	for i := 0; i < 300; i++ {
		res := p.Sample(rng, nil)
		if err := res.Block.Validate(); err != nil {
			t.Fatalf("invalid block under WholeInstruction scheme: %v", err)
		}
		for orig, ni := range res.Mapping {
			if ni < 0 {
				continue
			}
			got := res.Block.Instructions[ni]
			want := b.Instructions[orig]
			if got.Opcode != want.Opcode && len(got.Operands) > 0 && len(want.Operands) > 0 {
				if got.Operands[0] != want.Operands[0] {
					operandChanged = true
				}
			}
		}
	}
	if !operandChanged {
		t.Error("WholeInstruction scheme never changed an operand")
	}
}

func TestSpaceSizeMonotone(t *testing.T) {
	// Appendix F / Theorem 1: adding preserved features shrinks Π̂(F).
	for _, src := range testBlocks {
		p := newPerturber(t, src)
		empty := p.SpaceSize(nil)
		if empty <= 0 {
			t.Fatalf("block %q: empty-set space should be large, got 10^%.1f", src, empty)
		}
		feats := p.Features()
		for _, f := range feats {
			withF := p.SpaceSize(features.NewSet(f))
			if withF > empty+1e-9 {
				t.Errorf("block %q: |Π̂({%v})| > |Π̂(∅)|", src, f)
			}
		}
	}
}

func TestSpaceSizeIsAstronomical(t *testing.T) {
	// The β1 block of Appendix F has |Π̂(∅)| ≈ 1.9×10^38 in the paper; our
	// table differs, but the magnitude should still be astronomical.
	p := newPerturber(t, testBlocks[3])
	if log10 := p.SpaceSize(nil); log10 < 10 {
		t.Errorf("perturbation space suspiciously small: 10^%.1f", log10)
	}
}

func TestFormatSpaceSize(t *testing.T) {
	if got := FormatSpaceSize(38.288); got != "1.94e+38" {
		t.Errorf("FormatSpaceSize = %q, want 1.94e+38", got)
	}
}

func TestMemoryDependencySlideBreaks(t *testing.T) {
	// Store/load pair through [rdi+8]: breaking the memory RAW slides the
	// displacement; confirm both outcomes occur and blocks stay valid.
	p := newPerturber(t, "mov qword ptr [rdi + 8], rax\nmov rbx, qword ptr [rdi + 8]")
	memRAW := p.Features().Filter(func(f features.Feature) bool {
		return f.Kind == features.KindDep && f.Hazard == deps.RAW
	})
	if len(memRAW) == 0 {
		t.Fatal("expected memory RAW feature")
	}
	rng := rand.New(rand.NewSource(11))
	broken := 0
	for i := 0; i < 400; i++ {
		res := p.Sample(rng, nil)
		g, err := res.Graph(deps.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !memRAW[0].ContainedIn(res.Block, g, res.Mapping) {
			broken++
		}
	}
	if broken == 0 {
		t.Error("memory RAW never broke across 400 samples")
	}
}

func TestNewRejectsInvalidBlock(t *testing.T) {
	if _, err := New(&x86.BasicBlock{}, DefaultConfig()); err == nil {
		t.Error("New should reject an empty block")
	}
}
