package comet_test

import (
	"math/rand"
	"testing"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/features"
)

// TestQueryPathAllocBudgets pins the allocations of the three per-query
// layers of an explanation on the motivating block: one C evaluation, one
// Γ draw and one prediction-cache key. An explanation runs thousands of
// each, so a new allocation in any of them is a regression. The race
// detector allocates on its own and randomly drops sync.Pool entries, so
// the budgets hold only in normal builds.
func TestQueryPathAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	block := comet.MustParseBlock(motivating)
	model := comet.NewAnalyticalModel(comet.Haswell)
	p, err := comet.NewPerturber(block, comet.DefaultPerturbConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	feats := p.Features()
	keep := append(feats.Filter(func(f features.Feature) bool { return f.Kind == features.KindDep })[:1], feats[0])
	budgets := []struct {
		name string
		max  float64
		fn   func()
	}{
		// The dependency edges and instruction costs live on the stack.
		{"analytical.Predict", 0, func() { model.Predict(block) }},
		// The instructions, one operand slice, the index mapping and the
		// block header.
		{"perturb.Sample", 4, func() { p.Sample(rng, nil) }},
		{"perturb.Sample/preserve", 4, func() { p.Sample(rng, keep) }},
		// The key string itself.
		{"costmodel.BlockKey", 1, func() { _ = costmodel.BlockKey(block) }},
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(500, b.fn); got > b.max {
			t.Errorf("%s allocates %v times per call, budget %v", b.name, got, b.max)
		}
	}
}
