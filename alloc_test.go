package comet_test

import (
	"math/rand"
	"testing"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/deps"
	"github.com/comet-explain/comet/internal/features"
	"github.com/comet-explain/comet/internal/perturb"
	"github.com/comet-explain/comet/internal/x86"
)

// TestQueryPathAllocBudgets pins the allocations of the per-query layers
// of an explanation on the motivating block: one evaluation of C, uica,
// the hardware simulator and mca, one batch of C queries, one Γ draw
// (fresh, and into a warm buffer), one access summary (what a coverage
// sample tests containment on), one dependency edge list, one opcode
// lookup and form match, one batch of uica queries that all hit the
// prediction cache, and one string cache key. An explanation runs
// thousands of each, so a new allocation in any of them is a
// regression. The race
// detector allocates on its own and randomly drops sync.Pool entries, so
// the budgets hold only in normal builds.
func TestQueryPathAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	block := comet.MustParseBlock(motivating)
	model := comet.NewAnalyticalModel(comet.Haswell)
	uica := comet.NewUICAModel(comet.Haswell)
	hw := comet.NewHardwareSimulator(comet.Haswell)
	mca := comet.NewMCAModel(comet.Haswell)
	p, err := comet.NewPerturber(block, comet.DefaultPerturbConfig())
	if err != nil {
		t.Fatal(err)
	}
	spec, _ := x86.Lookup(block.Instructions[1].Opcode)
	rng := rand.New(rand.NewSource(1))
	feats := p.Features()
	keep := append(feats.Filter(func(f features.Feature) bool { return f.Kind == features.KindDep })[:1], feats[0])
	var warm perturb.Result
	p.SampleInto(rng, nil, &warm)
	batch := make([]*x86.BasicBlock, 64)
	for i := range batch {
		batch[i] = block
	}
	preds := make([]float64, len(batch))
	cache := costmodel.NewCache(0)
	costmodel.PredictThrough(cache, uica, batch, len(batch), 1, preds)
	budgets := []struct {
		name string
		max  float64
		fn   func()
	}{
		// The access summary and instruction costs live on the stack.
		{"analytical.Predict", 0, func() { model.Predict(block) }},
		// C declares CheapQuery: a batch of queries runs inline, with no
		// fan-out and no cache key, at any worker count.
		{"costmodel.PredictThrough/C", 0, func() {
			costmodel.PredictThrough(nil, model, batch, len(batch), 2, preds)
		}},
		// Every block is cached: a key is the digest of text rendered on
		// the stack, so a batch of hits builds no key string.
		{"costmodel.PredictThrough/uica", 0, func() {
			costmodel.PredictThrough(cache, uica, batch, len(batch), 1, preds)
		}},
		// The plans, the ready table, the port table and the iteration
		// ends live on the stack.
		{"uica.Predict", 0, func() { uica.Predict(block) }},
		{"hwsim.Predict", 0, func() { hw.Predict(block) }},
		// The port pressures, the latencies and the unrolled distances.
		{"mca.Predict", 3, func() { mca.Predict(block) }},
		{"deps.AppendSummary", 0, func() {
			var buf [16]deps.InstAccess
			if _, err := deps.AppendSummary(buf[:0], block, deps.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		// Edges into a caller's buffer: the block touches no memory, so
		// no location key is rendered.
		{"deps.AppendEdges", 0, func() {
			var buf [16]deps.Edge
			if _, err := deps.AppendEdges(buf[:0], block, deps.Options{}); err != nil {
				t.Fatal(err)
			}
		}},
		// Resolving an instruction: the compiled opcode table and the
		// form masks.
		{"x86.Lookup", 0, func() { x86.Lookup(block.Instructions[1].Opcode) }},
		{"x86.Spec.MatchForm", 0, func() { spec.MatchForm(block.Instructions[1].Operands) }},
		// The instructions, one operand slice, the index mapping and the
		// block header.
		{"perturb.Sample", 4, func() { p.Sample(rng, nil) }},
		{"perturb.Sample/preserve", 4, func() { p.Sample(rng, keep) }},
		// A warm buffer: every draw reuses its block, operands and mapping.
		{"perturb.SampleInto", 0, func() { p.SampleInto(rng, keep, &warm) }},
		// The text form Cache.Get and Cache.Put take: the string itself.
		{"costmodel.BlockKey", 1, func() { _ = costmodel.BlockKey(block) }},
	}
	for _, b := range budgets {
		if got := testing.AllocsPerRun(500, b.fn); got > b.max {
			t.Errorf("%s allocates %v times per call, budget %v", b.name, got, b.max)
		}
	}
}
