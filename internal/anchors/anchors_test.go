package anchors

import (
	"math/rand"
	"sort"
	"testing"
)

// banditSpace is a synthetic Space where each candidate subset has a known
// true precision (the max of its members' weights, saturating at 1) and a
// coverage that decays with subset size.
type banditSpace struct {
	weights  []float64 // per-feature true precision contribution
	coverage []float64 // per-feature coverage
}

func (s *banditSpace) NumFeatures() int { return len(s.weights) }

func (s *banditSpace) truePrecision(cand []int) float64 {
	p := 0.0
	for _, i := range cand {
		if s.weights[i] > p {
			p = s.weights[i]
		}
	}
	if p > 1 {
		p = 1
	}
	return p
}

func (s *banditSpace) SamplePrecision(rng *rand.Rand, cand []int, n int) int {
	p := s.truePrecision(cand)
	succ := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			succ++
		}
	}
	return succ
}

func (s *banditSpace) Coverage(cand []int) float64 {
	c := 1.0
	for _, i := range cand {
		c *= s.coverage[i]
	}
	return c
}

func TestSearchFindsHighPrecisionSingleton(t *testing.T) {
	// Feature 2 is precise enough alone; it should be certified with its
	// (high) singleton coverage.
	space := &banditSpace{
		weights:  []float64{0.2, 0.4, 0.95, 0.3},
		coverage: []float64{0.5, 0.5, 0.4, 0.5},
	}
	res := Search(space, Options{PrecisionThreshold: 0.7}, rand.New(rand.NewSource(1)))
	if !res.Certified {
		t.Fatalf("expected certified anchor, got %+v", res)
	}
	if len(res.Anchor) != 1 || res.Anchor[0] != 2 {
		t.Errorf("anchor = %v, want [2]", res.Anchor)
	}
	if res.Precision < 0.7 {
		t.Errorf("reported precision %v below threshold", res.Precision)
	}
}

func TestSearchPrefersMaxCoverageAmongAnchors(t *testing.T) {
	// Features 0 and 1 both clear the threshold; 1 has better coverage.
	space := &banditSpace{
		weights:  []float64{0.9, 0.92, 0.1},
		coverage: []float64{0.2, 0.6, 0.9},
	}
	res := Search(space, Options{PrecisionThreshold: 0.7}, rand.New(rand.NewSource(2)))
	if !res.Certified {
		t.Fatalf("expected certified anchor, got %+v", res)
	}
	if len(res.Anchor) != 1 || res.Anchor[0] != 1 {
		t.Errorf("anchor = %v, want the max-coverage anchor [1]", res.Anchor)
	}
}

func TestSearchGrowsAnchorWhenSingletonsFail(t *testing.T) {
	// No singleton reaches 0.9, but {0,1} does (max weight 0.95 only via
	// combining? here we emulate synergy with a special space).
	space := &synergySpace{}
	res := Search(space, Options{PrecisionThreshold: 0.9}, rand.New(rand.NewSource(3)))
	if !res.Certified {
		t.Fatalf("expected certified anchor, got %+v", res)
	}
	got := append([]int(nil), res.Anchor...)
	sort.Ints(got)
	if len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("anchor = %v, want [0 1]", got)
	}
}

// synergySpace: precision 0.6 for {0} or {1} alone, 0.97 for both together,
// 0.05 for anything else.
type synergySpace struct{}

func (s *synergySpace) NumFeatures() int { return 4 }

func (s *synergySpace) truePrecision(cand []int) float64 {
	has0, has1, other := false, false, false
	for _, i := range cand {
		switch i {
		case 0:
			has0 = true
		case 1:
			has1 = true
		default:
			other = true
		}
	}
	switch {
	case has0 && has1:
		return 0.97
	case (has0 || has1) && !other:
		return 0.6
	default:
		return 0.05
	}
}

func (s *synergySpace) SamplePrecision(rng *rand.Rand, cand []int, n int) int {
	p := s.truePrecision(cand)
	succ := 0
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			succ++
		}
	}
	return succ
}

func (s *synergySpace) Coverage(cand []int) float64 {
	return 1.0 / float64(1+len(cand))
}

func TestSearchFallbackWhenNothingCertifies(t *testing.T) {
	space := &banditSpace{
		weights:  []float64{0.1, 0.3, 0.2},
		coverage: []float64{0.5, 0.5, 0.5},
	}
	res := Search(space, Options{PrecisionThreshold: 0.99, MaxAnchorSize: 2},
		rand.New(rand.NewSource(4)))
	if res.Certified {
		t.Fatalf("nothing should certify at 0.99: %+v", res)
	}
	if len(res.Anchor) == 0 {
		t.Error("fallback should still return the best candidate")
	}
	// The best candidate contains the strongest feature (index 1).
	found := false
	for _, i := range res.Anchor {
		if i == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("fallback anchor %v should contain the best feature 1", res.Anchor)
	}
}

func TestSearchEmptySpace(t *testing.T) {
	space := &banditSpace{}
	res := Search(space, Options{}, rand.New(rand.NewSource(5)))
	if res.Certified || len(res.Anchor) != 0 {
		t.Errorf("empty space must return empty result, got %+v", res)
	}
}

func TestSearchDeterministicGivenSeed(t *testing.T) {
	space := &banditSpace{
		weights:  []float64{0.2, 0.8, 0.5, 0.75},
		coverage: []float64{0.3, 0.4, 0.5, 0.6},
	}
	a := Search(space, Options{}, rand.New(rand.NewSource(6)))
	b := Search(space, Options{}, rand.New(rand.NewSource(6)))
	if a.Precision != b.Precision || len(a.Anchor) != len(b.Anchor) {
		t.Errorf("search not deterministic: %+v vs %+v", a, b)
	}
}

func TestSearchQueryBudgetRespected(t *testing.T) {
	space := &banditSpace{
		weights:  []float64{0.69, 0.70, 0.71}, // adversarially close to threshold
		coverage: []float64{0.5, 0.5, 0.5},
	}
	opts := Options{PrecisionThreshold: 0.7, MaxSamplesPerCand: 300, BatchSize: 50, MaxAnchorSize: 2}
	counted := &countingSpace{Space: space}
	Search(counted, opts, rand.New(rand.NewSource(7)))
	// 3 singletons + ≤6 pairs, each capped at ~300+batch samples.
	if counted.draws > 9*400 {
		t.Errorf("query budget blown: %d samples", counted.draws)
	}
}

// countingSpace counts the precision draws a search makes.
type countingSpace struct {
	Space
	draws int
}

func (s *countingSpace) SamplePrecision(rng *rand.Rand, cand []int, n int) int {
	s.draws += n
	return s.Space.SamplePrecision(rng, cand, n)
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.PrecisionThreshold != 0.7 || o.BeamWidth != 2 || o.MaxAnchorSize != 4 {
		t.Errorf("unexpected defaults: %+v", o)
	}
}

// flatSpace has arms of one true precision p whatever their features, so
// every certificate it yields below the threshold is false. A round's
// success count is one exact Binomial(n, p) draw: one Float64 inverted
// through the distribution function, which is built once per n.
type flatSpace struct {
	k   int
	p   float64
	cdf map[int][]float64 // P(X ≤ s) for X ~ Binomial(n, p), by n
}

func newFlatSpace(k int, p float64) *flatSpace {
	return &flatSpace{k: k, p: p, cdf: make(map[int][]float64)}
}

func (s *flatSpace) NumFeatures() int { return s.k }

func (s *flatSpace) SamplePrecision(rng *rand.Rand, _ []int, n int) int {
	cdf, ok := s.cdf[n]
	if !ok {
		cdf = binomialPMF(n, s.p)
		for i := 1; i < len(cdf); i++ {
			cdf[i] += cdf[i-1]
		}
		s.cdf[n] = cdf
	}
	u := rng.Float64()
	return min(sort.Search(len(cdf), func(i int) bool { return u < cdf[i] }), n)
}

func (s *flatSpace) Coverage(cand []int) float64 { return 1 / float64(1+len(cand)) }

// TestSearchFalseCertificatesStayBelowDelta runs the search on ten arms
// whose true precision sits just below the 0.7 threshold, so every
// certificate is false. The number of searches that certify must stay
// within the Binomial(runs, Delta) 1−1e-3 quantile (73 of 1,000, a false
// rate of 7.3%; the search makes 0, 0 and 0). Certifying at ln(1/δ) with
// no union bound (124, 373 and 686 of 1,000 at these precisions) or on
// the point estimate (all) fails it. Dropping only the union over arms
// (at most 0.011) or only the one over rounds (at most 0.021) keeps the
// rate below δ, so this test cannot catch either; the exact oracle
// (TestExactCertifyProbabilityWithinBudget) does. One arm alone stays
// below δ even at ln(1/δ), hence ten. The 3,000 searches take about 2 s,
// and about 5 s under -race, on a 2-vCPU Xeon.
func TestSearchFalseCertificatesStayBelowDelta(t *testing.T) {
	const (
		runs  = 1000
		delta = 0.05
	)
	allowed := 0
	for 1-binomialCDF(allowed, runs, delta) > 1e-3 {
		allowed++
	}
	opts := Options{PrecisionThreshold: 0.7, Delta: delta}
	for _, p := range []float64{0.66, 0.68, 0.69} {
		space := newFlatSpace(10, p)
		falseCerts := 0
		for i := 0; i < runs; i++ {
			if Search(space, opts, rand.New(rand.NewSource(int64(i)))).Certified {
				falseCerts++
			}
		}
		if falseCerts > allowed {
			t.Errorf("p = %.2f: %d of %d searches certified an arm below the threshold; δ = %.2f allows %d",
				p, falseCerts, runs, delta, allowed)
		}
	}
}

// binomialCDF returns P(X ≤ k) for X ~ Binomial(n, p).
func binomialCDF(k, n int, p float64) float64 {
	sum := 0.0
	for _, q := range binomialPMF(n, p)[:k+1] {
		sum += q
	}
	return sum
}
