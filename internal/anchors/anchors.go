// Package anchors implements the beam-search anchor construction of
// Ribeiro et al. (2018), adapted to COMET's optimization problem (eq. 7 of
// the paper): among feature sets F ⊆ ˆP with Prec(F) ≥ 1−δ, return the one
// with maximum coverage. A candidate's precision is certified when the
// KL divergence of Kaufmann & Kalyanakrishnan (2013) between its estimate
// and the threshold, times its draws, reaches the union-bound level of
// stats.CertLevel; coverage is estimated empirically on a shared pool of
// unconstrained perturbations.
//
// The package is deliberately independent of basic blocks: a Space exposes
// candidate features as integer indices plus precision sampling and
// coverage evaluation, so the search is reusable (and testable) on
// synthetic bandit problems.
package anchors

import (
	"math/rand"
	"sort"

	"github.com/comet-explain/comet/internal/stats"
)

// CertRule names the rule Search certifies an anchor by: the KL (or
// Hoeffding) divergence test at the union-bound level stats.CertLevel.
// Explanation stores hash it into their keys, so records certified by an
// earlier rule miss and are recomputed rather than served.
const CertRule = "union-zeta1.1"

// Space abstracts the domain the anchor search runs over.
type Space interface {
	// NumFeatures returns |ˆP|, the number of candidate features.
	NumFeatures() int
	// SamplePrecision draws n perturbations that retain the candidate
	// feature subset and returns how many keep the model's prediction
	// within the ε-ball (the precision successes).
	SamplePrecision(rng *rand.Rand, candidate []int, n int) int
	// Coverage returns the empirical coverage of the candidate subset.
	Coverage(candidate []int) float64
}

// BoundKind selects the concentration inequality used to certify
// precision, as the divergence D(p̂, thr) that n draws must push to the
// certification level. KL (the paper's choice, via Kaufmann &
// Kalyanakrishnan 2013) is tighter near 0 and 1; Hoeffding is the
// classical alternative kept as an ablation hook.
type BoundKind int

const (
	// KLBounds uses the Bernoulli KL divergence KL(p̂ ‖ thr).
	KLBounds BoundKind = iota
	// HoeffdingBounds uses the distribution-free 2(p̂ − thr)².
	HoeffdingBounds
)

// Options tunes the search. Zero values are replaced by defaults matching
// the paper's setup ("default hyperparameters in the Anchor algorithm");
// only the certification level departs from the Anchors reference code
// (see stats.CertLevel).
type Options struct {
	PrecisionThreshold float64 // 1−δ in the paper; default 0.7
	Delta              float64 // bound on the chance a search certifies an anchor below PrecisionThreshold (stats.CertLevel); default 0.05
	BeamWidth          int     // beam size; default 2
	BatchSize          int     // samples per refinement step; default 50
	MaxSamplesPerCand  int     // sampling cap per candidate; default 2500
	MaxAnchorSize      int     // largest explanation cardinality; default 4
	Bounds             BoundKind
}

func (o Options) withDefaults() Options {
	if o.PrecisionThreshold == 0 {
		o.PrecisionThreshold = 0.7
	}
	if o.Delta == 0 {
		o.Delta = 0.05
	}
	if o.BeamWidth == 0 {
		o.BeamWidth = 2
	}
	if o.BatchSize == 0 {
		o.BatchSize = 50
	}
	if o.MaxSamplesPerCand == 0 {
		o.MaxSamplesPerCand = 2500
	}
	if o.MaxAnchorSize == 0 {
		o.MaxAnchorSize = 4
	}
	return o
}

// Result is the outcome of a search.
type Result struct {
	Anchor    []int   // selected feature indices (sorted)
	Precision float64 // empirical precision estimate of the anchor
	Coverage  float64 // empirical coverage of the anchor
	Certified bool    // whether the precision was certified above the threshold
}

// candidate tracks the sampling state of one feature subset.
type candidate struct {
	idxs     []int
	n, succ  int
	batches  int // exploration rounds spent on this candidate
	coverage float64
}

func (c *candidate) mean() float64 {
	if c.n == 0 {
		return 0
	}
	return float64(c.succ) / float64(c.n)
}

func key(idxs []int) string {
	b := make([]byte, 0, len(idxs)*3)
	for _, i := range idxs {
		b = append(b, byte('A'+i%64), byte('a'+(i/64)%26), ',')
	}
	return string(b)
}

// Search runs the beam search and returns the best anchor found. When no
// candidate reaches the precision threshold within MaxAnchorSize, the
// highest-precision candidate seen is returned with Certified == false
// (the Anchors "best of size" fallback).
func Search(space Space, opts Options, rng *rand.Rand) Result {
	opts = opts.withDefaults()
	nf := space.NumFeatures()
	if nf == 0 {
		return Result{}
	}

	// Level-1 candidates: every singleton.
	beam := make([]*candidate, 0, nf)
	for i := 0; i < nf; i++ {
		beam = append(beam, &candidate{idxs: []int{i}, coverage: space.Coverage([]int{i})})
	}

	var bestFallback *candidate

	for size := 1; size <= opts.MaxAnchorSize; size++ {
		anchor := refine(space, opts, rng, beam)

		// Track the best-precision candidate as a fallback.
		for _, c := range beam {
			if bestFallback == nil || c.mean() > bestFallback.mean() ||
				(c.mean() == bestFallback.mean() && c.coverage > bestFallback.coverage) {
				bestFallback = c
			}
		}

		if anchor != nil {
			// Coverage shrinks as anchors grow (Π is monotone), so the
			// first level with a certified anchor holds the maximum-
			// coverage one.
			return Result{
				Anchor:    append([]int(nil), anchor.idxs...),
				Precision: anchor.mean(),
				Coverage:  anchor.coverage,
				Certified: true,
			}
		}
		if size == opts.MaxAnchorSize {
			break
		}

		// Extend the top-BeamWidth candidates by one feature each.
		sort.Slice(beam, func(i, j int) bool {
			if beam[i].mean() != beam[j].mean() {
				return beam[i].mean() > beam[j].mean()
			}
			return beam[i].coverage > beam[j].coverage
		})
		top := beam
		if len(top) > opts.BeamWidth {
			top = top[:opts.BeamWidth]
		}
		seen := make(map[string]bool)
		var next []*candidate
		for _, c := range top {
			used := make(map[int]bool, len(c.idxs))
			for _, i := range c.idxs {
				used[i] = true
			}
			for f := 0; f < nf; f++ {
				if used[f] {
					continue
				}
				idxs := append(append([]int(nil), c.idxs...), f)
				sort.Ints(idxs)
				k := key(idxs)
				if seen[k] {
					continue
				}
				seen[k] = true
				next = append(next, &candidate{idxs: idxs, coverage: space.Coverage(idxs)})
			}
		}
		if len(next) == 0 {
			break
		}
		beam = next
	}

	return Result{
		Anchor:    append([]int(nil), bestFallback.idxs...),
		Precision: bestFallback.mean(),
		Coverage:  bestFallback.coverage,
	}
}

// refine evaluates candidates in coverage-descending order, sampling each
// in rounds until verdict certifies it (its precision is above the
// threshold at the confidence level), rejects it (below), or its sample
// budget is exhausted. Because the outer objective is maximum coverage
// subject to the precision constraint, the first certified candidate in
// this order is the level's answer, and refine returns it; later
// (lower-coverage) candidates need no further queries. When nothing
// certifies it returns nil, and every candidate ends up with a precision
// estimate, which the beam extension uses.
func refine(space Space, opts Options, rng *rand.Rand, cands []*candidate) *candidate {
	order := make([]*candidate, len(cands))
	copy(order, cands)
	sort.SliceStable(order, func(i, j int) bool { return order[i].coverage > order[j].coverage })

	for _, c := range order {
		for c.n < opts.MaxSamplesPerCand {
			n := min(opts.BatchSize, opts.MaxSamplesPerCand-c.n)
			c.succ += space.SamplePrecision(rng, c.idxs, n)
			c.n += n
			c.batches++
			certified, rejected := judge(opts, len(cands), c)
			if certified {
				return c
			}
			if rejected {
				break
			}
		}
	}
	return nil
}

// judge decides one of k arms of a beam level after its latest round.
// The level is a union bound over the level's arms, the candidate's own
// rounds and the search's levels (stats.CertLevel), so a false
// certificate has probability at most Delta.
func judge(opts Options, k int, c *candidate) (certified, rejected bool) {
	level := stats.CertLevel(k, c.batches, opts.MaxAnchorSize, opts.Delta)
	return verdict(opts.Bounds, c.mean(), c.n, level, opts.PrecisionThreshold)
}

// verdict reports whether a candidate of estimate phat over n draws is
// certified or rejected at confidence level L against the threshold thr.
// The confidence interval of the selected inequality is
// {q : n·D(phat, q) ≤ L}, and D(phat, q) grows as q moves away from phat,
// so the interval's bound on thr's side clears thr exactly when
// n·D(phat, thr) reaches L: one divergence evaluation decides. The arm
// certifies when phat ≥ thr and n·D ≥ L (the closed lower bound reaches
// thr), and is rejected when phat < thr and n·D > L.
func verdict(kind BoundKind, phat float64, n int, level, thr float64) (certified, rejected bool) {
	d := stats.KLBern(phat, thr)
	if kind == HoeffdingBounds {
		d = 2 * (phat - thr) * (phat - thr)
	}
	nd := float64(n) * d
	if phat >= thr {
		return nd >= level, false
	}
	return false, nd > level
}
