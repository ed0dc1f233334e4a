package anchors

import (
	"math"
	"testing"
)

// certifyProbability returns the exact probability that refine certifies
// one of k arms whose true precision is p: a dynamic program over
// (round, successes) that samples the arm in refine's rounds and asks
// judge, as refine does, whether each success count certifies, is
// rejected or goes on sampling. The certify region of a round is
// {s ≥ c(n)} and the reject region {s ≤ r(n)}, both monotone in s, so
// the probability grows with p: over every p < thr it is largest in the
// limit p → thr, which is its value at p = thr.
func certifyProbability(opts Options, k int, p float64) float64 {
	// live[s-lo] is the probability of s successes so far with no verdict.
	live, lo := []float64{1}, 0
	certified := 0.0
	c := candidate{}
	for c.n < opts.MaxSamplesPerCand {
		n := min(opts.BatchSize, opts.MaxSamplesPerCand-c.n)
		pmf := binomialPMF(n, p)
		next := make([]float64, len(live)+n)
		for i, w := range live {
			for j, q := range pmf {
				next[i+j] += w * q
			}
		}
		c.n += n
		c.batches++
		first, last := -1, -1
		for i, w := range next {
			c.succ = lo + i
			cert, rej := judge(opts, k, &c)
			switch {
			case cert:
				certified += w
				next[i] = 0
			case rej:
				next[i] = 0
			case w > 0:
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if first < 0 {
			break
		}
		live, lo = next[first:last+1], lo+first
	}
	return certified
}

// binomialPMF returns P(X = j) for X ~ Binomial(n, p), j = 0..n.
func binomialPMF(n int, p float64) []float64 {
	lgN, _ := math.Lgamma(float64(n + 1))
	pmf := make([]float64, n+1)
	for j := range pmf {
		lgJ, _ := math.Lgamma(float64(j + 1))
		lgR, _ := math.Lgamma(float64(n - j + 1))
		pmf[j] = math.Exp(lgN - lgJ - lgR + float64(j)*math.Log(p) + float64(n-j)*math.Log1p(-p))
	}
	return pmf
}

// TestExactCertifyProbabilityWithinBudget is the exact oracle for the
// certificate: for k arms in a search of four levels, one arm at the
// threshold certifies with probability at most δ/(k·levels), so the
// union over a level's arms and the search's levels keeps a false
// certificate below δ. It covers both bounds at the default rounds of
// 50 draws up to 2,500. Today's level spends about 1–5% of that budget;
// without its union over rounds or over arms the probability exceeds it.
func TestExactCertifyProbabilityWithinBudget(t *testing.T) {
	const levels = 4
	for _, kind := range []BoundKind{KLBounds, HoeffdingBounds} {
		for _, thr := range []float64{0.5, 0.7, 0.9} {
			for _, delta := range []float64{0.05, 0.01} {
				opts := Options{PrecisionThreshold: thr, Delta: delta, MaxAnchorSize: levels, Bounds: kind}.withDefaults()
				for _, k := range []int{1, 10, 40, 100, 1000} {
					p := certifyProbability(opts, k, thr)
					if budget := delta / float64(k*levels); p > budget {
						t.Errorf("kind %d, thr %v, δ %v, k %d: an arm at the threshold certifies with probability %.3g, over its budget δ/(k·levels) = %.3g (ratio %.2f)",
							kind, thr, delta, k, p, budget, p/budget)
					}
				}
			}
		}
	}
}
