// Package stats provides the statistical utilities COMET builds on:
// summary statistics (mean, standard deviation, MAPE), the Bernoulli
// KL divergence, and the confidence level at which the anchor search
// compares it to certify explanation precision (the KL test of Kaufmann
// & Kalyanakrishnan 2013).
package stats

import "math"

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the sample standard deviation of xs (0 when len < 2).
func Std(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

// MeanStd returns both the mean and sample standard deviation.
func MeanStd(xs []float64) (mean, std float64) {
	return Mean(xs), Std(xs)
}

// MAPE returns the mean absolute percentage error of predictions against
// reference values, in percent. Pairs with a zero reference are skipped.
func MAPE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic("stats: MAPE length mismatch")
	}
	s, n := 0.0, 0
	for i := range pred {
		if actual[i] == 0 {
			continue
		}
		s += math.Abs(pred[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return 100 * s / float64(n)
}

// KLBern returns the KL divergence KL(p ‖ q) between Bernoulli
// distributions, with the conventional 0·log0 = 0 limits.
func KLBern(p, q float64) float64 {
	const eps = 1e-12
	p = math.Min(math.Max(p, 0), 1)
	q = math.Min(math.Max(q, eps), 1-eps)
	kl := 0.0
	if p > 0 {
		kl += p * math.Log(p/q)
	}
	if p < 1 {
		kl += (1 - p) * math.Log((1-p)/(1-q))
	}
	return kl
}

// zeta11 is ζ(1.1) = Σ_{t≥1} t^−1.1 = 10.58444…, rounded up so the round
// weights t^−1.1/zeta11 sum to at most 1.
const zeta11 = 10.5845

// CertLevel returns the confidence level L = ln(k·ζ(1.1)·t^1.1·levels/δ)
// at which an anchor search certifies one of k arms of a beam level after
// the arm's own t-th sampling round, in a search of at most levels beam
// levels. An arm of estimate p̂ over n draws certifies against the
// precision threshold thr when p̂ ≥ thr and n·KL(p̂‖thr) ≥ L, or
// n·2(p̂−thr)² ≥ L in the Hoeffding ablation: its lower confidence bound
// at level L then clears thr.
//
// The level keeps the search's false-certification probability at most δ.
// For one arm after a fixed round of n i.i.d. draws, the Chernoff bound
// gives P(n·KL(p̂‖p) ≥ L and p̂ > p) ≤ e^−L, and Hoeffding's inequality
// gives the same tail for n·2(p̂−p)². Every arm starts with no draws,
// so its estimate uses only draws made after its level's arms were
// chosen. A union over the k arms, the rounds (weight t^−1.1/ζ(1.1)) and
// the levels sums to at most δ.
//
// This departs from the Anchors reference code the paper ran with its
// defaults, whose β(t, δ) = T + ln T with T = ln(405.5·k·t^1.1/δ) is the
// KL-LUCB exploration rate of Kaufmann & Kalyanakrishnan (2013). It is
// larger than the union the search needs: at k = t = 1, δ = 0.05 and four
// levels, L is 6.7 where β is 11.2, so an anchor certifies after fewer
// draws with the same δ guarantee.
func CertLevel(k, t, levels int, delta float64) float64 {
	return math.Log(float64(k) * zeta11 * math.Pow(float64(t), 1.1) * float64(levels) / delta)
}
