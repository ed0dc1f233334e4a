package anchors

import (
	"math"
	"testing"

	"github.com/comet-explain/comet/internal/stats"
)

// divergence is D(p̂, q) of the kind, as verdict computes it.
func divergence(kind BoundKind, phat, q float64) float64 {
	if kind == HoeffdingBounds {
		return 2 * (phat - q) * (phat - q)
	}
	return stats.KLBern(phat, q)
}

// refLower returns the smallest q ≤ phat with D(phat, q) ≤ budget, by 40
// bisection steps: the lower confidence bound the search once computed.
// Both divergences are at least 2(phat−q)² (Pinsker's inequality for KL),
// so the bound lies within sqrt(budget/2) of phat; bracketing it there
// keeps the 40 steps finer than the fuzz target's tie band wherever thr
// lies in (0, 1].
func refLower(kind BoundKind, phat, budget float64) float64 {
	lo, hi := math.Max(0, phat-math.Sqrt(budget/2)), phat
	if divergence(kind, phat, lo) <= budget {
		return lo
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if divergence(kind, phat, mid) > budget {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

// refUpper returns the largest q ≥ phat with D(phat, q) ≤ budget, the
// upper confidence bound, bracketed and bisected like refLower.
func refUpper(kind BoundKind, phat, budget float64) float64 {
	lo, hi := phat, math.Min(1, phat+math.Sqrt(budget/2))
	if divergence(kind, phat, hi) <= budget {
		return hi
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if divergence(kind, phat, mid) > budget {
			hi = mid
		} else {
			lo = mid
		}
	}
	return lo
}

// refVerdict certifies an arm whose lower bound at the level clears thr
// and rejects one whose upper bound falls below it.
func refVerdict(kind BoundKind, succ, n int, level, thr float64) (certified, rejected bool) {
	phat := float64(succ) / float64(n)
	budget := level / float64(n)
	if phat >= thr {
		return refLower(kind, phat, budget) >= thr, false
	}
	return false, refUpper(kind, phat, budget) < thr
}

// within maps x onto lo..hi, leaving values already there unchanged.
func within(x, lo, hi int) int {
	m := (x - lo) % (hi - lo + 1)
	if m < 0 {
		m += hi - lo + 1
	}
	return lo + m
}

// FuzzVerdict checks verdict's single comparison of n·D(p̂, thr) with the
// level against the bisected confidence bounds it replaces, for both
// kinds, any succ ≤ n ≤ 10,000, thr in (0, 1] in steps of 0.001 and the
// level stats.CertLevel gives for k arms, round t, a number of levels and
// δ. Inputs whose n·D lies within 1e-9·L of L are skipped: there the
// answer turns on the bisection's last step and on rounding, not on the
// rule (the bracket keeps the bisection's error well inside that band). Exact
// ties are checked apart: at L = n·D an arm with p̂ ≥ thr certifies (the
// closed lower bound reaches thr) and none is rejected.
//
// The seeds are the arms on each side of every decision boundary of a
// grid: both kinds, thr ∈ {0.5, 0.7, 0.9}, δ ∈ {0.05, 0.01}, k ∈ {1, 2,
// 5, 10, 40}, t ∈ {1, 3, 10, 50}, four levels and n ∈ 50..2500 in
// steps of 50.
func FuzzVerdict(f *testing.F) {
	for _, kind := range []BoundKind{KLBounds, HoeffdingBounds} {
		for _, thrMille := range []int{500, 700, 900} {
			for _, deltaE4 := range []int{500, 100} {
				for _, k := range []int{1, 2, 5, 10, 40} {
					for _, round := range []int{1, 3, 10, 50} {
						level := stats.CertLevel(k, round, 4, float64(deltaE4)/1e4)
						for n := 50; n <= 2500; n += 50 {
							for _, succ := range boundaryArms(kind, n, level, float64(thrMille)/1000) {
								f.Add(kind == HoeffdingBounds, succ, n, thrMille, k, round, 4, deltaE4)
							}
						}
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, hoeffding bool, succ, n, thrMille, k, round, levels, deltaE4 int) {
		kind := KLBounds
		if hoeffding {
			kind = HoeffdingBounds
		}
		n = within(n, 1, 10000)
		succ = within(succ, 0, n)
		thr := float64(within(thrMille, 1, 1000)) / 1000
		level := stats.CertLevel(within(k, 1, 1000), within(round, 1, 100), within(levels, 1, 8),
			float64(within(deltaE4, 1, 9999))/1e4)
		phat := float64(succ) / float64(n)

		nd := float64(n) * divergence(kind, phat, thr)
		if nd > 0 {
			certified, rejected := verdict(kind, phat, n, nd, thr)
			if certified != (phat >= thr) || rejected {
				t.Errorf("kind %d, %d/%d, thr %v at the tie L = n·D = %v: certified %v, rejected %v; want %v, false",
					kind, succ, n, thr, nd, certified, rejected, phat >= thr)
			}
		}
		if math.Abs(nd-level) <= 1e-9*level {
			t.Skip("n·D within 1e-9·L of the level")
		}
		certified, rejected := verdict(kind, phat, n, level, thr)
		wantC, wantR := refVerdict(kind, succ, n, level, thr)
		if certified != wantC || rejected != wantR {
			t.Errorf("kind %d, %d/%d, thr %v, level %v (n·D %v): certified %v, rejected %v; the bisected bounds say %v, %v",
				kind, succ, n, thr, level, nd, certified, rejected, wantC, wantR)
		}
	})
}

// boundaryArms returns, for n draws at the level, the success counts on
// each side of the reference's certify and reject boundaries: the least
// count that certifies and the one below it, the greatest that is
// rejected and the one above it.
func boundaryArms(kind BoundKind, n int, level, thr float64) []int {
	// least returns the least succ in 0..n for which pred holds, or n+1,
	// pred being false up to some count and true from there.
	least := func(pred func(succ int) bool) int {
		lo, hi := 0, n+1
		for lo < hi {
			mid := (lo + hi) / 2
			if pred(mid) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	cert := least(func(s int) bool { c, _ := refVerdict(kind, s, n, level, thr); return c })
	kept := least(func(s int) bool { _, r := refVerdict(kind, s, n, level, thr); return !r })
	var arms []int
	for _, s := range []int{cert - 1, cert, kept - 1, kept} {
		if s >= 0 && s <= n {
			arms = append(arms, s)
		}
	}
	return arms
}
