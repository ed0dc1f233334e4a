package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if s := Std(xs); math.Abs(s-2.138) > 0.01 {
		t.Errorf("Std = %v, want ≈2.138", s)
	}
	if Mean(nil) != 0 || Std(nil) != 0 || Std([]float64{1}) != 0 {
		t.Error("degenerate inputs should return 0")
	}
}

func TestMAPE(t *testing.T) {
	pred := []float64{110, 90}
	actual := []float64{100, 100}
	if m := MAPE(pred, actual); math.Abs(m-10) > 1e-9 {
		t.Errorf("MAPE = %v, want 10", m)
	}
	if m := MAPE([]float64{1, 5}, []float64{0, 5}); m != 0 {
		t.Errorf("zero-reference pairs should be skipped, got %v", m)
	}
}

func TestKLBernProperties(t *testing.T) {
	if kl := KLBern(0.3, 0.3); kl > 1e-9 {
		t.Errorf("KL(p‖p) = %v, want 0", kl)
	}
	if KLBern(0.2, 0.8) <= 0 {
		t.Error("KL between distinct distributions must be positive")
	}
	f := func(a, b uint8) bool {
		p := float64(a%100) / 100
		q := 0.01 + 0.98*float64(b%100)/100
		return KLBern(p, q) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestKLBoundsBracketEstimate(t *testing.T) {
	f := func(succ, n uint16, lv uint8) bool {
		nn := int(n%500) + 1
		s := int(succ) % (nn + 1)
		phat := float64(s) / float64(nn)
		level := 0.5 + float64(lv%50)
		lb := KLLowerBound(phat, nn, level)
		ub := KLUpperBound(phat, nn, level)
		return lb <= phat+1e-9 && ub >= phat-1e-9 && lb >= -1e-9 && ub <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestKLBoundsShrinkWithSamples(t *testing.T) {
	phat := 0.7
	level := 3.0
	prevWidth := math.Inf(1)
	for _, n := range []int{10, 100, 1000, 10000} {
		w := KLUpperBound(phat, n, level) - KLLowerBound(phat, n, level)
		if w >= prevWidth {
			t.Errorf("bound width should shrink with n: n=%d width=%v prev=%v", n, w, prevWidth)
		}
		prevWidth = w
	}
}

func TestKLBoundCoverage(t *testing.T) {
	// The true parameter should fall inside the interval with high
	// frequency at a generous level.
	rng := rand.New(rand.NewSource(1))
	trueP := 0.7
	misses := 0
	const trials = 400
	for i := 0; i < trials; i++ {
		n, succ := 200, 0
		for j := 0; j < 200; j++ {
			if rng.Float64() < trueP {
				succ++
			}
		}
		phat := float64(succ) / float64(n)
		level := Beta(1, 1, 0.05)
		if trueP < KLLowerBound(phat, n, level) || trueP > KLUpperBound(phat, n, level) {
			misses++
		}
	}
	if rate := float64(misses) / trials; rate > 0.05 {
		t.Errorf("true parameter escaped the interval %.1f%% of the time", rate*100)
	}
}

func TestBetaIncreasesWithRounds(t *testing.T) {
	if !(Beta(5, 10, 0.05) > Beta(5, 1, 0.05)) {
		t.Error("β must grow with t")
	}
	if !(Beta(50, 10, 0.05) > Beta(5, 10, 0.05)) {
		t.Error("β must grow with the number of arms")
	}
}
