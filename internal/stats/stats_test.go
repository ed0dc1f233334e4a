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
		level := CertLevel(1, 1, 1, 0.05)
		if trueP < KLLowerBound(phat, n, level) || trueP > KLUpperBound(phat, n, level) {
			misses++
		}
	}
	if rate := float64(misses) / trials; rate > 0.05 {
		t.Errorf("true parameter escaped the interval %.1f%% of the time", rate*100)
	}
}

func TestCertLevelGrowsWithArmsRoundsAndLevels(t *testing.T) {
	if l := CertLevel(1, 1, 4, 0.05); math.Abs(l-math.Log(10.5845*4/0.05)) > 1e-12 || l > 6.75 {
		t.Errorf("CertLevel(1, 1, 4, 0.05) = %v, want ln(ζ(1.1)·4/0.05) ≈ 6.74", l)
	}
	if !(CertLevel(5, 10, 4, 0.05) > CertLevel(5, 1, 4, 0.05)) {
		t.Error("the level must grow with the round")
	}
	if !(CertLevel(50, 10, 4, 0.05) > CertLevel(5, 10, 4, 0.05)) {
		t.Error("the level must grow with the number of arms")
	}
	if !(CertLevel(5, 10, 4, 0.05) > CertLevel(5, 10, 1, 0.05)) {
		t.Error("the level must grow with the number of levels")
	}
	if !(CertLevel(5, 10, 4, 0.01) > CertLevel(5, 10, 4, 0.05)) {
		t.Error("the level must grow as δ shrinks")
	}
}

// TestZeta11RoundsUp: the round weights t^−1.1/zeta11 may sum to at most
// 1, so zeta11 must not be below ζ(1.1). ζ(1.1) is summed to n−1 and the
// tail added by Euler–Maclaurin, whose next term is below 1e-12 here.
func TestZeta11RoundsUp(t *testing.T) {
	const s, n = 1.1, 1000
	zeta := 0.0
	for k := 1; k < n; k++ {
		zeta += math.Pow(float64(k), -s)
	}
	zeta += math.Pow(n, 1-s)/(s-1) + math.Pow(n, -s)/2 + s*math.Pow(n, -s-1)/12
	if zeta11 < zeta || zeta11-zeta > 1e-4 {
		t.Errorf("zeta11 = %v, ζ(1.1) = %.8f: want the nearest 4-decimal value above", zeta11, zeta)
	}
}
