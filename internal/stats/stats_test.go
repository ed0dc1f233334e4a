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

// TestKLBoundCoverage checks the Chernoff tail the certification test
// rests on: n draws at true precision p yield an estimate p̂ > p with
// n·KL(p̂‖p) ≥ L (the test would certify p̂ against the threshold p) at
// most e^−L of the time, here δ/ζ(1.1) at the one-arm, one-round level.
func TestKLBoundCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const (
		trueP  = 0.7
		n      = 200
		trials = 400
	)
	level := CertLevel(1, 1, 1, 0.05)
	falseCerts := 0
	for i := 0; i < trials; i++ {
		succ := 0
		for j := 0; j < n; j++ {
			if rng.Float64() < trueP {
				succ++
			}
		}
		phat := float64(succ) / n
		if phat > trueP && n*KLBern(phat, trueP) >= level {
			falseCerts++
		}
	}
	if rate := float64(falseCerts) / trials; rate > 0.05 {
		t.Errorf("the divergence test certified above the true precision %.1f%% of the time", rate*100)
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
