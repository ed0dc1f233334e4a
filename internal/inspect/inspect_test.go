package inspect

import (
	"math"
	"testing"
)

func TestFormatUS(t *testing.T) {
	cases := map[int64]string{
		412:       "412µs",
		1500:      "1.5ms",
		412_300:   "412.3ms",
		2_500_000: "2.50s",
	}
	for us, want := range cases {
		if got := FormatUS(us); got != want {
			t.Errorf("FormatUS(%d) = %q, want %q", us, got, want)
		}
	}
}

func TestSparkline(t *testing.T) {
	nan := math.NaN()
	if got := Sparkline([]float64{0, 1, 2, 4}, 4); got != "▁▂▄█" {
		t.Errorf("ramp = %q", got)
	}
	// Gaps are spaces; everything scales to the window max.
	if got := Sparkline([]float64{nan, 4, nan, 2}, 4); got != " █ ▄" {
		t.Errorf("gaps = %q", got)
	}
	// Narrow window keeps the newest points.
	if got := Sparkline([]float64{9, 9, 0, 4}, 2); got != "▁█" {
		t.Errorf("window = %q", got)
	}
	// Short series right-aligns into the width.
	if got := Sparkline([]float64{4}, 3); got != "  █" {
		t.Errorf("pad = %q", got)
	}
	// All-zero and all-gap windows stay flat/blank, never divide by zero.
	if got := Sparkline([]float64{0, 0}, 2); got != "▁▁" {
		t.Errorf("zeros = %q", got)
	}
	if got := Sparkline([]float64{nan, nan}, 2); got != "  " {
		t.Errorf("all-gap = %q", got)
	}
	if got := Sparkline(nil, 3); got != "   " {
		t.Errorf("empty = %q", got)
	}
}
