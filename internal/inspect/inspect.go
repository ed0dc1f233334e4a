// Package inspect is the shared rendering for the observability CLIs
// (comet-trace, comet-top): duration formatting and unicode sparklines
// for history series. The CLIs fetch through wire.Call like every other
// client of the HTTP API.
//
// It is deliberately tiny and stdlib-only — the CLIs stay single-file
// tools, and the server never imports it.
package inspect

import (
	"fmt"
	"math"
	"strings"
	"time"
)

// FormatUS renders a microsecond duration the way the dashboards do:
// µs below a millisecond, one-decimal ms below a second, seconds above.
func FormatUS(us int64) string {
	d := time.Duration(us) * time.Microsecond
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%dµs", us)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(us)/1000)
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// sparkLevels are the eight block-element heights of a sparkline cell.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders values as one unicode cell per point, scaled to the
// window's own max (a flat nonzero series renders low, not tall — the
// eye reads shape, not absolute height). NaN points (series gaps: idle
// ticks, pre-registration history) render as spaces. An all-gap or
// empty window is all spaces, width cells wide.
func Sparkline(values []float64, width int) string {
	if width <= 0 {
		width = len(values)
	}
	// Keep the newest points when the window is narrower than the data.
	if len(values) > width {
		values = values[len(values)-width:]
	}
	max := 0.0
	for _, v := range values {
		if !math.IsNaN(v) && v > max {
			max = v
		}
	}
	var sb strings.Builder
	for i := 0; i < width-len(values); i++ {
		sb.WriteByte(' ')
	}
	for _, v := range values {
		switch {
		case math.IsNaN(v):
			sb.WriteByte(' ')
		case max == 0:
			sb.WriteRune(sparkLevels[0])
		default:
			idx := int(v / max * float64(len(sparkLevels)-1))
			if idx < 0 {
				idx = 0
			}
			if idx >= len(sparkLevels) {
				idx = len(sparkLevels) - 1
			}
			sb.WriteRune(sparkLevels[idx])
		}
	}
	return sb.String()
}
