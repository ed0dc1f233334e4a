// Package inspect is the shared rendering for the observability CLIs
// (comet-trace, comet-top): duration formatting, span trees with
// wall-time bars, and unicode sparklines for history series. The CLIs
// fetch through wire.Call like every other client of the HTTP API.
//
// It is deliberately tiny — the CLIs stay single-file tools, and the
// server never imports it.
package inspect

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/comet-explain/comet/internal/obs"
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

// WriteTree renders spans as an indented tree with wall-time bars:
//
//	http.corpus                      2.1ms ▐█────────────────────────────▌ process=coordinator status=202
//	  job.run                      401.3ms ▐─████████████████████████████▌ job_id=job-..-1 state=done
//	    cluster.lease              120.0ms ▐─███████──────────────────────▌ worker=http://127.0.0.1:401
//
// Parentage follows ParentID; spans whose parent is missing from the set
// (aged out of a ring, or the remote process was unreachable) render as
// additional roots. width is the bar width in cells (0 = 30). Attrs
// render sorted by key, so per-explanation profile stages attached as
// span attributes (setup_us, search_us, ...) appear inline.
func WriteTree(w io.Writer, spans []obs.SpanRecord, width int) {
	if len(spans) == 0 {
		return
	}
	if width <= 0 {
		width = 30
	}
	children := make(map[string][]int, len(spans))
	byID := make(map[string]bool, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = true
	}
	var roots []int
	for i, sp := range spans {
		if sp.ParentID != "" && byID[sp.ParentID] {
			children[sp.ParentID] = append(children[sp.ParentID], i)
		} else {
			roots = append(roots, i)
		}
	}

	start := spans[0].Start
	end := spans[0].Start
	for _, sp := range spans {
		if sp.Start.Before(start) {
			start = sp.Start
		}
		if e := spanEnd(sp); e.After(end) {
			end = e
		}
	}
	total := end.Sub(start)
	if total <= 0 {
		total = time.Microsecond
	}

	nameWidth := 0
	var measure func(idx, depth int)
	measure = func(idx, depth int) {
		if n := 2*depth + len(spans[idx].Name); n > nameWidth {
			nameWidth = n
		}
		for _, c := range children[spans[idx].SpanID] {
			measure(c, depth+1)
		}
	}
	for _, r := range roots {
		measure(r, 0)
	}

	var render func(idx, depth int)
	render = func(idx, depth int) {
		sp := spans[idx]
		name := strings.Repeat("  ", depth) + sp.Name
		bar := timeBar(sp, start, total, width)
		fmt.Fprintf(w, "%-*s %10s ▐%s▌%s\n",
			nameWidth, name, FormatUS(sp.DurationUS), bar, attrSuffix(sp))
		for _, c := range children[sp.SpanID] {
			render(c, depth+1)
		}
	}
	for _, r := range roots {
		render(r, 0)
	}
}

func spanEnd(sp obs.SpanRecord) time.Time {
	return sp.Start.Add(time.Duration(sp.DurationUS) * time.Microsecond)
}

// timeBar places the span's wall time on a fixed-width track spanning
// the whole trace.
func timeBar(sp obs.SpanRecord, start time.Time, total time.Duration, width int) string {
	from := int(int64(width) * int64(sp.Start.Sub(start)) / int64(total))
	to := int(int64(width) * int64(spanEnd(sp).Sub(start)) / int64(total))
	if from >= width {
		from = width - 1
	}
	if to <= from {
		to = from + 1 // every span gets at least one visible cell
	}
	if to > width {
		to = width
	}
	var b strings.Builder
	for i := 0; i < width; i++ {
		if i >= from && i < to {
			b.WriteRune('█')
		} else {
			b.WriteRune('─')
		}
	}
	return b.String()
}

// attrSuffix renders " process=... k=v ..." — the process label first,
// then attrs sorted by key.
func attrSuffix(sp obs.SpanRecord) string {
	if sp.Process == "" && len(sp.Attrs) == 0 {
		return ""
	}
	var b strings.Builder
	if sp.Process != "" {
		fmt.Fprintf(&b, " process=%s", sp.Process)
	}
	keys := make([]string, 0, len(sp.Attrs))
	for k := range sp.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		v := sp.Attrs[k]
		if strings.ContainsAny(v, " \t\n\"") || v == "" {
			v = fmt.Sprintf("%q", v)
		}
		fmt.Fprintf(&b, " %s=%s", k, v)
	}
	return b.String()
}
