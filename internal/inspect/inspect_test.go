package inspect

import (
	"math"
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/obs"
)

func TestFormatUS(t *testing.T) {
	cases := map[int64]string{
		5:         "5µs",
		412:       "412µs",
		999:       "999µs",
		1500:      "1.5ms",
		412_300:   "412.3ms",
		2_340_000: "2.34s",
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

func treeSpan(id, parent, name string, start time.Time, durUS int64) obs.SpanRecord {
	return obs.SpanRecord{
		TraceID: "t0", SpanID: id, ParentID: parent, Name: name,
		Start: start, DurationUS: durUS,
	}
}

func TestWriteTreeRendersHierarchyAndAttrs(t *testing.T) {
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	root := treeSpan("aa", "", "http.corpus", base, 4000)
	root.Process = "coordinator"
	child := treeSpan("bb", "aa", "job.run", base.Add(time.Millisecond), 3000)
	child.Attrs = map[string]string{"job_id": "job-1", "blocks": "8"}
	grand := treeSpan("cc", "bb", "svc.shard", base.Add(2*time.Millisecond), 1000)
	grand.Process = "http://127.0.0.1:9999"
	orphan := treeSpan("dd", "gone", "core.search", base.Add(time.Millisecond), 500)

	var b strings.Builder
	WriteTree(&b, obs.MergeSpans([]obs.SpanRecord{root, child, grand, orphan}), 20)
	out := b.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "http.corpus") {
		t.Errorf("root not first:\n%s", out)
	}
	if !strings.Contains(lines[0], "process=coordinator") {
		t.Errorf("process label missing from root line:\n%s", out)
	}
	// Children indent two spaces per depth.
	childLine, grandLine := "", ""
	for _, l := range lines {
		if strings.Contains(l, "job.run") {
			childLine = l
		}
		if strings.Contains(l, "svc.shard") {
			grandLine = l
		}
	}
	if !strings.HasPrefix(childLine, "  job.run") {
		t.Errorf("child not indented once: %q", childLine)
	}
	if !strings.HasPrefix(grandLine, "    svc.shard") {
		t.Errorf("grandchild not indented twice: %q", grandLine)
	}
	// Attrs render sorted by key.
	if b := strings.Index(childLine, "blocks=8"); b < 0 || b > strings.Index(childLine, "job_id=job-1") {
		t.Errorf("attrs missing or unsorted: %q", childLine)
	}
	// An orphan (parent aged out) renders as an extra root, not vanishes.
	orphanLine := ""
	for _, l := range lines {
		if strings.Contains(l, "core.search") {
			orphanLine = l
		}
	}
	if !strings.HasPrefix(orphanLine, "core.search") {
		t.Errorf("orphan span not rendered as a root: %q", orphanLine)
	}
	// Every line carries a wall-time bar.
	for _, l := range lines {
		if !strings.Contains(l, "▐") || !strings.Contains(l, "▌") {
			t.Errorf("line missing time bar: %q", l)
		}
	}
}

func TestWriteTreeEmptyAndZeroDuration(t *testing.T) {
	var b strings.Builder
	WriteTree(&b, nil, 30)
	if b.Len() != 0 {
		t.Errorf("empty span set rendered output: %q", b.String())
	}
	// All spans at the same instant with zero duration must not divide by
	// zero and still show one visible bar cell.
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	WriteTree(&b, []obs.SpanRecord{treeSpan("aa", "", "instant", base, 0)}, 10)
	if !strings.Contains(b.String(), "█") {
		t.Errorf("zero-duration span has no visible bar: %q", b.String())
	}
}
