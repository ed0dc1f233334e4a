package obs_test

import (
	"strings"
	"testing"
	"time"

	"github.com/comet-explain/comet/internal/inspect"
	"github.com/comet-explain/comet/internal/obs"
)

// TestFormatDuration checks that a span's recorded DurationUS reaches the
// rendered federation tree human-first (µs/ms/s), as cmd/comet-trace
// prints it through inspect.WriteTree.
func TestFormatDuration(t *testing.T) {
	start := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	for _, tc := range []struct {
		us   int64
		want string
	}{
		{5, "5µs"},
		{999, "999µs"},
		{1500, "1.5ms"},
		{2_340_000, "2.34s"},
	} {
		var b strings.Builder
		inspect.WriteTree(&b, []obs.SpanRecord{{
			TraceID: "t0", SpanID: "aa", Name: "root", Start: start, DurationUS: tc.us,
		}}, 10)
		if got := strings.Fields(b.String()); len(got) < 2 || got[1] != tc.want {
			t.Errorf("duration %dµs rendered %q, want column %q", tc.us, b.String(), tc.want)
		}
	}
}
