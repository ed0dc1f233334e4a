package obs

import (
	"testing"
	"time"
)

func fedSpan(id, parent, name string, start time.Time, durUS int64) SpanRecord {
	return SpanRecord{
		TraceID: "t0", SpanID: id, ParentID: parent, Name: name,
		Start: start, DurationUS: durUS,
	}
}

func TestMergeSpansDedupesAndOrders(t *testing.T) {
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	coord := []SpanRecord{
		fedSpan("aa", "", "http.corpus", base, 5000),
		fedSpan("bb", "aa", "job.run", base.Add(time.Millisecond), 4000),
	}
	worker := []SpanRecord{
		fedSpan("cc", "bb", "svc.shard", base.Add(2*time.Millisecond), 1000),
		// Straggler re-dispatch: the same span reported twice; first
		// occurrence (from coord's group) must win.
		{TraceID: "t0", SpanID: "bb", Name: "job.run.DUPLICATE", Start: base},
		{TraceID: "t0", SpanID: "", Name: "empty-id-dropped", Start: base},
	}
	merged := MergeSpans(coord, worker)
	if len(merged) != 3 {
		t.Fatalf("merged %d spans, want 3: %+v", len(merged), merged)
	}
	var names []string
	for _, sp := range merged {
		names = append(names, sp.Name)
	}
	want := []string{"http.corpus", "job.run", "svc.shard"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("merged order %v, want %v", names, want)
		}
	}
}

func TestMergeSpansTieBreaksBySpanID(t *testing.T) {
	base := time.Date(2026, 8, 8, 10, 0, 0, 0, time.UTC)
	merged := MergeSpans([]SpanRecord{
		fedSpan("zz", "", "late-id", base, 10),
		fedSpan("aa", "", "early-id", base, 10),
	})
	if merged[0].SpanID != "aa" || merged[1].SpanID != "zz" {
		t.Errorf("equal-start spans not ordered by span ID: %+v", merged)
	}
}
