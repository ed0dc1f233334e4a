package obs

import (
	"context"
	"testing"
	"time"
)

// TestSpanBufferCommit: a buffered root with children converts to records
// preserving the trace topology and attributes, only at commit time.
func TestSpanBufferCommit(t *testing.T) {
	tr := NewTracer(64, 1<<30) // sampling effectively never fires
	buf := GetSpanBuffer()
	defer PutSpanBuffer(buf)

	ctx, root, trace := tr.StartRootBuffered(context.Background(), "GET /v1/explain", SpanContext{}, buf)
	if root == nil {
		t.Fatal("buffered root must be non-nil even when unsampled")
	}
	if trace.IsZero() {
		t.Fatal("buffered root must mint a trace ID")
	}
	if buf.Sampled() {
		t.Fatal("1-in-2^30 sampling should not have sampled this trace")
	}
	root.Set("http.route", "explain")

	cctx, child := StartSpan(ctx, "stage.predict")
	if child == nil {
		t.Fatal("child of a buffered span must be buffered, not dropped")
	}
	if child.Context().Trace != trace {
		t.Fatal("child must share the root's trace")
	}
	if child.Context().Sampled {
		t.Fatal("buffered child must propagate the real (unsampled) head decision")
	}
	_, grand := StartSpan(cctx, "stage.score")
	grand.Set("k", "v")
	grand.End()
	child.End()
	root.End()

	recs := buf.Records(time.Now())
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	if recs[0].Name != "GET /v1/explain" || recs[0].ParentID != "" {
		t.Fatalf("root record: %+v", recs[0])
	}
	if recs[0].Attrs["http.route"] != "explain" {
		t.Fatalf("root attrs: %+v", recs[0].Attrs)
	}
	if recs[1].Name != "stage.predict" || recs[1].ParentID != recs[0].SpanID {
		t.Fatalf("child record: %+v", recs[1])
	}
	if recs[2].Name != "stage.score" || recs[2].ParentID != recs[1].SpanID || recs[2].Attrs["k"] != "v" {
		t.Fatalf("grandchild record: %+v", recs[2])
	}
	for _, r := range recs {
		if r.TraceID != trace.String() {
			t.Fatalf("record %s carries trace %s, want %s", r.Name, r.TraceID, trace)
		}
	}
}

// TestSpanBufferSampledFlush: a head-sampled buffered request's records
// flush into the tracer's main ring, same as an unbuffered trace.
func TestSpanBufferSampledFlush(t *testing.T) {
	tr := NewTracer(64, 1) // sample everything
	buf := GetSpanBuffer()
	defer PutSpanBuffer(buf)

	ctx, root, trace := tr.StartRootBuffered(context.Background(), "root", SpanContext{}, buf)
	if !buf.Sampled() || !root.Context().Sampled {
		t.Fatal("1-in-1 sampling must mark the buffer sampled")
	}
	_, child := StartSpan(ctx, "child")
	child.End()
	root.End()

	tr.Flush(buf.Records(time.Now()))
	got := tr.Ring().Trace(trace.String())
	if len(got) != 2 {
		t.Fatalf("ring holds %d spans for the trace, want 2", len(got))
	}
}

// TestSpanBufferParentPropagation: an incoming traceparent pins trace ID,
// parent span, and the upstream sampling decision.
func TestSpanBufferParentPropagation(t *testing.T) {
	tr := NewTracer(64, 1<<30)
	buf := GetSpanBuffer()
	defer PutSpanBuffer(buf)

	parent := SpanContext{Trace: NewTraceID(), Span: NewSpanID(), Sampled: true}
	_, root, trace := tr.StartRootBuffered(context.Background(), "root", parent, buf)
	if trace != parent.Trace {
		t.Fatalf("trace = %s, want parent's %s", trace, parent.Trace)
	}
	if !buf.Sampled() {
		t.Fatal("an upstream-sampled trace stays sampled locally")
	}
	root.End()
	recs := buf.Records(time.Now())
	if recs[0].ParentID != parent.Span.String() {
		t.Fatalf("root parent = %q, want %s", recs[0].ParentID, parent.Span)
	}
}

// TestSpanBufferRecycleInvalidatesSpans: writes through a handle that
// outlived its buffer are dropped, not applied to the slot's next life.
func TestSpanBufferRecycleInvalidatesSpans(t *testing.T) {
	tr := NewTracer(64, 1<<30)
	buf := newSpanBuffer() // private buffer: the pool must not see stale handles

	_, stale, _ := tr.StartRootBuffered(context.Background(), "first life", SpanContext{}, buf)
	buf.reset()

	// The recycle window: the buffer was reset but its slots not yet
	// reissued. Writes through the old handle must be dropped here — this
	// is the race PutSpanBuffer exposes when a request goroutine leaks a
	// span past its own end.
	stale.Set("stale", "write")
	stale.End()

	_, fresh, _ := tr.StartRootBuffered(context.Background(), "second life", SpanContext{}, buf)
	fresh.End()

	recs := buf.Records(time.Now())
	if len(recs) != 1 || recs[0].Name != "second life" {
		t.Fatalf("records after recycle: %+v", recs)
	}
	if len(recs[0].Attrs) != 0 {
		t.Fatalf("stale write leaked into the recycled slot: %+v", recs[0].Attrs)
	}
}

// TestSpanBufferArenaOverflow: spans past the arena spill to the heap and
// are still recorded in order.
func TestSpanBufferArenaOverflow(t *testing.T) {
	tr := NewTracer(64, 1<<30)
	buf := GetSpanBuffer()
	defer PutSpanBuffer(buf)

	ctx, root, _ := tr.StartRootBuffered(context.Background(), "root", SpanContext{}, buf)
	n := spanBufferArena + 5
	for i := 1; i < n; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	root.End()
	if got := buf.Len(); got != n {
		t.Fatalf("buffer holds %d spans, want %d", got, n)
	}
	recs := buf.Records(time.Now())
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
	if recs[n-1].Name != "child" || recs[n-1].ParentID != recs[0].SpanID {
		t.Fatalf("overflow span lost its parent: %+v", recs[n-1])
	}
}

// TestSpanBufferSteadyStateAllocs: the buffering machinery for a healthy
// unsampled request — get a buffer, record a root and two children with
// constant attributes, recycle — allocates nothing once the pool is warm.
// (Context propagation via ContextWithSpan is measured separately by the
// service bench gate; here we bound the buffer itself, so spans start
// through the in-package allocator.)
func TestSpanBufferSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool entries, so the pool never stays warm")
	}
	tr := NewTracer(64, 1<<30)
	trace := NewTraceID()
	// Warm the pool and the arena attribute slices.
	warm := func() {
		buf := GetSpanBuffer()
		root := buf.startSpan(tr, trace, SpanID{}, "root", false)
		root.Set("route", "explain")
		c1 := buf.startSpan(tr, trace, root.id, "stage.predict", false)
		c1.Set("cache", "hit")
		c2 := buf.startSpan(tr, trace, c1.id, "stage.score", false)
		c2.End()
		c1.End()
		root.End()
		PutSpanBuffer(buf)
	}
	warm()
	if got := testing.AllocsPerRun(200, warm); got != 0 {
		t.Fatalf("steady-state buffered request allocates %.1f times, want 0", got)
	}
}

// TestOutlierRingNewestFirst: Snapshot returns newest first and reports
// how many commits the ring has seen in total.
func TestOutlierRingNewestFirst(t *testing.T) {
	r := NewOutlierRing(16)
	for i := 0; i < 20; i++ {
		r.Add(OutlierTrace{Status: 500 + i})
	}
	got, seq := r.Snapshot()
	if seq != 20 {
		t.Fatalf("seq = %d, want 20", seq)
	}
	if len(got) != 16 {
		t.Fatalf("ring retains %d, want 16", len(got))
	}
	for i, o := range got {
		if want := 500 + 19 - i; o.Status != want {
			t.Fatalf("snapshot[%d].Status = %d, want %d (newest first)", i, o.Status, want)
		}
	}
}

// TestStartRootBufferedDisabledTracer: with tracing off, the buffered
// entry point degrades to the plain no-op path.
func TestStartRootBufferedDisabledTracer(t *testing.T) {
	var tr *Tracer
	buf := GetSpanBuffer()
	defer PutSpanBuffer(buf)
	ctx := context.Background()
	got, s, trace := tr.StartRootBuffered(ctx, "root", SpanContext{}, buf)
	if got != ctx || s != nil || !trace.IsZero() {
		t.Fatalf("nil tracer: span=%v trace=%s", s, trace)
	}
	if buf.Len() != 0 {
		t.Fatal("disabled tracer must not touch the buffer")
	}
}
