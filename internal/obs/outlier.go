package obs

// Outlier trace retention. Head sampling (1-in-N by trace ID) is the
// right economics for the hot routes, but it throws away exactly the
// trace you need when a request turns out slow or broken. The fix is
// tail-based: every eligible hot-route request records its spans
// provisionally into a pooled, recycled SpanBuffer regardless of the
// head-sampling decision; at request end the server either commits the
// buffer (to the main ring if head-sampled, to the OutlierRing if the
// request was slow or 5xx) or recycles it untouched.
//
// The buffer is built for a zero-allocation steady state: spans come
// from a preallocated arena, attribute slices keep their capacity across
// recycles, and nothing is hex-encoded or map-boxed until a commit
// actually happens — the overwhelmingly common fast-and-healthy request
// pays a pool Get/Put and struct writes, nothing more. (The interned
// binary warm path skips buffering entirely; see service.instrument.)

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// spanBufferArena is the per-buffer preallocated span count. Requests
// that somehow exceed it fall back to heap spans (still recorded) rather
// than dropping data.
const spanBufferArena = 64

// SpanBuffer holds one request's provisional spans. Obtain from
// GetSpanBuffer, hand to Tracer.StartRootBuffered, and recycle with
// PutSpanBuffer after the request ends. Spans must not be touched after
// their buffer is recycled — a generation counter turns late writes into
// no-ops, but they are bugs in the caller.
type SpanBuffer struct {
	// gen invalidates outstanding *Span handles at recycle time: a span
	// whose captured generation no longer matches drops writes instead of
	// corrupting the arena slot's next occupant.
	gen atomic.Uint64

	mu      sync.Mutex
	sampled bool
	used    int
	arena   []Span
	extra   []*Span // overflow beyond the arena; rare, heap-allocated
}

func newSpanBuffer() *SpanBuffer {
	return &SpanBuffer{arena: make([]Span, spanBufferArena)}
}

var spanBufferPool = sync.Pool{New: func() any { return newSpanBuffer() }}

// GetSpanBuffer fetches a recycled buffer from the shared pool.
func GetSpanBuffer() *SpanBuffer {
	return spanBufferPool.Get().(*SpanBuffer)
}

// PutSpanBuffer invalidates the buffer's spans and returns it to the
// pool. The caller must be done with every *Span the buffer produced.
func PutSpanBuffer(b *SpanBuffer) {
	if b == nil {
		return
	}
	b.reset()
	spanBufferPool.Put(b)
}

func (b *SpanBuffer) reset() {
	b.gen.Add(1)
	b.mu.Lock()
	b.used = 0
	b.sampled = false
	for i := range b.extra {
		b.extra[i] = nil
	}
	b.extra = b.extra[:0]
	b.mu.Unlock()
}

// startSpan hands out the next arena slot (or a heap span past the
// arena), initialized for (trace, parent). Zero-allocation while the
// arena lasts: the slot's attribute slice keeps its capacity from
// previous lives.
func (b *SpanBuffer) startSpan(t *Tracer, trace TraceID, parent SpanID, name string, sampled bool) *Span {
	b.mu.Lock()
	var s *Span
	if b.used < len(b.arena) {
		s = &b.arena[b.used]
		b.used++
	} else {
		s = &Span{}
		b.extra = append(b.extra, s)
	}
	b.mu.Unlock()
	s.tracer = t
	s.trace = trace
	s.id = NewSpanID()
	s.parent = parent
	s.name = name
	s.start = time.Now()
	s.attrs = s.attrs[:0]
	s.ended = false
	s.end = time.Time{}
	s.sampled = sampled
	s.buf = b
	s.bufGen = b.gen.Load()
	return s
}

// Sampled reports the head-sampling decision of the buffered trace.
func (b *SpanBuffer) Sampled() bool {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sampled
}

// Len reports how many spans the buffer holds.
func (b *SpanBuffer) Len() int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.used + len(b.extra)
}

// Records converts the buffered spans to SpanRecords, creation order. A
// span still open at commit time is reported with its duration up to
// now. This is the commit path: it allocates (records, hex IDs, attr
// maps), which is why it only runs for sampled or outlier requests.
func (b *SpanBuffer) Records(now time.Time) []SpanRecord {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]SpanRecord, 0, b.used+len(b.extra))
	for i := 0; i < b.used; i++ {
		out = append(out, b.arena[i].record(now))
	}
	for _, s := range b.extra {
		out = append(out, s.record(now))
	}
	return out
}

// StartRootBuffered is StartRoot for outlier retention: the root span is
// recorded provisionally into buf whether or not the trace is
// head-sampled, and the sampling decision travels on the buffer (and in
// each span's Context, so downstream propagation is unchanged). Returns
// a nil span only when tracing is disabled entirely.
func (t *Tracer) StartRootBuffered(ctx context.Context, name string, parent SpanContext, buf *SpanBuffer) (context.Context, *Span, TraceID) {
	if t == nil || t.sampleN == 0 || buf == nil {
		return t.StartRoot(ctx, name, parent, false)
	}
	var trace TraceID
	var parentID SpanID
	var sampled bool
	if !parent.IsZero() {
		trace, parentID = parent.Trace, parent.Span
		sampled = parent.Sampled
	} else {
		trace = NewTraceID()
		sampled = t.sampled(trace)
	}
	buf.mu.Lock()
	buf.sampled = sampled
	buf.mu.Unlock()
	s := buf.startSpan(t, trace, parentID, name, sampled)
	return ContextWithSpan(ctx, s), s, trace
}

// Flush publishes already-converted span records into the tracer's main
// ring — the commit half of a head-sampled buffered request.
func (t *Tracer) Flush(recs []SpanRecord) {
	if t == nil {
		return
	}
	for _, r := range recs {
		t.ring.add(r)
	}
}

// Outlier commit reasons.
const (
	OutlierSlow  = "slow"  // latency exceeded the slow threshold
	OutlierError = "error" // status ≥ 500
)

// OutlierTrace is one retained slow-or-error request: its identity, the
// outcome that got it committed, and the full span set captured despite
// head sampling.
type OutlierTrace struct {
	TraceID    string    `json:"trace_id"`
	Route      string    `json:"route"`
	Status     int       `json:"status"`
	Reason     string    `json:"reason"` // OutlierSlow or OutlierError
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	// Process labels the recording process in federated views.
	Process string       `json:"process,omitempty"`
	Spans   []SpanRecord `json:"spans,omitempty"`
}

// OutlierRing is the bounded buffer of committed outlier traces, one per
// slow/5xx request, newest overwriting oldest.
type OutlierRing struct {
	ring[OutlierTrace]
}

// NewOutlierRing builds a ring holding size outlier traces (minimum 16).
func NewOutlierRing(size int) *OutlierRing {
	if size < 16 {
		size = 16
	}
	return &OutlierRing{newRing[OutlierTrace](size)}
}

// Add commits one outlier trace.
func (r *OutlierRing) Add(t OutlierTrace) {
	if r == nil {
		return
	}
	r.add(t)
}

// Snapshot returns the retained outliers newest-first, plus the total
// ever committed (so readers can tell how much the ring has forgotten).
func (r *OutlierRing) Snapshot() ([]OutlierTrace, uint64) {
	if r == nil {
		return nil, 0
	}
	out, written := r.snapshot()
	slices.Reverse(out)
	return out, written
}
