package obs

import (
	"context"
	"encoding/binary"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer mints and records spans. Sampling is decided once per trace,
// deterministically from the trace ID, so every process in a cluster
// agrees on whether a trace is recorded without coordinating: a sampled
// coordinator trace is sampled on every worker it touches.
type Tracer struct {
	ring *Ring
	// sampleN is the hot-route sampling rate: 0 disables tracing
	// entirely, 1 records every trace, N records roughly one in N.
	// Routes that matter individually (jobs, shards, cluster ops) force
	// sampling regardless.
	sampleN uint64
}

// NewTracer builds a tracer recording finished spans into a ring of
// ringSize spans (minimum 64), sampling one in sampleN hot-route traces.
func NewTracer(ringSize int, sampleN uint64) *Tracer {
	if ringSize < 64 {
		ringSize = 64
	}
	return &Tracer{ring: &Ring{newRing[SpanRecord](ringSize)}, sampleN: sampleN}
}

// Enabled reports whether the tracer records anything at all.
func (t *Tracer) Enabled() bool { return t != nil && t.sampleN > 0 }

// Ring exposes the span ring for the /debug/traces handler.
func (t *Tracer) Ring() *Ring {
	if t == nil {
		return nil
	}
	return t.ring
}

// sampled is the deterministic per-trace sampling decision.
func (t *Tracer) sampled(id TraceID) bool {
	if t == nil || t.sampleN == 0 {
		return false
	}
	if t.sampleN == 1 {
		return true
	}
	return binary.LittleEndian.Uint64(id[8:])%t.sampleN == 0
}

// StartRoot begins the root span of a request. parent is the parsed
// incoming traceparent (zero when the request starts a new trace); force
// records the trace regardless of the sampling rate (debug endpoints,
// ?profile=1, job submissions). The returned trace ID is valid even when
// the trace is unsampled — the X-Comet-Trace-Id response header always
// carries it — and the returned span is nil (and ctx untouched, costing
// nothing) for unsampled traces.
func (t *Tracer) StartRoot(ctx context.Context, name string, parent SpanContext, force bool) (context.Context, *Span, TraceID) {
	if t == nil || t.sampleN == 0 {
		return ctx, nil, TraceID{}
	}
	var trace TraceID
	var parentID SpanID
	var record bool
	if !parent.IsZero() {
		trace, parentID = parent.Trace, parent.Span
		record = parent.Sampled || force
	} else {
		trace = NewTraceID()
		record = force || t.sampled(trace)
	}
	if !record {
		return ctx, nil, trace
	}
	s := &Span{
		tracer:  t,
		trace:   trace,
		id:      NewSpanID(),
		parent:  parentID,
		name:    name,
		start:   time.Now(),
		sampled: true,
	}
	return ContextWithSpan(ctx, s), s, trace
}

// Resume begins a span parented on a stored or remote span context — the
// async half of a trace: a queued corpus job resuming after its accepting
// request finished, or a worker lease carrying the coordinator's span.
// Returns (ctx, nil) when parent is unsampled or zero.
func (t *Tracer) Resume(ctx context.Context, name string, parent SpanContext) (context.Context, *Span) {
	if t == nil || t.sampleN == 0 || parent.IsZero() || !parent.Sampled {
		return ctx, nil
	}
	s := &Span{
		tracer:  t,
		trace:   parent.Trace,
		id:      NewSpanID(),
		parent:  parent.Span,
		name:    name,
		start:   time.Now(),
		sampled: true,
	}
	return ContextWithSpan(ctx, s), s
}

// StartSpan begins a child of the span active in ctx. When ctx carries no
// sampled span this is two pointer loads and returns (ctx, nil): stage
// spans in the core engine cost nothing for unsampled requests. A child
// of a buffered span is allocated from the same buffer, so outlier
// retention captures the full stage tree.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	if parent.buf != nil {
		s := parent.buf.startSpan(parent.tracer, parent.trace, parent.id, name, parent.sampled)
		return ContextWithSpan(ctx, s), s
	}
	s := &Span{
		tracer:  parent.tracer,
		trace:   parent.trace,
		id:      NewSpanID(),
		parent:  parent.id,
		name:    name,
		start:   time.Now(),
		sampled: true,
	}
	return ContextWithSpan(ctx, s), s
}

// Span is one recorded operation. Attributes are set by the goroutine
// that owns the span; End publishes it to the tracer's ring — or, for a
// buffered span (outlier retention), marks it finished in its SpanBuffer
// for the commit decision at request end. All methods are nil-safe so
// call sites never branch on sampling.
type Span struct {
	tracer *Tracer
	trace  TraceID
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	// sampled is the head-sampling decision the span propagates. Ring
	// spans are sampled by definition; buffered spans exist regardless of
	// sampling and must not upgrade downstream hops.
	sampled bool
	// buf, when non-nil, is the SpanBuffer this span lives in; bufGen is
	// the buffer generation at allocation, so writes after the buffer was
	// recycled become no-ops instead of corrupting the slot's next life.
	buf    *SpanBuffer
	bufGen uint64

	mu    sync.Mutex
	attrs []attr
	ended bool
	end   time.Time // set by End
}

type attr struct{ key, value string }

// expired reports whether a buffered span outlived its buffer.
func (s *Span) expired() bool {
	return s.buf != nil && s.buf.gen.Load() != s.bufGen
}

// Context returns the span's propagation fragment, carrying the trace's
// head-sampling decision.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{Trace: s.trace, Span: s.id, Sampled: s.sampled}
}

// TraceID returns the span's trace ID, or the zero ID for a nil span.
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace
}

// Set attaches a string attribute.
func (s *Span) Set(key, value string) {
	if s == nil || s.expired() {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attr{key, value})
	s.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	s.Set(key, strconv.FormatInt(v, 10))
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	s.Set(key, strconv.FormatBool(v))
}

// SetErr attaches err as the span's "error" attribute when non-nil.
func (s *Span) SetErr(err error) {
	if s == nil || err == nil {
		return
	}
	s.Set("error", err.Error())
}

// End finishes the span. A ring span publishes to the tracer's ring; a
// buffered span just records its end time — whether it ever becomes a
// SpanRecord is decided when its buffer commits. Safe to call more than
// once; only the first call records.
func (s *Span) End() {
	if s == nil || s.expired() {
		return
	}
	s.mu.Lock()
	first := !s.ended
	if first {
		s.ended, s.end = true, time.Now()
	}
	s.mu.Unlock()
	if first && s.buf == nil {
		s.tracer.ring.add(s.record(s.end))
	}
}

// record converts a span to its SpanRecord: at End for a ring span, at
// commit time for a buffered one. A span still open is reported with its
// duration up to now.
func (s *Span) record(now time.Time) SpanRecord {
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = now
	}
	var attrs map[string]string
	if len(s.attrs) > 0 {
		attrs = make(map[string]string, len(s.attrs))
		for _, a := range s.attrs {
			attrs[a.key] = a.value
		}
	}
	s.mu.Unlock()
	return SpanRecord{
		TraceID:    s.trace.String(),
		SpanID:     s.id.String(),
		ParentID:   parentString(s.parent),
		Name:       s.name,
		Start:      s.start,
		DurationUS: end.Sub(s.start).Microseconds(),
		Attrs:      attrs,
	}
}

func parentString(p SpanID) string {
	if p.IsZero() {
		return ""
	}
	return p.String()
}

// SpanRecord is a finished span as served by GET /debug/traces.
type SpanRecord struct {
	TraceID    string            `json:"trace_id"`
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationUS int64             `json:"duration_us"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	// Process labels which process recorded the span in a federated
	// (cross-process) trace view; empty in a single process's own ring.
	Process string `json:"process,omitempty"`
}

// TraceSummary is one trace in the GET /debug/traces listing.
type TraceSummary struct {
	TraceID string    `json:"trace_id"`
	Root    string    `json:"root"` // name of the oldest span (the best root guess in a ring)
	Spans   int       `json:"spans"`
	Start   time.Time `json:"start"`
	// DurationUS covers first span start to last span end — wall clock of
	// everything the ring still holds for this trace.
	DurationUS int64 `json:"duration_us"`
}

// Ring is a bounded buffer of finished spans. Old spans are overwritten;
// a trace that outlives the ring simply loses its oldest spans.
type Ring struct {
	ring[SpanRecord]
}

// spans returns the ring contents oldest-first.
func (r *Ring) spans() []SpanRecord {
	if r == nil {
		return nil
	}
	out, _ := r.snapshot()
	return out
}

// Traces lists the traces currently in the ring, most recent first,
// capped at limit (0 means no cap).
func (r *Ring) Traces(limit int) []TraceSummary {
	spans := r.spans()
	byTrace := make(map[string]*TraceSummary)
	lastEnd := make(map[string]time.Time)
	var order []string // trace IDs by first (oldest) appearance
	for _, sp := range spans {
		end := sp.Start.Add(time.Duration(sp.DurationUS) * time.Microsecond)
		ts, ok := byTrace[sp.TraceID]
		if !ok {
			ts = &TraceSummary{TraceID: sp.TraceID, Root: sp.Name, Start: sp.Start}
			byTrace[sp.TraceID] = ts
			order = append(order, sp.TraceID)
		}
		ts.Spans++
		if sp.Start.Before(ts.Start) {
			ts.Start, ts.Root = sp.Start, sp.Name
		}
		if end.After(lastEnd[sp.TraceID]) {
			lastEnd[sp.TraceID] = end
		}
	}
	out := make([]TraceSummary, 0, len(byTrace))
	for i := len(order) - 1; i >= 0; i-- { // most recent trace first
		ts := *byTrace[order[i]]
		ts.DurationUS = lastEnd[ts.TraceID].Sub(ts.Start).Microseconds()
		out = append(out, ts)
		if limit > 0 && len(out) == limit {
			break
		}
	}
	return out
}

// Trace returns every span the ring holds for one trace ID, oldest
// first, with ties broken by span ID for deterministic output.
func (r *Ring) Trace(id string) []SpanRecord {
	var out []SpanRecord
	for _, sp := range r.spans() {
		if sp.TraceID == id {
			out = append(out, sp)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].SpanID < out[j].SpanID
	})
	return out
}
