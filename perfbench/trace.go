package main

import (
	"encoding/json"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// The traced run's instruments. Everything here wraps a public interface
// at a layer boundary (costmodel.BatchModel, persist.Store) or records
// spans around the benchmark's own calls; no program code is changed.

// span is one recorded interval. Spans of one explanation or request
// share a trace ID; nesting is recovered from the intervals (see
// selfTimes), so recorders need not know their parent.
type span struct {
	Trace string `json:"trace"`
	Name  string `json:"name"`
	Start int64  `json:"start_ns"` // since the recorder's epoch
	End   int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(trace, name string, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{Trace: trace, Name: name,
		Start: start.Sub(l.epoch).Nanoseconds(), End: end.Sub(l.epoch).Nanoseconds()})
	l.mu.Unlock()
}

// keep drops every span whose trace is not listed.
func (l *spanLog) keep(traces []string) {
	want := make(map[string]bool, len(traces))
	for _, t := range traces {
		want[t] = true
	}
	kept := l.spans[:0]
	for _, s := range l.spans {
		if want[s.Trace] {
			kept = append(kept, s)
		}
	}
	l.spans = kept
}

// addRecords imports spans the program's own obs.Tracer recorded.
func (l *spanLog) addRecords(recs []obs.SpanRecord) {
	for _, r := range recs {
		l.add(r.TraceID, r.Name, r.Start, r.Start.Add(time.Duration(r.DurationUS)*time.Microsecond))
	}
}

// selfTimes nests each trace's spans by interval containment (a span's
// parent is the innermost earlier span of its trace that contains it) and
// returns, per span name, the summed self time: the span's duration minus
// the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	byTrace := map[string][]span{}
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	out := map[string]time.Duration{}
	for _, ss := range byTrace {
		// By start, longest first, so a containing span precedes what it
		// contains and a stack of open spans yields each span's parent.
		sort.Slice(ss, func(i, j int) bool {
			if ss[i].Start != ss[j].Start {
				return ss[i].Start < ss[j].Start
			}
			return ss[i].End > ss[j].End
		})
		children := make([][]span, len(ss))
		var open []int
		for i, s := range ss {
			for len(open) > 0 && ss[open[len(open)-1]].End < s.End {
				open = open[:len(open)-1]
			}
			if len(open) > 0 {
				p := open[len(open)-1]
				children[p] = append(children[p], s)
			}
			open = append(open, i)
		}
		for i, s := range ss {
			out[s.Name] += time.Duration(s.End - s.Start - covered(children[i]))
		}
	}
	return out
}

// covered is the length of the union of the spans' intervals.
func covered(ss []span) int64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var total, curStart, curEnd int64 = 0, 0, -1
	for _, s := range ss {
		if s.Start > curEnd {
			if curEnd >= curStart {
				total += curEnd - curStart
			}
			curStart, curEnd = s.Start, s.End
		} else if s.End > curEnd {
			curEnd = s.End
		}
	}
	if curEnd >= curStart {
		total += curEnd - curStart
	}
	return total
}

// write dumps the spans as JSON lines.
func (l *spanLog) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// modelStats accumulates what the timing model saw.
type modelStats struct {
	busy    atomic.Int64 // ns inside the wrapped model
	blocks  atomic.Int64
	batches atomic.Int64
}

// reset zeroes the counters (between set-up and the timed region).
func (s *modelStats) reset() {
	s.busy.Store(0)
	s.blocks.Store(0)
	s.batches.Store(0)
}

// timingModel is a costmodel.BatchModel that times every call into the
// wrapped model and records a "model.predict_batch" span under trace.
type timingModel struct {
	inner costmodel.BatchModel
	stats *modelStats
	spans *spanLog
	trace string
}

func (m *timingModel) Name() string   { return m.inner.Name() }
func (m *timingModel) Arch() x86.Arch { return m.inner.Arch() }

func (m *timingModel) Predict(b *x86.BasicBlock) float64 {
	return m.PredictBatch([]*x86.BasicBlock{b})[0]
}

func (m *timingModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	start := time.Now()
	out := m.inner.PredictBatch(blocks)
	end := time.Now()
	m.stats.busy.Add(end.Sub(start).Nanoseconds())
	m.stats.blocks.Add(int64(len(blocks)))
	m.stats.batches.Add(1)
	if m.trace != "" {
		m.spans.add(m.trace, "model.predict_batch", start, end)
	}
	return out
}

// forTrace returns a copy recording spans under one trace.
func (m *timingModel) forTrace(trace string) *timingModel {
	c := *m
	c.trace = trace
	return &c
}

// WithTraceparent lets the service hand the wrapper its request's trace
// context (the hook remote models use to propagate traces), so model
// spans join the request's trace.
func (m *timingModel) WithTraceparent(tp string) costmodel.Model {
	sc, ok := obs.ParseTraceparent(tp)
	if !ok {
		return m
	}
	return m.forTrace(sc.Trace.String())
}

// timingStore is a persist.Store that times every Put.
type timingStore struct {
	persist.Store
	mu   sync.Mutex
	puts []float64 // µs
}

func (s *timingStore) Put(rec *wire.Record) error {
	start := time.Now()
	err := s.Store.Put(rec)
	us := float64(time.Since(start).Nanoseconds()) / 1e3
	s.mu.Lock()
	s.puts = append(s.puts, us)
	s.mu.Unlock()
	return err
}

// reset drops the latencies recorded so far.
func (s *timingStore) reset() {
	s.mu.Lock()
	s.puts = nil
	s.mu.Unlock()
}

// putLatencies returns a copy of the recorded Put latencies (µs).
func (s *timingStore) putLatencies() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.puts...)
}

// heapSampler tracks the peak live heap while running: the bytes the
// latest GC cycle marked live, which, unlike the momentary heap size,
// does not depend on where in a GC cycle a sample happens to fall.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	go func() {
		defer close(h.done)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			rtmetrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// finish stops the sampler and returns the peak in MiB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}

// allocCounter reads cumulative heap allocations (objects, bytes).
func allocCounter() (objects, bytes uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs, ms.TotalAlloc
}
