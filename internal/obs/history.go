package obs

// Telemetry history: a background sampler that snapshots live counters
// and gauges into fixed-size per-series rings, so /metrics stops being
// point-in-time — a traffic spike, a cache-hit collapse, or a latency
// regression is visible for the retention window even when no external
// scraper was attached. Storage is allocation-bounded: every series owns
// one []float64 ring sized at construction; a sample writes one slot per
// series and allocates nothing.
//
// Three series kinds cover everything the service exposes:
//
//   - gauge: the reader's value is stored as-is (queue depth, goroutines).
//   - rate: the reader returns a monotonic counter; the stored point is
//     the per-second rate over the tick, computed server-side so clients
//     never see raw counters. A counter reset (restart of the underlying
//     structure) yields the new count over one tick, not a negative rate.
//   - value: the reader returns (value, ok); !ok stores a gap (NaN,
//     serialized as null) — per-tick quantiles and hit rates are undefined
//     on ticks with no traffic, and the history says so instead of lying
//     with a zero.

import (
	"math"
	"sort"
	"strconv"
	"sync"
	"time"
)

// SeriesKind classifies how a history series' points were derived.
type SeriesKind string

const (
	SeriesGauge SeriesKind = "gauge"
	SeriesRate  SeriesKind = "rate"
	SeriesValue SeriesKind = "value"
)

// History holds the per-series rings and the sampling loop. Construct
// with NewHistory, register series, then Start the background sampler
// (or call Sample directly — tests and single-shot tools do).
type History struct {
	mu       sync.Mutex
	interval time.Duration
	size     int
	samples  uint64 // total ticks ever taken
	series   map[string]*histSeries

	// BeforeSample, when set, runs at the start of every Sample, outside
	// the history lock — the hook where dynamic series (per model spec,
	// per tenant) are registered as they appear. Set it before Start.
	BeforeSample func()

	started  bool
	stop     chan struct{}
	stopOnce sync.Once
}

type histSeries struct {
	name    string
	kind    SeriesKind
	read    func() float64         // gauge and rate kinds
	value   func() (float64, bool) // value kind
	prev    float64                // last raw counter value (rate kind)
	hasPrev bool
	points  []float64 // ring, NaN where never sampled
}

// NewHistory builds a history retaining size samples per series (minimum
// 16) at the given interval (minimum 1ms; the interval is also the rate
// denominator, so it must reflect the real cadence of Sample calls).
func NewHistory(size int, interval time.Duration) *History {
	if size < 16 {
		size = 16
	}
	if interval < time.Millisecond {
		interval = time.Second
	}
	return &History{
		interval: interval,
		size:     size,
		series:   make(map[string]*histSeries),
		stop:     make(chan struct{}),
	}
}

// Gauge registers a series storing read() as-is each tick. Registering a
// name twice is a no-op (the first registration wins), so dynamic
// registration hooks can re-offer known series every tick.
func (h *History) Gauge(name string, read func() float64) {
	h.register(&histSeries{name: name, kind: SeriesGauge, read: read})
}

// Rate registers a series over a monotonic counter: each tick stores
// (current − previous) / interval. The first tick after registration has
// no baseline and stores a gap; a counter reset stores current/interval.
func (h *History) Rate(name string, read func() float64) {
	h.register(&histSeries{name: name, kind: SeriesRate, read: read})
}

// Value registers a series whose reader computes the point itself
// (per-tick quantiles, hit ratios); !ok stores a gap.
func (h *History) Value(name string, read func() (float64, bool)) {
	h.register(&histSeries{name: name, kind: SeriesValue, value: read})
}

func (h *History) register(s *histSeries) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.series[s.name]; ok {
		return
	}
	s.points = make([]float64, h.size)
	for i := range s.points {
		s.points[i] = math.NaN()
	}
	h.series[s.name] = s
}

// Sample takes one synchronous sample of every series. The background
// loop calls it each tick; tests and snapshot tools call it directly.
func (h *History) Sample() {
	if h == nil {
		return
	}
	if fn := h.BeforeSample; fn != nil {
		fn() // outside the lock: the hook registers series
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	slot := int(h.samples % uint64(h.size))
	secs := h.interval.Seconds()
	for _, s := range h.series {
		s.points[slot] = s.sample(secs)
	}
	h.samples++
}

func (s *histSeries) sample(intervalSecs float64) float64 {
	switch s.kind {
	case SeriesGauge:
		return s.read()
	case SeriesRate:
		raw := s.read()
		prev, had := s.prev, s.hasPrev
		s.prev, s.hasPrev = raw, true
		if !had {
			return math.NaN()
		}
		delta := raw - prev
		if delta < 0 {
			// Counter reset: the new count is everything we know about
			// this tick. Never emit a negative rate.
			delta = raw
		}
		return delta / intervalSecs
	case SeriesValue:
		v, ok := s.value()
		if !ok {
			return math.NaN()
		}
		return v
	}
	return math.NaN()
}

// Start launches the background sampling goroutine. Idempotent; pair
// with Stop.
func (h *History) Start() {
	h.mu.Lock()
	if h.started {
		h.mu.Unlock()
		return
	}
	h.started = true
	h.mu.Unlock()
	go func() {
		t := time.NewTicker(h.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				h.Sample()
			case <-h.stop:
				return
			}
		}
	}()
}

// Stop terminates the background sampler. Safe to call more than once,
// and before Start.
func (h *History) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
}

// Point is one history sample; NaN marshals as JSON null (a gap), since
// NaN is not representable in JSON.
type Point float64

// MarshalJSON renders NaN/±Inf as null.
func (p Point) MarshalJSON() ([]byte, error) {
	v := float64(p)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

// UnmarshalJSON accepts null as NaN.
func (p *Point) UnmarshalJSON(data []byte) error {
	if string(data) == "null" {
		*p = Point(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(data), 64)
	if err != nil {
		return err
	}
	*p = Point(v)
	return nil
}

// Points is a series' sample window, oldest first.
type Points []Point

// HistorySeries is one series in a HistoryDump.
type HistorySeries struct {
	Name string     `json:"name"`
	Kind SeriesKind `json:"kind"`
	// Last is the most recent point (null when the series has no samples
	// yet or the last tick was a gap).
	Last   Point  `json:"last"`
	Points Points `json:"points"`
}

// HistoryDump is the JSON document served by GET /debug/history: every
// series' retained window, oldest point first, all windows aligned on
// the same ticks.
type HistoryDump struct {
	// Process labels the sampled process in federated views.
	Process string `json:"process,omitempty"`
	// IntervalMS is the tick cadence; point i+1 was taken IntervalMS
	// after point i.
	IntervalMS int64 `json:"interval_ms"`
	// Retention is the ring size: the maximum points a series holds.
	Retention int `json:"retention"`
	// Samples is the total ticks ever taken; when it exceeds the window
	// length the ring has forgotten the difference.
	Samples uint64          `json:"samples"`
	Now     time.Time       `json:"now"`
	Series  []HistorySeries `json:"series"`
}

// Dump snapshots every series, names sorted, points oldest first.
func (h *History) Dump(process string) HistoryDump {
	out := HistoryDump{Process: process, Now: time.Now().UTC()}
	if h == nil {
		return out
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	out.IntervalMS = h.interval.Milliseconds()
	out.Retention = h.size
	out.Samples = h.samples
	names := make([]string, 0, len(h.series))
	for name := range h.series {
		names = append(names, name)
	}
	sort.Strings(names)
	n := h.size
	if h.samples < uint64(n) {
		n = int(h.samples)
	}
	out.Series = make([]HistorySeries, 0, len(names))
	for _, name := range names {
		s := h.series[name]
		pts := make(Points, n)
		for i := 0; i < n; i++ {
			tick := h.samples - uint64(n) + uint64(i)
			pts[i] = Point(s.points[tick%uint64(h.size)])
		}
		last := Point(math.NaN())
		if n > 0 {
			last = pts[n-1]
		}
		out.Series = append(out.Series, HistorySeries{
			Name: name, Kind: s.kind, Last: last, Points: pts,
		})
	}
	return out
}
