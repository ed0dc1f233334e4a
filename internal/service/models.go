package service

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// The service resolves every model through the public comet registry
// (comet.ResolveModel), so any spec the registry knows — zoo models,
// parameterized neural models, remote backends, application-registered
// custom models — is servable without the service knowing its name. What
// this file adds on top of the registry is instance sharing: one warmed
// model per canonical spec, with the prediction cache
// costmodel.NewCacheFor gives it, for the life of the process.

// errRegistryFull signals that the per-spec instance table is at
// capacity; the HTTP layer maps it to 429. Distinct specs (each a
// potentially expensive warm-up plus a prediction cache) are allocated on
// client demand, so the table is bounded like every other queue here.
var errRegistryFull = errors.New("model instance table full (too many distinct model specs)")

// errRestrictedSpec refuses client-supplied specs whose resolution
// exercises ambient authority — dialing URLs (remote@...), reading
// server files (ithemal?load=...). The HTTP layer maps it to 403;
// operators opt in with Config.AllowRestrictedSpecs, and
// operator-initiated resolution (RegisterModel, WarmModel/-preload) is
// never restricted.
var errRestrictedSpec = errors.New("spec resolves a restricted model (network or filesystem access at warm-up); start the server with -allow-restricted-specs to serve it")

// modelEntry is one warmed canonical spec: the model instance and the
// prediction cache every request against it shares (nil where
// costmodel.NewCacheFor gives none). Warm-up (construction, training,
// remote handshake) happens exactly once, on first use, guarded by the
// entry's once; the cache is created there, once the model is known.
type modelEntry struct {
	spec    comet.ModelSpec
	once    sync.Once
	warm    atomic.Bool // set after once completes; lets /metrics skip in-flight warm-ups racelessly
	model   costmodel.Model
	cache   *costmodel.Cache
	epsilon float64 // model-recommended ε (analytical models quantize)
	err     error
}

// modelRegistry owns the per-spec instance table. Entries are keyed by
// canonical spec string and built lazily; every request for the same
// canonical spec shares the same instance and prediction cache for the
// life of the process.
type modelRegistry struct {
	mu         sync.Mutex
	entries    map[string]*modelEntry
	cacheSize  int
	maxEntries int
	// allowRestricted permits client-supplied restricted specs
	// (remote@..., ithemal?load=...).
	allowRestricted bool
	// warmGate, when non-nil, brackets client-initiated warm-ups — the
	// server passes its explain-slot semaphore so an expensive warm-up
	// (training, remote handshake) is backpressured like any other
	// computation instead of running unbounded on the handler.
	warmGate func() (release func(), err error)
}

func newModelRegistry(cacheSize, maxEntries int, allowRestricted bool) *modelRegistry {
	if maxEntries <= 0 {
		maxEntries = 64
	}
	return &modelRegistry{
		entries:         make(map[string]*modelEntry),
		cacheSize:       max(cacheSize, 0), // negative, like 0, = default size
		maxEntries:      maxEntries,
		allowRestricted: allowRestricted,
	}
}

// register installs a ready-made model (tests inject counting models;
// deployments can preload trained neural models) under name@arch,
// bypassing the comet registry. Epsilon 0 means the standard 0.5-cycle
// ball.
func (r *modelRegistry) register(name string, arch x86.Arch, m costmodel.Model, epsilon float64) {
	if epsilon <= 0 {
		epsilon = 0.5
	}
	if def, ok := comet.LookupModel(name); ok {
		name = def.Name // fold aliases onto the canonical name
	}
	spec := comet.ModelSpec{Name: name, Target: wire.ArchName(arch)}
	e := &modelEntry{spec: spec, model: m, epsilon: epsilon, cache: costmodel.NewCacheFor(m, r.cacheSize)}
	e.once.Do(func() {}) // already warm
	e.warm.Store(true)
	r.mu.Lock()
	r.entries[spec.String()] = e
	r.mu.Unlock()
}

// get returns the warmed entry for a model spec string, building it on
// first use. archDefault (a wire arch name) fills in the spec's target
// when the model targets an arch and the spec has none. trusted marks
// operator-initiated resolution (boot preload), which bypasses the
// restricted-spec policy and the warm-up gate; client requests pass
// false. Concurrent callers for the same entry block until the single
// warm-up finishes; callers for other entries proceed independently.
func (r *modelRegistry) get(modelStr, archDefault string, trusted bool) (*modelEntry, error) {
	spec, err := comet.ParseModelSpec(modelStr)
	if err != nil {
		return nil, err
	}
	spec = spec.WithDefaultTarget(archDefault)
	// Directly registered entries (injected instances, keyed name@arch)
	// take precedence over lazy registry resolution.
	r.mu.Lock()
	if e, ok := r.entries[spec.String()]; ok {
		r.mu.Unlock()
		return r.warm(e, spec.String(), true)
	}
	r.mu.Unlock()

	canon, err := comet.CanonicalSpec(spec)
	if err != nil {
		return nil, err
	}
	if def, ok := comet.LookupModel(canon.Name); ok && !trusted && !r.allowRestricted && def.RestrictedFor(canon) {
		return nil, errRestrictedSpec
	}
	key := canon.String()
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		// The bounded table sheds untrusted demand; operator-initiated
		// entries (preload, the default model) always allocate, so a
		// full table can't lock the server's own configuration out.
		if !trusted && len(r.entries) >= r.maxEntries {
			r.mu.Unlock()
			return nil, errRegistryFull
		}
		e = &modelEntry{spec: canon}
		r.entries[key] = e
	}
	r.mu.Unlock()
	return r.warm(e, key, trusted)
}

// warm blocks until the entry is warm (resolving it if this caller is
// first) and returns it. Untrusted first-callers hold a warm-up gate
// slot while resolving, so expensive warm-ups share the explain
// concurrency budget. A failed warm-up is evicted from the table — the
// failure (a briefly unreachable remote backend, say) is returned to
// every waiter but not cached forever, and it stops counting against
// maxEntries.
func (r *modelRegistry) warm(e *modelEntry, key string, trusted bool) (*modelEntry, error) {
	if !e.warm.Load() && !trusted && r.warmGate != nil {
		release, err := r.warmGate()
		if err != nil {
			return nil, err
		}
		defer release()
	}
	e.once.Do(func() {
		rm, err := comet.ResolveModel(e.spec)
		if err != nil {
			e.err = err
		} else {
			e.model = rm.Model
			e.epsilon = rm.Epsilon
			e.cache = costmodel.NewCacheFor(rm.Model, r.cacheSize)
		}
		e.warm.Store(true)
	})
	if e.err != nil {
		r.mu.Lock()
		if r.entries[key] == e {
			delete(r.entries, key)
		}
		r.mu.Unlock()
		return nil, e.err
	}
	return e, nil
}

// specString returns the entry's canonical spec string (its cache and
// single-flight identity).
func (e *modelEntry) specString() string { return e.spec.String() }

// warmed lists the entries with a live warmed instance, in spec order.
// An entry still warming (or failed) is skipped; it has no cache yet.
func (r *modelRegistry) warmed() []*modelEntry {
	r.mu.Lock()
	entries := make([]*modelEntry, 0, len(r.entries))
	for _, e := range r.entries {
		entries = append(entries, e)
	}
	r.mu.Unlock()
	out := entries[:0]
	for _, e := range entries {
		if e.warm.Load() && e.err == nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].specString() < out[j].specString() })
	return out
}

// warmedSpecs lists the canonical specs with a live warmed instance,
// sorted.
func (r *modelRegistry) warmedSpecs() []string {
	var out []string
	for _, e := range r.warmed() {
		out = append(out, e.specString())
	}
	return out
}

// renderCache writes the comet_prediction_cache_* families: one sample
// per warmed entry that has a cache.
func (r *modelRegistry) renderCache(sb *strings.Builder) {
	var (
		labels []string
		stats  []costmodel.CacheStats
	)
	for _, e := range r.warmed() {
		if e.cache != nil {
			labels = append(labels, fmt.Sprintf("model=%q,arch=%q", e.spec.Name, wire.ArchName(e.model.Arch())))
			stats = append(stats, e.cache.Stats())
		}
	}
	if len(stats) == 0 {
		return
	}
	for _, f := range []struct {
		name string
		read func(costmodel.CacheStats) float64
	}{
		{"comet_prediction_cache_entries", func(st costmodel.CacheStats) float64 { return float64(st.Entries) }},
		{"comet_prediction_cache_hit_rate", costmodel.CacheStats.HitRate},
		{"comet_prediction_cache_hits_total", func(st costmodel.CacheStats) float64 { return float64(st.Hits) }},
		{"comet_prediction_cache_misses_total", func(st costmodel.CacheStats) float64 { return float64(st.Misses) }},
	} {
		writeFamily(sb, f.name)
		for i, st := range stats {
			fmt.Fprintf(sb, "%s{%s} %s\n", f.name, labels[i], formatFloat(f.read(st)))
		}
	}
}

// cacheTotals sums prediction-cache hits and misses across every warmed
// entry that has a cache — the aggregate counters behind the history's
// hit_rate.prediction_cache series.
func (r *modelRegistry) cacheTotals() (hits, misses uint64) {
	for _, e := range r.warmed() {
		if e.cache == nil {
			continue
		}
		st := e.cache.Stats()
		hits += st.Hits
		misses += st.Misses
	}
	return hits, misses
}
