package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/comet-explain/comet/internal/wire"
)

// worker is one pool member. All fields are guarded by the pool's mutex;
// the scheduler only ever touches workers through Pool methods.
type worker struct {
	id     string // canonical base URL
	static bool   // from the coordinator's static list; never expires

	capacity int       // concurrent leases the worker accepts
	inflight int       // leases currently dispatched to it
	lastBeat time.Time // last join/heartbeat (dynamic workers)

	ready   bool      // last /readyz probe succeeded and nothing failed since
	probing bool      // a readiness probe is in flight
	probeAt time.Time // no re-probe before this instant

	blocksDone int
	leasesDone int
	failures   int
}

// Pool is the coordinator's worker registry: static members seeded from
// configuration plus dynamic members that self-register via
// POST /v1/cluster/join and stay alive by heartbeating. A worker is
// dispatchable only when a /readyz probe has succeeded since it was last
// seen failing, so cold or restarting workers never receive leases.
type Pool struct {
	mu      sync.Mutex
	workers map[string]*worker
	opts    Options
	deaths  uint64 // ready→down transitions, for stats
}

// NewPool builds a pool with the given static worker base URLs.
func NewPool(staticURLs []string, opts Options) *Pool {
	opts = opts.withDefaults()
	p := &Pool{workers: make(map[string]*worker), opts: opts}
	for _, u := range staticURLs {
		u = wire.BaseURL(u)
		if u == "" {
			continue
		}
		p.workers[u] = &worker{id: u, static: true, capacity: 1}
	}
	return p
}

// Join registers (or refreshes) a dynamic worker and returns its id and
// heartbeat TTL. Joining an id already present — static or dynamic —
// refreshes its heartbeat clock and capacity.
func (p *Pool) Join(url string, capacity int) (string, time.Duration, error) {
	url = wire.BaseURL(url)
	if url == "" {
		return "", 0, fmt.Errorf("cluster: join with empty worker URL")
	}
	if capacity < 1 {
		capacity = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	w, ok := p.workers[url]
	if !ok {
		w = &worker{id: url}
		p.workers[url] = w
	}
	w.capacity = capacity
	w.lastBeat = time.Now()
	return url, p.opts.HeartbeatTTL, nil
}

// joinRetry is how often Heartbeat retries before its first successful
// join, while it has no TTL to pace itself by.
const joinRetry = time.Second

// Heartbeat registers a worker that serves at advertise with the
// coordinator at coordinatorURL and keeps re-joining until ctx is done —
// the join call doubles as the heartbeat. It re-joins at a third of the
// HeartbeatTTL each JoinResponse carries, so one lost heartbeat never
// expires the worker; before the first successful join it retries every
// joinRetry. Failures are retried forever (the coordinator may simply
// not be up yet); the first successful join and every reconnection are
// logged.
func Heartbeat(ctx context.Context, coordinatorURL, advertise string, capacity int) {
	coordinatorURL = wire.BaseURL(coordinatorURL)
	client := &http.Client{Timeout: 10 * time.Second}
	interval := joinRetry
	joined := false
	// Failures log on every state change (including before the first
	// successful join — a coordinator missing -coordinator 404s forever,
	// and that misconfiguration must not be silent) but never repeat, so
	// a coordinator that is simply still booting doesn't spam the log.
	lastFailure := ""
	for {
		jr, err := wire.Call[wire.JoinResponse](ctx, client, coordinatorURL+"/v1/cluster/join", "",
			&wire.JoinRequest{URL: advertise, Capacity: capacity})
		switch {
		case ctx.Err() != nil:
			return
		case err != nil:
			msg := err.Error()
			var se *wire.StatusError
			if errors.As(err, &se) && se.Code == http.StatusNotFound {
				msg += " (is the coordinator running with -coordinator?)"
			}
			if msg != lastFailure {
				slog.Warn("cluster join failed; retrying",
					"component", "cluster", "coordinator", coordinatorURL,
					"error", msg, "interval", interval)
			}
			lastFailure, joined = msg, false
		default:
			if !joined {
				slog.Info("joined cluster",
					"component", "cluster", "coordinator", coordinatorURL, "advertise", advertise)
			}
			lastFailure, joined = "", true
			if d := time.Duration(jr.TTLSeconds*float64(time.Second)) / 3; d > 0 {
				interval = d
			}
		}
		timer := time.NewTimer(interval)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return
		}
	}
}

// Size reports how many workers the pool knows (alive or not).
func (p *Pool) Size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.workers)
}

// expired reports whether a dynamic worker's heartbeats have lapsed.
// Caller holds the pool mutex.
func (w *worker) expired(ttl time.Duration, now time.Time) bool {
	return !w.static && now.Sub(w.lastBeat) > ttl
}

// acquire picks a ready worker with spare capacity, preferring the least
// loaded (then lexicographic id, for determinism in tests), and bumps its
// inflight count. It returns "" when no worker is dispatchable.
func (p *Pool) acquire(now time.Time) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var best *worker
	for _, w := range p.workers {
		if !w.ready || w.inflight >= w.capacity || w.expired(p.opts.HeartbeatTTL, now) {
			continue
		}
		if best == nil || w.inflight < best.inflight ||
			(w.inflight == best.inflight && w.id < best.id) {
			best = w
		}
	}
	if best == nil {
		return ""
	}
	best.inflight++
	return best.id
}

// release records a dispatch outcome: success credits the worker's
// counters; failure marks it down (not dispatchable until a fresh
// readiness probe succeeds, after a backoff).
func (p *Pool) release(id string, ok bool, blocks int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w, found := p.workers[id]
	if !found {
		return
	}
	if w.inflight > 0 {
		w.inflight--
	}
	if ok {
		w.leasesDone++
		w.blocksDone += blocks
		return
	}
	w.failures++
	if w.ready {
		w.ready = false
		p.deaths++
	}
	w.probeAt = time.Now().Add(p.opts.ProbeBackoff)
}

// releaseQuiet returns a worker's inflight slot without recording an
// outcome — for dispatches abandoned by a finished Run, where neither
// success nor failure of the worker was established.
func (p *Pool) releaseQuiet(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if w, ok := p.workers[id]; ok && w.inflight > 0 {
		w.inflight--
	}
}

// probe kicks asynchronous /readyz probes for workers that are not
// currently dispatchable: never-probed members, members marked down whose
// backoff elapsed, and revived dynamic members. Probes run in their own
// goroutines; the pool is never locked across a network call. It also
// prunes long-expired dynamic workers, so a churn of ephemeral worker
// URLs (autoscaled containers, per-restart ports) cannot grow the pool
// without bound.
func (p *Pool) probe(client *http.Client) {
	now := time.Now()
	p.mu.Lock()
	var due []*worker
	for id, w := range p.workers {
		if w.expired(p.opts.HeartbeatTTL, now) {
			if w.inflight == 0 && now.Sub(w.lastBeat) > 10*p.opts.HeartbeatTTL {
				delete(p.workers, id)
			}
			continue
		}
		if w.ready || w.probing || now.Before(w.probeAt) {
			continue
		}
		w.probing = true
		due = append(due, w)
	}
	p.mu.Unlock()
	for _, w := range due {
		go p.probeOne(client, w)
	}
}

// probeOne performs one readiness probe and records its outcome.
func (p *Pool) probeOne(client *http.Client, w *worker) {
	ok := probeReady(client, w.id)
	p.mu.Lock()
	w.probing = false
	if ok {
		w.ready = true
	} else {
		w.probeAt = time.Now().Add(p.opts.ProbeBackoff)
	}
	p.mu.Unlock()
}

// probeReady GETs url/readyz and reports whether the worker is ready:
// the 200 status alone says so. The probe carries its own deadline: a
// blackholed worker must not wedge its probing flag forever (the shared
// client has no overall timeout — shard dispatches are bounded by
// LeaseTimeout instead).
func probeReady(client *http.Client, url string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := wire.Call[struct{}](ctx, client, url+"/readyz", "", nil)
	return err == nil
}

// readyCount reports how many workers are currently dispatchable.
func (p *Pool) readyCount() int {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, w := range p.workers {
		if w.ready && !w.expired(p.opts.HeartbeatTTL, now) {
			n++
		}
	}
	return n
}

// Snapshot renders the pool for GET /v1/cluster and /metrics, sorted by
// worker id.
func (p *Pool) Snapshot() []wire.ClusterWorker {
	now := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]wire.ClusterWorker, 0, len(p.workers))
	for _, w := range p.workers {
		state := "joining"
		switch {
		case w.expired(p.opts.HeartbeatTTL, now):
			state = "expired"
		case w.ready:
			state = "ready"
		case !w.probeAt.IsZero():
			state = "down"
		}
		out = append(out, wire.ClusterWorker{
			ID:         w.id,
			State:      state,
			Static:     w.static,
			Capacity:   w.capacity,
			Inflight:   w.inflight,
			BlocksDone: w.blocksDone,
			LeasesDone: w.leasesDone,
			Failures:   w.failures,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
