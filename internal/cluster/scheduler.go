// Package cluster implements the coordinator/worker fan-out that shards
// corpus jobs across comet-serve processes. The coordinator partitions a
// job's blocks into leases, dispatches them over POST /v1/shard to the
// workers in its Pool, and re-leases on the full failure matrix — lease
// timeouts, worker death mid-lease, stragglers — with bounded retries.
//
// Determinism is the core invariant: every lease carries its blocks'
// corpus indices and the job's full effective configuration, and a
// worker explains block i at core.BlockSeed(Config.Seed, i), so any
// worker produces per-block bytes identical to a single-process
// ExplainAll at the same seed — modulo the cache_hits/model_calls
// accounting fields, which report cache warmth and so depend on
// placement — no matter how blocks are partitioned, which workers run
// them, or how many times a lease is re-dispatched. Duplicate results
// from straggler re-dispatch are deduplicated by block index; since the
// bytes are deterministic, whichever copy wins is the same answer.
//
// The package is service-agnostic: it speaks the wire shard protocol to
// any HTTP endpoint, so the comet CLI drives the same coordinator that
// cometd uses for its async jobs. Every lease travels as a binary frame
// (wire.Call); a worker that rejects one fails that dispatch like any
// other error.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"github.com/comet-explain/comet/internal/bitset"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
)

// ErrNoWorkers reports that a job could not be (or stopped being)
// dispatchable: the pool is empty, or no worker became ready within
// ReadyTimeout. Callers with a local engine should fall back to it —
// determinism makes local and sharded execution interchangeable.
var ErrNoWorkers = errors.New("cluster: no ready workers")

// ErrLeasesAbandoned reports that some leases exhausted their retry
// budget. Their blocks were NOT emitted — a lease failing is an
// infrastructure problem, not a property of the blocks, so the blocks
// are left to the caller's fallback (cometd finishes them on the
// coordinator's local engine) rather than recorded as failed.
var ErrLeasesAbandoned = errors.New("cluster: leases abandoned after exhausting retries")

// Options tunes the coordinator. Zero values get production-sane
// defaults; tests shrink the timeouts.
type Options struct {
	// LeaseBlocks is how many blocks one lease carries (default 4).
	// Smaller leases spread better and re-lease cheaper; larger leases
	// amortize HTTP round trips.
	LeaseBlocks int
	// LeaseTimeout bounds one dispatch: a worker that holds a lease
	// longer is presumed dead and the lease is re-dispatched (default 5m).
	LeaseTimeout time.Duration
	// LeaseRetries is the total dispatch attempts a lease gets before its
	// blocks are abandoned with error results (default 3). Straggler
	// re-dispatches spend from the same budget.
	LeaseRetries int
	// HeartbeatTTL is how long a dynamic worker stays registered without
	// a heartbeat (default 15s). Static workers never expire.
	HeartbeatTTL time.Duration
	// ProbeBackoff is the delay before re-probing a worker that failed a
	// dispatch or a readiness probe (default 2s).
	ProbeBackoff time.Duration
	// StragglerAfter re-dispatches an in-flight lease to an idle worker
	// once it has been out this long with no pending leases left
	// (default 30s; the first finished copy wins, bytes are identical).
	StragglerAfter time.Duration
	// ReadyTimeout is how long Run waits for a first ready worker — and
	// how long it tolerates a ready-worker drought mid-job — before
	// giving up with ErrNoWorkers (default 1m).
	ReadyTimeout time.Duration
	// Tick is the scheduler's re-evaluation interval (default 50ms).
	Tick time.Duration
	// Client is the HTTP client for shard dispatch and readiness probes
	// (nil = a client with no overall timeout; LeaseTimeout bounds each
	// dispatch via its context).
	Client *http.Client
	// Log, if non-nil, receives scheduler events (lease completions,
	// re-leases, abandonments) as structured records.
	// Every record carries the job's trace ID when the job is traced.
	Log *slog.Logger
	// Flight, if non-nil, receives one black-box record per lease
	// transition (dispatched, completed, failed, abandoned) — the
	// coordinator side of the flight recorder (see internal/obs).
	Flight *obs.FlightRecorder
}

func (o Options) withDefaults() Options {
	if o.LeaseBlocks <= 0 {
		o.LeaseBlocks = 4
	}
	if o.LeaseTimeout <= 0 {
		o.LeaseTimeout = 5 * time.Minute
	}
	if o.LeaseRetries <= 0 {
		o.LeaseRetries = 3
	}
	if o.HeartbeatTTL <= 0 {
		o.HeartbeatTTL = 15 * time.Second
	}
	if o.ProbeBackoff <= 0 {
		o.ProbeBackoff = 2 * time.Second
	}
	if o.StragglerAfter <= 0 {
		o.StragglerAfter = 30 * time.Second
	}
	if o.ReadyTimeout <= 0 {
		o.ReadyTimeout = time.Minute
	}
	if o.Tick <= 0 {
		o.Tick = 50 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{}
	}
	return o
}

// Stats are the coordinator's lifetime counters (atomic; read with Load).
type Stats struct {
	// LeasesDispatched counts every dispatch attempt, including retries
	// and straggler duplicates.
	LeasesDispatched atomic.Uint64
	// LeasesReleased counts leases requeued after a failed or timed-out
	// dispatch — the "re-lease" events of the failure matrix.
	LeasesReleased atomic.Uint64
	// StragglerDispatches counts duplicate dispatches of still-in-flight
	// leases to idle workers.
	StragglerDispatches atomic.Uint64
	// BlocksDone counts blocks whose results were emitted.
	BlocksDone atomic.Uint64
	// ShardErrors counts failed dispatches (transport errors, non-2xx,
	// malformed responses, timeouts).
	ShardErrors atomic.Uint64
}

// Job is one corpus job to shard: the canonical model spec, the full
// effective configuration, and the corpus blocks in canonical text form
// (index = corpus index). Skip marks indices already done (resume).
type Job struct {
	ID     string
	Spec   string
	Config wire.ConfigSnapshot
	Blocks []string
	// Skip, if non-nil, reports corpus indices whose results already
	// exist (restored from a durable store); they are never leased.
	Skip func(index int) bool
	// Workers is the per-lease block concurrency hint sent to workers
	// (0 = worker default). Results are identical at any value.
	Workers int
	// Traceparent, when non-empty, is the W3C trace context of the span
	// driving this job. It rides every shard dispatch as the traceparent
	// header, so worker-side spans land in the same trace the coordinator
	// records. It never affects results.
	Traceparent string
}

// traceAttr renders the job's trace ID for scheduler log records (an
// empty, elided attr when the job is untraced).
func (j Job) traceAttr() slog.Attr {
	if sc, ok := obs.ParseTraceparent(j.Traceparent); ok {
		return obs.TraceAttr(sc.Trace)
	}
	return obs.TraceAttr(obs.TraceID{})
}

// traceID extracts the job's raw trace ID for flight records (zero when
// untraced).
func (j Job) traceID() obs.TraceID {
	if sc, ok := obs.ParseTraceparent(j.Traceparent); ok {
		return sc.Trace
	}
	return obs.TraceID{}
}

// Result is one completed block, attributed to the worker that ran it.
type Result struct {
	wire.CorpusResult
	Worker string
}

// Coordinator shards jobs across a worker pool. One coordinator serves
// any number of sequential or concurrent Run calls; the pool, options,
// and stats are shared across all of them.
type Coordinator struct {
	pool  *Pool
	opts  Options
	stats Stats
}

// New builds a coordinator over a pool.
func New(pool *Pool, opts Options) *Coordinator {
	return &Coordinator{pool: pool, opts: opts.withDefaults()}
}

// Pool returns the coordinator's worker pool (for join handling and
// status rendering).
func (c *Coordinator) Pool() *Pool { return c.pool }

// flightLease records one lease transition in the flight recorder (a
// no-op when Options.Flight is nil).
func (c *Coordinator) flightLease(job Job, l *lease, worker, state string, err error) {
	if c.opts.Flight == nil {
		return
	}
	rec := obs.FlightRecord{
		Kind:  obs.FlightLease,
		ID:    l.id,
		State: state,
		Spec:  job.Spec,
		Route: worker,
		Trace: job.traceID(),
	}
	if err != nil {
		rec.Err = err.Error()
	}
	c.opts.Flight.Record(rec)
}

// Stats returns the coordinator's lifetime counters.
func (c *Coordinator) Stats() *Stats { return &c.stats }

// Status renders the coordinator for GET /v1/cluster.
func (c *Coordinator) Status() wire.ClusterStatus {
	c.pool.mu.Lock()
	deaths := c.pool.deaths
	c.pool.mu.Unlock()
	return wire.ClusterStatus{
		Workers:             c.pool.Snapshot(),
		LeasesDispatched:    c.stats.LeasesDispatched.Load(),
		LeasesReleased:      c.stats.LeasesReleased.Load(),
		StragglerDispatches: c.stats.StragglerDispatches.Load(),
		WorkerDeaths:        deaths,
		BlocksDone:          c.stats.BlocksDone.Load(),
		ShardErrors:         c.stats.ShardErrors.Load(),
	}
}

// lease is one unit of dispatch: a slice of shard blocks plus its retry
// accounting. All fields are owned by the Run goroutine.
type lease struct {
	id       string
	blocks   []wire.ShardBlock
	attempts int       // dispatches started
	inflight int       // dispatches outstanding
	done     bool      // results emitted (or abandoned)
	lastSent time.Time // most recent dispatch start, for straggler aging
	lastErr  error
}

// dispatchResult is one finished dispatch, reported to the Run loop.
type dispatchResult struct {
	lease   *lease
	worker  string
	results []wire.CorpusResult
	err     error
}

// Run shards one job across the pool, calling emit at most once per
// non-skipped block, from the Run goroutine, in completion order.
// Worker-side per-block failures surface in CorpusResult.Error and
// never abort the run. It returns nil when every block was emitted;
// ErrNoWorkers when dispatch starved, or ErrLeasesAbandoned when some
// leases ran out of retries — in both cases the blocks not emitted were
// never computed, and callers with a local engine should run them there
// (determinism makes the mixed result identical either way); or ctx.Err
// on cancellation.
func (c *Coordinator) Run(ctx context.Context, job Job, emit func(Result)) error {
	if c.pool.Size() == 0 {
		return ErrNoWorkers
	}
	leases := c.partition(job)
	if len(leases) == 0 {
		return nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	pending := make([]*lease, len(leases))
	copy(pending, leases)
	remaining := len(leases)
	emitted := bitset.New(len(job.Blocks))
	resc := make(chan dispatchResult)
	ticker := time.NewTicker(c.opts.Tick)
	defer ticker.Stop()
	// starved tracks how long the scheduler has been unable to dispatch
	// anything: pending (or straggling) leases exist but no worker is
	// ready. A drought longer than ReadyTimeout ends the run.
	var starvedSince time.Time
	abandoned := 0

	for remaining > 0 {
		dispatched := c.fill(ctx, job, &pending, leases, resc)
		if dispatched || !c.starving(pending, leases) {
			starvedSince = time.Time{}
		} else if starvedSince.IsZero() {
			starvedSince = time.Now()
		} else if time.Since(starvedSince) > c.opts.ReadyTimeout {
			if l := c.opts.Log; l != nil {
				l.Warn("no ready workers, giving up",
					"job_id", job.ID, "waited", c.opts.ReadyTimeout,
					"blocks_undone", undoneBlocks(leases), job.traceAttr())
			}
			return ErrNoWorkers
		}
		c.pool.probe(c.opts.Client)

		select {
		case r := <-resc:
			l := r.lease
			l.inflight--
			c.pool.release(r.worker, r.err == nil, len(r.results))
			if r.err != nil {
				c.stats.ShardErrors.Add(1)
				l.lastErr = r.err
				if l.done {
					break
				}
				if lg := c.opts.Log; lg != nil {
					lg.Warn("lease failed",
						"job_id", job.ID, "lease", l.id, "worker", r.worker,
						"attempt", l.attempts, "retries", c.opts.LeaseRetries,
						"error", r.err, job.traceAttr())
				}
				c.flightLease(job, l, r.worker, "failed", r.err)
				if l.attempts < c.opts.LeaseRetries {
					if l.inflight == 0 {
						pending = append(pending, l)
						c.stats.LeasesReleased.Add(1)
					}
					// With a copy still in flight the lease stays out; the
					// surviving dispatch decides its fate.
					break
				}
				if l.inflight == 0 {
					// Retry budget exhausted and nothing left in flight:
					// abandon. The blocks are NOT emitted — they were never
					// computed, and the caller's fallback engine runs them.
					if lg := c.opts.Log; lg != nil {
						lg.Warn("lease abandoned",
							"job_id", job.ID, "lease", l.id, "attempts", l.attempts,
							"blocks_left", len(l.blocks), "error", l.lastErr, job.traceAttr())
					}
					c.flightLease(job, l, r.worker, "abandoned", l.lastErr)
					l.done = true
					remaining--
					abandoned++
				}
				break
			}
			if l.done {
				break // late straggler duplicate; bytes identical, drop it
			}
			if lg := c.opts.Log; lg != nil {
				lg.Info("lease completed",
					"job_id", job.ID, "lease", l.id, "worker", r.worker,
					"blocks", len(r.results), "elapsed", time.Since(l.lastSent),
					job.traceAttr())
			}
			c.flightLease(job, l, r.worker, "completed", nil)
			for _, res := range r.results {
				if !emitted.Add(res.Index) {
					continue
				}
				c.stats.BlocksDone.Add(1)
				emit(Result{Worker: r.worker, CorpusResult: res})
			}
			l.done = true
			remaining--
		case <-ticker.C:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	if abandoned > 0 {
		return fmt.Errorf("%w (%d of %d leases)", ErrLeasesAbandoned, abandoned, len(leases))
	}
	return nil
}

// fill dispatches pending leases to idle ready workers, then straggler
// re-dispatches when the pending queue is dry. It reports whether
// anything was dispatched.
func (c *Coordinator) fill(ctx context.Context, job Job, pending *[]*lease, leases []*lease, resc chan<- dispatchResult) bool {
	dispatched := false
	now := time.Now()
	for len(*pending) > 0 {
		w := c.pool.acquire(now)
		if w == "" {
			break
		}
		l := (*pending)[0]
		*pending = (*pending)[1:]
		c.send(ctx, job, l, w, resc, false)
		dispatched = true
	}
	if len(*pending) == 0 {
		// Straggler re-dispatch: duplicate old in-flight leases onto idle
		// workers, oldest first, spending from the same retry budget.
		var old []*lease
		for _, l := range leases {
			if !l.done && l.inflight > 0 && l.attempts < c.opts.LeaseRetries &&
				now.Sub(l.lastSent) > c.opts.StragglerAfter {
				old = append(old, l)
			}
		}
		sort.Slice(old, func(i, j int) bool { return old[i].lastSent.Before(old[j].lastSent) })
		for _, l := range old {
			w := c.pool.acquire(now)
			if w == "" {
				break
			}
			c.send(ctx, job, l, w, resc, true)
			dispatched = true
		}
	}
	return dispatched
}

// send starts one dispatch goroutine for a lease.
func (c *Coordinator) send(ctx context.Context, job Job, l *lease, workerID string, resc chan<- dispatchResult, straggler bool) {
	l.attempts++
	l.inflight++
	l.lastSent = time.Now()
	c.stats.LeasesDispatched.Add(1)
	c.flightLease(job, l, workerID, "dispatched", nil)
	if straggler {
		c.stats.StragglerDispatches.Add(1)
		if lg := c.opts.Log; lg != nil {
			lg.Info("straggler re-dispatch",
				"job_id", job.ID, "lease", l.id, "worker", workerID, job.traceAttr())
		}
	}
	req := wire.ShardRequest{
		JobID:   job.ID,
		Lease:   l.id,
		Spec:    job.Spec,
		Config:  job.Config,
		Blocks:  l.blocks,
		Workers: job.Workers,
	}
	go func() {
		results, err := c.dispatch(ctx, workerID, req, job.Traceparent)
		select {
		case resc <- dispatchResult{lease: l, worker: workerID, results: results, err: err}:
		case <-ctx.Done():
			// Run has returned (job done, starved, or canceled) and will
			// never read this result. The pool outlives the run, so the
			// worker's inflight slot must still come back — quietly: a
			// dispatch nobody waited for says nothing about the worker.
			c.pool.releaseQuiet(workerID)
		}
	}()
}

// dispatch performs one POST /v1/shard round trip, bounded by
// LeaseTimeout, and validates the response against the lease. The
// traceparent makes the worker join the coordinator's trace: its
// /v1/shard spans record under the same trace ID, so GET /debug/traces
// on either process shows its half of the job.
func (c *Coordinator) dispatch(ctx context.Context, workerURL string, sreq wire.ShardRequest, traceparent string) ([]wire.CorpusResult, error) {
	ctx, cancel := context.WithTimeout(ctx, c.opts.LeaseTimeout)
	defer cancel()
	out, err := wire.Call[wire.ShardResponse](ctx, c.opts.Client, workerURL+"/v1/shard", traceparent, &sreq)
	if err != nil {
		return nil, err
	}
	// The response must answer exactly the leased blocks: a worker that
	// dropped or invented indices is as wrong as a transport failure.
	want := bitset.New(len(sreq.Blocks))
	for _, b := range sreq.Blocks {
		want.Add(b.Index)
	}
	if len(out.Results) != len(sreq.Blocks) {
		return nil, fmt.Errorf("worker answered %d of %d leased blocks", len(out.Results), len(sreq.Blocks))
	}
	seen := bitset.New(len(sreq.Blocks))
	for _, r := range out.Results {
		if !want.Has(r.Index) || !seen.Add(r.Index) {
			return nil, fmt.Errorf("worker answered unleased or duplicate block index %d", r.Index)
		}
	}
	return out.Results, nil
}

// partition slices the job's non-skipped blocks into leases of
// LeaseBlocks, each block carrying its corpus index, which is all a
// worker needs to derive the block's seed.
func (c *Coordinator) partition(job Job) []*lease {
	var leases []*lease
	var cur []wire.ShardBlock
	flush := func() {
		if len(cur) == 0 {
			return
		}
		leases = append(leases, &lease{
			id:     fmt.Sprintf("%s/l%d", job.ID, len(leases)),
			blocks: cur,
		})
		cur = nil
	}
	for i, text := range job.Blocks {
		if job.Skip != nil && job.Skip(i) {
			continue
		}
		cur = append(cur, wire.ShardBlock{Index: i, Block: text})
		if len(cur) >= c.opts.LeaseBlocks {
			flush()
		}
	}
	flush()
	return leases
}

// starving reports whether there is undispatched work the pool cannot
// currently absorb — the condition the ReadyTimeout drought clock runs
// under.
func (c *Coordinator) starving(pending []*lease, leases []*lease) bool {
	if c.pool.readyCount() > 0 {
		return false
	}
	if len(pending) > 0 {
		return true
	}
	for _, l := range leases {
		if !l.done && l.inflight == 0 {
			return true
		}
	}
	return false
}

// undoneBlocks counts blocks in leases that have not completed.
func undoneBlocks(leases []*lease) int {
	n := 0
	for _, l := range leases {
		if !l.done {
			n += len(l.blocks)
		}
	}
	return n
}
