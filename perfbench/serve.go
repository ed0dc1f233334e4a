package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	comet "github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/analytical"
	"github.com/comet-explain/comet/internal/core"
	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/persist"
	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

const (
	serveModel       = "uica"
	serveQuality     = 64 // leading fresh blocks per client in the quality guards
	serveAccuracy    = 36 // leading fresh blocks per client in the accuracy audit
	serveCheckHot    = 2  // hot blocks recomputed through the library
	serveCheckFresh  = 4  // fresh blocks recomputed through the library
	serveTracedFetch = 64 // traced requests whose server spans are fetched
	serveSetups      = 5  // set-ups per run (about half a second each); setup_s is their median
	refEvery         = 16 // requests per client between host reference units
)

// serveState is one set-up of serve-mixed: a durable store in a private
// directory, an in-process service behind a loopback listener, and a
// client whose hot set is already served once per codec.
type serveState struct {
	in       *serveInputs
	dir      string
	log      *persist.Log
	tstore   *timingStore // traced runs only
	srv      *service.Server
	hs       *http.Server
	serveErr chan error
	url      string
	tr       *http.Transport
	client   *http.Client
	model    costmodel.Model // the library instance used for checks
	eps      float64
	stats    *modelStats // traced runs only
	spans    *spanLog    // traced runs only
	// golden holds each hot block's warm-up response per codec; every
	// later response for it must be byte-identical.
	golden [2][][]byte
	ref    hostRef // one reference unit per client every refEvery requests
}

func setupServe(o options, in *serveInputs, rep int) (_ *serveState, err error) {
	st := &serveState{in: in, serveErr: make(chan error, 1)}
	st.dir = filepath.Join(o.out, fmt.Sprintf("serve-%d-%d", os.Getpid(), rep))
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	if st.log, err = persist.Open(st.dir, persist.Options{}); err != nil {
		return nil, err
	}
	cfg := service.Config{
		Base:                  core.DefaultConfig(),
		Store:                 st.log,
		MaxConcurrentExplains: serveClients,
		PredictionCacheSize:   cacheEntries,
		Logger:                slog.New(slog.NewTextHandler(io.Discard, nil)),
		TraceSample:           -1,
	}
	if o.trace {
		// Head sampling practically never fires; a request carrying a
		// sampled traceparent is always traced.
		st.tstore = &timingStore{Store: st.log}
		cfg.Store = st.tstore
		cfg.TraceSample = 1 << 40
		cfg.TraceRingSize = 1 << 16
	}
	st.srv = service.New(cfg)
	rm, err := comet.ResolveModelString(serveModel + "@hsw")
	if err != nil {
		return nil, err
	}
	st.model, st.eps = rm.Model, rm.Epsilon
	if o.trace {
		st.stats, st.spans = &modelStats{}, newSpanLog()
		st.srv.RegisterModel(serveModel, x86.Haswell,
			&timingModel{inner: costmodel.AsBatch(rm.Model), stats: st.stats, spans: st.spans}, rm.Epsilon)
	} else if err := st.srv.WarmModel(serveModel, "hsw"); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	st.url = "http://" + ln.Addr().String()
	st.hs = &http.Server{Handler: st.srv.Handler()}
	go func() { st.serveErr <- st.hs.Serve(ln) }()
	st.srv.SetReady()
	st.tr = &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}
	st.client = &http.Client{Transport: st.tr, Timeout: time.Minute}
	if err := st.warm(); err != nil {
		return nil, err
	}
	return st, nil
}

// warm serves every hot block once per codec and keeps the bytes.
func (st *serveState) warm() error {
	for codec := range st.golden {
		st.golden[codec] = make([][]byte, len(st.in.hot))
	}
	return parallel(len(st.in.hot), serveClients, func(h int) error {
		for codec := range st.golden {
			req := serveRequest{block: st.in.hot[h], seed: st.in.hotSeeds[h], hot: h, binary: codec == 1}
			resp := st.do(req, serveModel, "", false)
			if resp.err != nil || resp.status != http.StatusOK {
				return fmt.Errorf("warming hot block %d: status %d: %v", h, resp.status, resp.err)
			}
			st.golden[codec][h] = resp.body
		}
		return nil
	})
}

// close releases whatever set-up got as far as creating: it stops the
// listener and the service, closes the store and removes its directory.
func (st *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.hs != nil {
		_ = st.hs.Shutdown(ctx) // ErrServerClosed from Serve is the expected outcome
		<-st.serveErr
		st.tr.CloseIdleConnections()
	}
	if st.srv != nil {
		_ = st.srv.Shutdown(ctx) // nothing is queued once every client returned
	}
	if st.log != nil {
		_ = st.log.Close() // the store is deleted next
	}
	_ = os.RemoveAll(st.dir)
}

// response is one completed call.
type response struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

// do sends one /v1/explain request and reads the whole reply. A non-empty
// traceparent joins the request to that trace; profile asks for the
// engine's stage profile in the reply.
func (st *serveState) do(req serveRequest, model, traceparent string, profile bool) response {
	er := wire.ExplainRequest{Block: req.block.String(), Model: model, Arch: "hsw",
		Config: &wire.ConfigOverrides{Seed: req.seed}}
	var body []byte
	var err error
	if req.binary {
		body, err = wire.EncodeBinary(&er)
	} else {
		body, err = json.Marshal(&er)
	}
	if err != nil {
		return response{err: err}
	}
	url := st.url + "/v1/explain"
	if profile {
		url += "?profile=1"
	}
	hr, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	if req.binary {
		hr.Header.Set("Content-Type", wire.FrameContentType)
		hr.Header.Set("Accept", wire.FrameContentType)
	} else {
		hr.Header.Set("Content-Type", "application/json")
	}
	if traceparent != "" {
		hr.Header.Set("Traceparent", traceparent)
	}
	start := time.Now()
	resp, err := st.client.Do(hr)
	if err != nil {
		return response{err: err}
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return response{status: resp.StatusCode, body: out, latency: time.Since(start), err: err}
}

// decodeExplanation parses a reply body in either codec.
func decodeExplanation(body []byte, binary bool) (*wire.Explanation, error) {
	if binary {
		msg, err := wire.DecodeBinary(body)
		if err != nil {
			return nil, err
		}
		e, ok := msg.(*wire.Explanation)
		if !ok {
			return nil, fmt.Errorf("reply frame carries %T", msg)
		}
		return e, nil
	}
	var e wire.Explanation
	return &e, json.Unmarshal(body, &e)
}

// served is one timed-region request and what came back.
type served struct {
	req     serveRequest
	traced  bool
	latency time.Duration
	status  int
	expl    *wire.Explanation // fresh requests only
	trace   string            // traced requests only
}

// clientLoop is one closed-loop client: it sends its fixed sequence, each
// request after the previous reply, until the deadline.
func (st *serveState) clientLoop(c int, deadline time.Time, traced bool) ([]served, tally) {
	next := st.in.sequence(c)
	var out []served
	var t tally
	for i := 0; time.Now().Before(deadline); i++ {
		s := served{req: next()}
		// Traced runs trace every fresh request and every other hit, so
		// traced and untraced hits can be compared.
		s.traced = traced && (s.req.hot < 0 || i%2 == 0)
		tp := ""
		if s.traced {
			sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID(), Sampled: true}
			tp, s.trace = sc.Traceparent(), sc.Trace.String()
		}
		resp := st.do(s.req, serveModel, tp, s.traced && s.req.hot < 0)
		s.latency, s.status = resp.latency, resp.status
		t.attempted++
		switch {
		case resp.err != nil:
			t.failed++
		case resp.status == http.StatusTooManyRequests:
			t.refused++
		case resp.status != http.StatusOK:
			t.failed++
		case s.req.hot >= 0:
			if !bytes.Equal(resp.body, st.golden[codecIndex(s.req.binary)][s.req.hot]) {
				t.mismatched++
			}
		default:
			e, err := decodeExplanation(resp.body, s.req.binary)
			if err != nil {
				t.failed++
				break
			}
			s.expl = e
		}
		if s.traced {
			end := time.Now()
			st.spans.add(s.trace, "client.request", end.Add(-s.latency), end)
		}
		out = append(out, s)
		if i%refEvery == refEvery-1 {
			st.ref.sample()
		}
	}
	return out, t
}

func codecIndex(binary bool) int {
	if binary {
		return 1
	}
	return 0
}

// driveClients runs every client until the deadline and merges results.
func (st *serveState) driveClients(d time.Duration, traced bool) ([][]served, tally, time.Duration) {
	deadline := time.Now().Add(d)
	start := time.Now()
	results := make([][]served, serveClients)
	tallies := make([]tally, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], tallies[c] = st.clientLoop(c, deadline, traced)
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var t tally
	for _, x := range tallies {
		t.add(x)
	}
	return results, t, elapsed
}

// runServeMixed is the service-bound workload.
func runServeMixed(o options) (*outcome, error) {
	rep := 0
	st, setupS, err := setupMedian(serveSetups, func() (*serveState, error) {
		rep++
		return setupServe(o, newServeInputs(o.seed), rep)
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	out := newOutcome()

	if o.trace {
		st.stats.reset()
		st.tstore.reset()
	}
	before, err := st.counters()
	if err != nil {
		return nil, err
	}
	storeBefore := st.log.Stats()
	heap := startHeapSampler()
	results, t, elapsed := st.driveClients(o.duration(), o.trace)
	heapMB := heap.finish()
	out.tally.add(t)
	after, err := st.counters()
	if err != nil {
		return nil, err
	}

	var all, hits, tracedHits, untracedHits, misses []float64
	var freshQueries int
	var freshSeconds float64
	var freshByClient [][]*wire.Explanation
	for _, rs := range results {
		var fresh []*wire.Explanation
		for _, s := range rs {
			if s.status != http.StatusOK {
				continue
			}
			ms := float64(s.latency.Nanoseconds()) / 1e6
			all = append(all, ms)
			if s.req.hot >= 0 {
				hits = append(hits, ms)
				if s.traced {
					tracedHits = append(tracedHits, ms)
				} else {
					untracedHits = append(untracedHits, ms)
				}
				continue
			}
			if s.expl == nil {
				continue
			}
			misses = append(misses, ms)
			freshQueries += s.expl.Queries
			freshSeconds += s.latency.Seconds()
			fresh = append(fresh, s.expl)
		}
		freshByClient = append(freshByClient, fresh)
	}
	if len(misses) == 0 || len(hits) == 0 {
		return nil, fmt.Errorf("run served %d hits and %d fresh explanations; need both", len(hits), len(misses))
	}
	reqPerS := float64(len(all)) / elapsed.Seconds()
	p99, used, n, _ := tail(all, 0.99)
	// As in the corpus: one client's query rate while its fresh request
	// computed, scaled by the clients running side by side.
	queriesPerS := float64(serveClients) * float64(freshQueries) / freshSeconds
	out.notef("%d requests (%d fresh) in %.1fs: %.1f req/s, p50 %.3f ms, p%.1f %.3f ms of %d samples",
		len(all), len(misses), elapsed.Seconds(), reqPerS, median(all), 100*used, p99, n)

	q, err := st.quality(freshByClient)
	if err != nil {
		return nil, err
	}
	audit, err := st.accuracyAudit(freshByClient)
	if err != nil {
		return nil, err
	}
	q.accuracy = audit.accuracy
	out.tally.add(audit.tally)
	checked, mismatched, allocs, allocBytes, err := st.check(results)
	if err != nil {
		return nil, err
	}
	out.tally.attempted += checked
	out.tally.mismatched += mismatched
	out.notef("output check: %d of %d served explanations differ from the library; %d of %d hot replies differ from their warm-up bytes",
		mismatched, checked, t.mismatched, len(hits))
	if t.refused > 0 || t.failed > 0 {
		out.notef("%d requests refused (429), %d failed", t.refused, t.failed)
	}
	out.notes = append(out.notes, q.note())

	m := out.metrics
	if !o.trace {
		scale := st.ref.scale()
		out.notes = append(out.notes, st.ref.note())
		out.notef("unscaled: setup_s %.6g, queries_per_s %.6g, req_p50_ms %.6g", setupS, queriesPerS, median(all))
		m.set("setup_s", "s", setupS*scale)
		m.set("queries_per_s", "1/s", queriesPerS/scale)
		m.set("req_p50_ms", "ms", median(all)*scale)
		m.set("heap_peak_mb", "MiB", heapMB)
		q.record(m)
		return out, nil
	}

	// Traced run: per-layer metrics.
	var profiles []*wire.Profile
	var fetched []string
	fetchedHits := 0
	for _, rs := range results {
		for _, s := range rs {
			if s.expl != nil && s.expl.Profile != nil {
				profiles = append(profiles, s.expl.Profile)
			}
			if !s.traced || s.status != http.StatusOK {
				continue
			}
			if s.req.hot < 0 && len(fetched)-fetchedHits < serveTracedFetch {
				fetched = append(fetched, s.trace)
			} else if s.req.hot >= 0 && fetchedHits < serveTracedFetch {
				fetched = append(fetched, s.trace)
				fetchedHits++
			}
		}
	}
	cfg := st.libConfig()
	recordEngine(m, profiles, cfg, st.stats)
	m.set("core.expl_per_s", "1/s", float64(len(misses))/elapsed.Seconds())
	m.set("core.allocs_per_expl", "count", allocs)
	m.set("core.bytes_per_expl", "B", allocBytes)
	requests := float64(len(all))
	m.set("service.req_per_s", "1/s", reqPerS)
	m.set("service.req_p99_ms", "ms", p99)
	m.set("service.hit_p50_ms", "ms", median(untracedHits))
	m.set("service.miss_p50_ms", "ms", median(misses))
	m.set("service.intern_hit_share", "ratio", (after["comet_intern_hits_total"]-before["comet_intern_hits_total"])/requests)
	m.set("service.result_hit_share", "ratio", (after["comet_result_store_hits_total"]-before["comet_result_store_hits_total"])/requests)
	m.set("service.coalesced", "count", after["comet_explain_coalesced_total"]-before["comet_explain_coalesced_total"])
	m.set("service.rejected_share", "ratio", float64(t.refused)/float64(t.attempted))
	m.set("obs.trace_overhead_share", "ratio", median(tracedHits)/median(untracedHits)-1)
	puts := st.tstore.putLatencies()
	storeAfter := st.log.Stats()
	recordPersist(m, puts, storeAfter.TotalBytes-storeBefore.TotalBytes, int64(storeAfter.Puts-storeBefore.Puts))

	var blocks []*x86.BasicBlock
	var expls []*wire.Explanation
	for _, fresh := range freshByClient {
		for _, e := range fresh {
			b, err := x86.ParseBlock(e.Block)
			if err != nil {
				return nil, err
			}
			blocks = append(blocks, b)
			c := *e
			c.Profile = nil
			expls = append(expls, &c)
		}
	}
	features, err := replayEngine(m, blocks, costmodel.AsBatch(st.model), cfg, o.seed)
	if err != nil {
		return nil, err
	}
	var totalUS int64
	for _, p := range profiles {
		totalUS += p.TotalUS
	}
	noteScaled(out, cfg.CoverageSamples, features, 1e3*float64(totalUS)/float64(len(profiles)))
	if err := replayWire(m, expls); err != nil {
		return nil, err
	}
	if err := st.fetchServerSpans(fetched); err != nil {
		return nil, err
	}
	// Only the fetched traces carry the server's spans; self times over
	// the others would charge the whole request to the client.
	st.spans.keep(fetched)
	return out, out.writeSpans(o, st.spans)
}

// libConfig is the effective configuration the service applies to a
// request for the served model without overrides.
func (st *serveState) libConfig() core.Config {
	return core.ApplyOptions(core.DefaultConfig(), core.WithEpsilon(st.eps), core.WithParallelism(1))
}

// counters scrapes the service's Prometheus counters (unlabelled series).
func (st *serveState) counters() (map[string]float64, error) {
	resp, err := st.client.Get(st.url + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	return out, nil
}

// quality computes the guards over the hot set and each client's leading
// fresh explanations, and re-checks held-out precision with the library.
func (st *serveState) quality(freshByClient [][]*wire.Explanation) (*quality, error) {
	var lead []*core.Explanation
	for _, body := range st.golden[0] {
		e, err := decodeExplanation(body, false)
		if err != nil {
			return nil, err
		}
		ce, err := e.Core()
		if err != nil {
			return nil, err
		}
		lead = append(lead, ce)
	}
	for _, fresh := range freshByClient {
		for i, e := range fresh {
			if i == serveQuality {
				break
			}
			ce, err := e.Core()
			if err != nil {
				return nil, err
			}
			lead = append(lead, ce)
		}
	}
	q := &quality{}
	q.certificationStats(lead)
	cfg := st.libConfig()
	return q, q.heldout(st.model, lead, cfg, st.in.seed)
}

// auditResult is the accuracy audit's outcome.
type auditResult struct {
	accuracy float64
	tally    tally
}

// accuracyAudit asks the running service to explain the hot set and each
// client's leading fresh blocks with the analytical model C, and scores
// the served explanations against C's closed-form ground truth.
func (st *serveState) accuracyAudit(freshByClient [][]*wire.Explanation) (auditResult, error) {
	blocks := append([]*x86.BasicBlock(nil), st.in.hot...)
	for c := range freshByClient {
		blocks = append(blocks, st.in.fresh[c][:serveAccuracy]...)
	}
	gtModel := analytical.New(x86.Haswell)
	accurate := make([]bool, len(blocks))
	statuses := make([]int, len(blocks))
	err := parallel(len(blocks), serveClients, func(i int) error {
		req := serveRequest{block: blocks[i], seed: core.BlockSeed(st.in.seed, 5000+i)}
		resp := st.do(req, "c", "", false)
		if resp.err != nil {
			return resp.err
		}
		statuses[i] = resp.status
		if resp.status != http.StatusOK {
			return nil
		}
		e, err := decodeExplanation(resp.body, false)
		if err != nil {
			return err
		}
		set, err := e.Features.Lib()
		if err != nil {
			return err
		}
		gt, err := gtModel.GroundTruth(blocks[i])
		if err != nil {
			return err
		}
		accurate[i] = core.Accurate(set, gt)
		return nil
	})
	var a auditResult
	for i := range blocks {
		a.tally.attempted++
		switch {
		case statuses[i] == http.StatusTooManyRequests:
			a.tally.refused++
		case statuses[i] != http.StatusOK:
			a.tally.failed++
		case accurate[i]:
			a.accuracy++
		}
	}
	a.accuracy /= float64(len(blocks))
	return a, err
}

// check recomputes a seeded sample of served explanations with a library
// ExplainContext call under the options the service applies (the model's
// ε, Parallelism 1, the request's seed) and compares bytes with the
// cache-accounting fields zeroed. It runs sequentially and also reports
// heap allocations per recomputed explanation.
func (st *serveState) check(results [][]served) (checked, mismatched int, allocs, allocBytes float64, err error) {
	rng := rand.New(rand.NewSource(subSeed(st.in.seed, 70)))
	type item struct {
		req  serveRequest
		expl *wire.Explanation
	}
	var items []item
	for _, h := range rng.Perm(len(st.in.hot))[:serveCheckHot] {
		e, err := decodeExplanation(st.golden[1][h], true)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		items = append(items, item{serveRequest{block: st.in.hot[h], seed: st.in.hotSeeds[h]}, e})
	}
	var fresh []served
	for _, rs := range results {
		for _, s := range rs {
			if s.expl != nil {
				fresh = append(fresh, s)
			}
		}
	}
	for _, k := range rng.Perm(len(fresh))[:min(serveCheckFresh, len(fresh))] {
		items = append(items, item{fresh[k].req, fresh[k].expl})
	}
	explainer := core.NewExplainerWithCache(st.model, core.DefaultConfig(), nil)
	o0, b0 := allocCounter()
	for _, it := range items {
		ref, err := explainer.ExplainContext(context.Background(), it.req.block,
			core.WithEpsilon(st.eps), core.WithParallelism(1), core.WithSeed(it.req.seed))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		a, err := comparableBytes(wire.FromExplanation(ref))
		if err != nil {
			return 0, 0, 0, 0, err
		}
		b, err := comparableBytes(it.expl)
		if err != nil {
			return 0, 0, 0, 0, err
		}
		if !bytes.Equal(a, b) {
			mismatched++
		}
	}
	o1, b1 := allocCounter()
	n := float64(len(items))
	return len(items), mismatched, float64(o1-o0) / n, float64(b1-b0) / n, nil
}

// fetchServerSpans imports the service's own spans for the given traces.
func (st *serveState) fetchServerSpans(traces []string) error {
	for _, id := range traces {
		resp, err := st.client.Get(st.url + "/debug/traces/" + id)
		if err != nil {
			return err
		}
		var body struct {
			Spans []obs.SpanRecord `json:"spans"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("trace %s: %w", id, err)
		}
		st.spans.addRecords(body.Spans)
	}
	return nil
}
