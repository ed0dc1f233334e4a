// Package remote implements the HTTP cost-model client: a
// costmodel.BatchModel whose predictions come from a comet-serve
// instance's POST /v1/predict endpoint. Any running comet-serve is
// thereby a cost-model backend — an explainer on one machine can explain
// a model served on another, with the server's shared prediction cache
// absorbing repeated queries across every client.
//
// Dialing performs a discovery handshake (a predict request with no
// blocks), so the client knows the backend's canonical model name,
// microarchitecture, spec, and recommended ε before the first real
// query. Name returns the backend's model name, which makes a remote
// explanation byte-identical to a local one at the same seed.
//
// The Model interface has no error channel, so transport failures that
// survive the retry budget abort the in-flight explanation via
// costmodel.AbortQuery; the explainer surfaces them as ordinary errors.
package remote

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"net/url"
	"time"

	"github.com/comet-explain/comet/internal/costmodel"
	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// Options configures Dial. The wire format is not an option: every
// request is a binary frame.
type Options struct {
	// Model is the spec the server resolves for every request ("" = the
	// server's default model).
	Model string
	// Arch is the target microarchitecture when Model has no explicit
	// target ("" = the server's default, hsw).
	Arch string
	// Client is the HTTP client to use (nil = a 5-minute-timeout client;
	// corpus-sized predict batches against a training neural model are
	// slow on first contact).
	Client *http.Client
	// Retries is how many times a failed batch is retried on transport
	// errors or 429/503 backpressure before aborting (negative = 0;
	// zero = default 2).
	Retries int
	// Context, when non-nil, bounds every request this model makes — the
	// handshake, each predict round trip, and the backoff sleeps between
	// retries. Canceling it aborts an in-flight batch immediately
	// instead of letting the retry loop run its budget out. (The Model
	// interface carries no per-call context, so the model's lifetime
	// context is the cancellation scope.)
	Context context.Context
	// Log receives transport events (exhausted retry budgets) as
	// structured records (nil = the process default logger). Records are
	// tagged component=remote.
	Log *slog.Logger
}

// Model is the remote cost model. It is safe for concurrent use and
// implements costmodel.BatchModel natively — one HTTP round trip per
// batch, not per block.
type Model struct {
	url      string
	client   *http.Client
	reqModel string
	reqArch  string
	retries  int
	ctx      context.Context
	log      *slog.Logger

	name    string
	arch    x86.Arch
	epsilon float64
	spec    string
}

var _ costmodel.BatchModel = (*Model)(nil)

// Dial connects to a comet-serve base URL ("http://host:8372") and
// performs the discovery handshake. The server resolves (and warms) the
// requested model during the handshake, so a successful Dial returns a
// ready-to-query model.
func Dial(baseURL string, o Options) (*Model, error) {
	baseURL = wire.BaseURL(baseURL)
	if baseURL == "" {
		return nil, fmt.Errorf("remote: empty base URL")
	}
	client := o.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	retries := o.Retries
	if retries == 0 {
		retries = 2
	}
	if retries < 0 {
		retries = 0
	}
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	m := &Model{
		url:      baseURL,
		client:   client,
		reqModel: o.Model,
		reqArch:  o.Arch,
		retries:  retries,
		ctx:      ctx,
		log:      obs.Component(o.Log, "remote"),
	}
	resp, err := m.post(nil, "")
	if err != nil {
		return nil, fmt.Errorf("remote: handshake with %s: %w", baseURL, err)
	}
	arch, err := wire.ParseArch(resp.Arch)
	if err != nil {
		return nil, fmt.Errorf("remote: handshake with %s: %w", baseURL, err)
	}
	m.name = resp.Model
	m.arch = arch
	m.epsilon = resp.Epsilon
	m.spec = resp.Spec
	return m, nil
}

// Name implements costmodel.Model, returning the backend's canonical
// model name (not "remote") so explanations are attributed — and
// byte-identical — to the model actually answering the queries.
func (m *Model) Name() string { return m.name }

// Arch implements costmodel.Model.
func (m *Model) Arch() x86.Arch { return m.arch }

// Epsilon returns the backend's recommended ε-ball radius.
func (m *Model) Epsilon() float64 { return m.epsilon }

// RemoteSpec returns the canonical spec the server resolved ("uica@hsw").
func (m *Model) RemoteSpec() string { return m.spec }

// URL returns the backend base URL.
func (m *Model) URL() string { return m.url }

// Predict implements costmodel.Model with a single-block batch.
func (m *Model) Predict(b *x86.BasicBlock) float64 {
	return m.PredictBatch([]*x86.BasicBlock{b})[0]
}

// PredictBatch implements costmodel.BatchModel: one POST /v1/predict
// round trip for the whole batch. A failure that survives the retry
// budget aborts the in-flight explanation (costmodel.AbortQuery).
func (m *Model) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return m.predictBatch(blocks, "")
}

func (m *Model) predictBatch(blocks []*x86.BasicBlock, traceparent string) []float64 {
	srcs := make([]string, len(blocks))
	for i, b := range blocks {
		srcs[i] = b.String()
	}
	resp, err := m.post(srcs, traceparent)
	if err != nil {
		costmodel.AbortQuery(fmt.Errorf("remote model %s: %w", m.url, err))
	}
	if len(resp.Predictions) != len(blocks) {
		costmodel.AbortQuery(fmt.Errorf("remote model %s: %d predictions for %d blocks",
			m.url, len(resp.Predictions), len(blocks)))
	}
	return resp.Predictions
}

// WithTraceparent returns a view of the model that sends tp as the W3C
// traceparent header on every predict request, chaining the caller's
// trace into the backend server (which joins it and records its own
// spans under the same trace ID). The view shares this model's client
// and lifetime context; an empty tp returns the model
// itself. The shared model is never mutated, so concurrent requests can
// each carry their own trace.
func (m *Model) WithTraceparent(tp string) costmodel.Model {
	if tp == "" {
		return m
	}
	return tracedModel{m: m, traceparent: tp}
}

// tracedModel is the per-request trace-propagating view of a Model.
type tracedModel struct {
	m           *Model
	traceparent string
}

var _ costmodel.BatchModel = tracedModel{}

func (t tracedModel) Name() string   { return t.m.name }
func (t tracedModel) Arch() x86.Arch { return t.m.arch }
func (t tracedModel) Predict(b *x86.BasicBlock) float64 {
	return t.PredictBatch([]*x86.BasicBlock{b})[0]
}
func (t tracedModel) PredictBatch(blocks []*x86.BasicBlock) []float64 {
	return t.m.predictBatch(blocks, t.traceparent)
}

// retryBackoff returns the sleep before retry attempt n (1-based):
// linear growth with up to 50% random jitter, so a fleet of clients
// retrying against one recovering server doesn't re-arrive in lockstep.
func retryBackoff(attempt int) time.Duration {
	base := time.Duration(attempt) * 100 * time.Millisecond
	return base + time.Duration(rand.Int63n(int64(base)/2+1))
}

// post sends one predict request, retrying transport errors and
// 429/503 backpressure with jittered linear backoff. The model's
// lifetime context cancels in-flight requests and interrupts backoff
// sleeps — a canceled caller never waits out the retry budget.
func (m *Model) post(blocks []string, traceparent string) (*wire.PredictResponse, error) {
	if blocks == nil {
		blocks = []string{} // handshake: an explicit empty batch
	}
	wreq := &wire.PredictRequest{Blocks: blocks, Model: m.reqModel, Arch: m.reqArch}
	var lastErr error
	attempts := 0
	for attempt := 0; attempt <= m.retries; attempt++ {
		if attempt > 0 {
			timer := time.NewTimer(retryBackoff(attempt))
			select {
			case <-timer.C:
			case <-m.ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("%w (canceled after %d attempt(s): %v)", lastErr, attempts, m.ctx.Err())
			}
		}
		attempts++
		resp, err := wire.Call[wire.PredictResponse](m.ctx, m.client, m.url+"/v1/predict", traceparent, wreq)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if m.ctx.Err() != nil {
			// Mid-batch cancellation: stop immediately, don't burn the
			// remaining retries against a caller that has left.
			return nil, fmt.Errorf("%w (after %d attempt(s))", lastErr, attempts)
		}
		if !retryable(err) {
			break
		}
	}
	m.log.Warn("predict failed", "url", m.url, "attempts", attempts, "error", lastErr)
	return nil, fmt.Errorf("%w (after %d attempt(s))", lastErr, attempts)
}

// retryable reports whether a failed round trip is worth repeating:
// transport failures and server backpressure (429/503) are; any other
// status, or an answer that does not decode, is final.
func retryable(err error) bool {
	var se *wire.StatusError
	if errors.As(err, &se) {
		return se.Code == http.StatusTooManyRequests || se.Code == http.StatusServiceUnavailable
	}
	var ue *url.Error
	return errors.As(err, &ue)
}
