package comet_test

// Remote-model equivalence: an explanation computed through a
// RemoteCostModel dialed into a live comet-serve is byte-identical to a
// local Explain of the same model at the same seed. This is the
// end-to-end guarantee behind the remote@<url> spec — moving the cost
// model to another process changes where queries are answered, never
// what the explanation says.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/comet-explain/comet"
	"github.com/comet-explain/comet/internal/service"
	"github.com/comet-explain/comet/internal/wire"
)

// startBackend runs an in-process comet-serve over real HTTP.
func startBackend(t *testing.T) *httptest.Server {
	t.Helper()
	srv := service.New(service.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})
	return ts
}

func explainJSON(t *testing.T, model comet.CostModel, epsilon float64) []byte {
	t.Helper()
	cfg := comet.DefaultConfig()
	cfg.Epsilon = epsilon
	cfg.CoverageSamples = 200
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx\npop rbx")
	expl, err := comet.NewExplainer(model, cfg).ExplainContext(context.Background(), block,
		comet.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(wire.FromExplanation(expl))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func TestRemoteEquivalence(t *testing.T) {
	ts := startBackend(t)

	// Resolve the remote model through the registry, exactly as a spec
	// string user would.
	remoteRM, err := comet.ResolveModelString("remote@" + ts.URL + "?model=uica&arch=hsw")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := remoteRM.Model.Name(), "uica"; got != want {
		t.Fatalf("remote model name %q, want the backend's %q", got, want)
	}
	localRM, err := comet.ResolveModelString("uica@hsw")
	if err != nil {
		t.Fatal(err)
	}
	if remoteRM.Epsilon != localRM.Epsilon {
		t.Errorf("remote ε %v != local ε %v", remoteRM.Epsilon, localRM.Epsilon)
	}

	remoteJSON := explainJSON(t, remoteRM.Model, remoteRM.Epsilon)
	localJSON := explainJSON(t, localRM.Model, localRM.Epsilon)
	if string(remoteJSON) != string(localJSON) {
		t.Errorf("remote explanation differs from local at the same seed:\nremote %s\nlocal  %s", remoteJSON, localJSON)
	}
}

// TestRemoteEpsilonPropagates: a remote analytical backend reports the
// quantized ε = 0.25, so explanations against it use the right ball.
func TestRemoteEpsilonPropagates(t *testing.T) {
	ts := startBackend(t)
	rm, err := comet.ResolveModelString("remote@" + ts.URL + "?model=c")
	if err != nil {
		t.Fatal(err)
	}
	if rm.Epsilon != comet.AnalyticalEpsilon {
		t.Errorf("remote analytical ε = %v, want %v", rm.Epsilon, comet.AnalyticalEpsilon)
	}
	if rm.Model.Name() != "C" && rm.Model.Name() != "c" {
		t.Errorf("unexpected backend name %q", rm.Model.Name())
	}
}

// TestRemoteFailureSurfacesAsError: when the backend dies mid-search the
// explainer returns an error instead of panicking or fabricating values.
func TestRemoteFailureSurfacesAsError(t *testing.T) {
	ts := startBackend(t)
	rm, err := comet.DialRemoteModel(ts.URL, comet.RemoteModelOptions{Model: "uica", Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts.Close() // kill the backend before the first real query

	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 50
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx")
	_, err = comet.NewExplainer(rm, cfg).ExplainContext(context.Background(), block, comet.WithSeed(1))
	if err == nil {
		t.Fatal("explaining against a dead backend succeeded")
	}

	// Dialing a dead backend fails fast, and so does registry resolution.
	if _, err := comet.ResolveModelString("remote@" + ts.URL + "?retries=0"); err == nil {
		t.Error("resolving a dead backend succeeded")
	}
}

// TestRemoteRetriesExhausted: persistent 503 backpressure burns exactly
// the retry budget (initial attempt + Retries) and surfaces an error
// naming the attempt count.
func TestRemoteRetriesExhausted(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer ts.Close()

	_, err := comet.DialRemoteModel(ts.URL, comet.RemoteModelOptions{Retries: 2})
	if err == nil {
		t.Fatal("dialing a permanently overloaded backend succeeded")
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d attempts, want 3 (1 + 2 retries)", got)
	}
	if !strings.Contains(err.Error(), "3 attempt(s)") || !strings.Contains(err.Error(), "overloaded") {
		t.Errorf("error %q does not report the attempts and cause", err)
	}
}

// TestRemote502IsFinal: a 502 from the backend (its own chained model
// failed) is not backpressure — it must surface immediately, without
// burning retries, with the gateway error's message intact.
func TestRemote502IsFinal(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
		_, _ = w.Write([]byte(`{"error":"backend predict failed: chained model is gone"}`))
	}))
	defer ts.Close()

	_, err := comet.DialRemoteModel(ts.URL, comet.RemoteModelOptions{Retries: 3})
	if err == nil {
		t.Fatal("dialing through a broken gateway succeeded")
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d attempts, want 1 (502 is final)", got)
	}
	if !strings.Contains(err.Error(), "server status 502") || !strings.Contains(err.Error(), "chained model is gone") {
		t.Errorf("error %q does not carry the 502 mapping", err)
	}
}

// TestRemoteRejectionIsFinal: a current server's 400 to a framed
// request (here, an unknown model) is final. It costs one framed round
// trip and no JSON retry, and the error counts one attempt.
func TestRemoteRejectionIsFinal(t *testing.T) {
	srv := service.New(service.Config{})
	var mu sync.Mutex
	var ctypes []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ctypes = append(ctypes, r.Header.Get("Content-Type"))
		mu.Unlock()
		srv.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		ts.Close()
		_ = srv.Shutdown(context.Background())
	})

	_, err := comet.DialRemoteModel(ts.URL, comet.RemoteModelOptions{Model: "nosuchmodel"})
	if err == nil {
		t.Fatal("dialing an unknown model succeeded")
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ctypes) != 1 || ctypes[0] != wire.FrameContentType {
		t.Errorf("server saw requests %q, want exactly one %q", ctypes, wire.FrameContentType)
	}
	if !strings.Contains(err.Error(), "server status 400") || !strings.Contains(err.Error(), "1 attempt(s)") {
		t.Errorf("error %q does not report one final 400 attempt", err)
	}
}

// TestRemoteCancelDuringBackoff: a canceled lifetime context interrupts
// the retry loop's backoff sleep — the caller never waits out the
// budget against a backend that keeps saying 503.
func TestRemoteCancelDuringBackoff(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
		_, _ = w.Write([]byte(`{"error":"overloaded"}`))
	}))
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	// 20 retries of jittered linear backoff would sleep for minutes;
	// cancellation must cut that to the 30ms fuse.
	_, err := comet.DialRemoteModel(ts.URL, comet.RemoteModelOptions{Retries: 20, Context: ctx})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial succeeded against a canceled context")
	}
	if elapsed > 5*time.Second {
		t.Errorf("canceled dial took %v, want prompt return", elapsed)
	}
}

// TestRemoteMidBatchCancel: canceling the model's context mid-predict
// aborts the in-flight explanation promptly with an error (via the
// explainer's QueryError recovery boundary), not a hang or a panic.
func TestRemoteMidBatchCancel(t *testing.T) {
	backend := startBackend(t)
	handshook := make(chan struct{}, 1)
	stop := make(chan struct{})
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case handshook <- struct{}{}:
			// First request (the discovery handshake): pass through
			// faithfully — headers included, so the client's content
			// negotiation (binary frames vs JSON) works through the proxy.
			fwd, err := http.NewRequest(r.Method, backend.URL+r.URL.Path, r.Body)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			fwd.Header = r.Header.Clone()
			resp, err := http.DefaultClient.Do(fwd)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			if ct := resp.Header.Get("Content-Type"); ct != "" {
				w.Header().Set("Content-Type", ct)
			}
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
		default:
			// Every later batch hangs until the client gives up (or the
			// test tears down; without the stop channel proxy.Close can
			// wait on a parked handler forever).
			select {
			case <-r.Context().Done():
			case <-stop:
			}
		}
	}))
	defer proxy.Close()
	defer close(stop)

	ctx, cancel := context.WithCancel(context.Background())
	rm, err := comet.DialRemoteModel(proxy.URL, comet.RemoteModelOptions{Model: "uica", Context: ctx})
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfg := comet.DefaultConfig()
	cfg.CoverageSamples = 50
	block := comet.MustParseBlock("add rcx, rax\nmov rdx, rcx")
	start := time.Now()
	_, err = comet.NewExplainer(rm, cfg).ExplainContext(context.Background(), block, comet.WithSeed(1))
	if err == nil {
		t.Fatal("explanation succeeded over a canceled remote model")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("mid-batch cancel took %v to surface", elapsed)
	}
}
