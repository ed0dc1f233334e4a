package wire

// Tests for the one HTTP client, Call, and the one base-URL normalizer.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func TestBaseURL(t *testing.T) {
	cases := map[string]string{
		"127.0.0.1:8372":  "http://127.0.0.1:8372",
		"http://host:1/":  "http://host:1",
		" https://host ":  "https://host",
		"localhost:8372/": "http://localhost:8372",
		"":                "",
		// Every trailing slash goes: the result is a worker's identity.
		"http://host:1//": "http://host:1",
		"  / ":            "",
	}
	for in, want := range cases {
		if got := BaseURL(in); got != want {
			t.Errorf("BaseURL(%q) = %q, want %q", in, got, want)
		}
	}
}

// TestCallErrorEnvelope: a JSON 200 decodes; a non-200 surfaces the
// server's own message when the body carries an Error envelope, and the
// bare status otherwise.
func TestCallErrorEnvelope(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			w.Write([]byte(`{"n": 7}`))
		case "/enveloped":
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error": "tracing is disabled"}`))
		default:
			http.Error(w, "plain", http.StatusTeapot)
		}
	}))
	defer ts.Close()
	ctx := context.Background()

	type counted struct {
		N int `json:"n"`
	}
	out, err := Call[counted](ctx, http.DefaultClient, ts.URL+"/ok", "", nil)
	if err != nil || out.N != 7 {
		t.Fatalf("ok: %v %+v", err, out)
	}
	_, err = Call[counted](ctx, http.DefaultClient, ts.URL+"/enveloped", "", nil)
	if err == nil || !strings.Contains(err.Error(), "tracing is disabled") {
		t.Errorf("envelope error not surfaced: %v", err)
	}
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusNotFound {
		t.Errorf("envelope error is not a 404 StatusError: %#v", err)
	}
	_, err = Call[counted](ctx, http.DefaultClient, ts.URL+"/other", "", nil)
	if err == nil || !strings.Contains(err.Error(), "418") {
		t.Errorf("plain non-200 not surfaced: %v", err)
	}
}

// TestCallRequestEncoding: a nil input is a GET; a message with a
// binary encoding is POSTed as a frame, one without as JSON; every
// request accepts frames and carries the traceparent it was given.
func TestCallRequestEncoding(t *testing.T) {
	type seen struct{ method, ctype, accept, tp string }
	var got seen
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got = seen{r.Method, r.Header.Get("Content-Type"), r.Header.Get("Accept"), r.Header.Get("Traceparent")}
		body, _ := io.ReadAll(r.Body)
		switch r.URL.Path {
		case "/v1/predict":
			msg, err := DecodeBinary(body)
			req, ok := msg.(*PredictRequest)
			if err != nil || !ok {
				http.Error(w, "bad frame", http.StatusBadRequest)
				return
			}
			frame, _ := EncodeBinary(&PredictResponse{Model: req.Model, Predictions: []float64{1.5}})
			w.Header().Set("Content-Type", FrameContentType)
			w.Write(frame)
		case "/v1/cluster/join":
			var req JoinRequest
			if err := json.Unmarshal(body, &req); err != nil {
				http.Error(w, "bad json", http.StatusBadRequest)
				return
			}
			json.NewEncoder(w).Encode(JoinResponse{Worker: req.URL, TTLSeconds: 15})
		default:
			w.Write([]byte(`{}`))
		}
	}))
	defer ts.Close()
	ctx := context.Background()

	pr, err := Call[PredictResponse](ctx, http.DefaultClient, ts.URL+"/v1/predict", "00-tp-01",
		&PredictRequest{Blocks: []string{"add rax, rbx"}, Model: "uica"})
	if err != nil || pr.Model != "uica" || len(pr.Predictions) != 1 {
		t.Fatalf("framed predict: %v %+v", err, pr)
	}
	if want := (seen{http.MethodPost, FrameContentType, FrameContentType, "00-tp-01"}); got != want {
		t.Errorf("predict request %+v, want %+v", got, want)
	}

	jr, err := Call[JoinResponse](ctx, http.DefaultClient, ts.URL+"/v1/cluster/join", "",
		&JoinRequest{URL: "http://w:1", Capacity: 2})
	if err != nil || jr.Worker != "http://w:1" {
		t.Fatalf("json join: %v %+v", err, jr)
	}
	if want := (seen{http.MethodPost, "application/json", FrameContentType, ""}); got != want {
		t.Errorf("join request %+v, want %+v", got, want)
	}

	if _, err := Call[struct{}](ctx, http.DefaultClient, ts.URL+"/readyz", "", nil); err != nil {
		t.Fatal(err)
	}
	if want := (seen{http.MethodGet, "", FrameContentType, ""}); got != want {
		t.Errorf("get request %+v, want %+v", got, want)
	}
}

// TestCallFramedAnswers: a framed Error envelope surfaces its message,
// and a framed 200 carrying the wrong message type is an error.
func TestCallFramedAnswers(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", FrameContentType)
		if r.URL.Path == "/fail" {
			frame, _ := EncodeBinary(&Error{Error: "unknown model \"nosuchmodel\""})
			w.WriteHeader(http.StatusBadRequest)
			w.Write(frame)
			return
		}
		frame, _ := EncodeBinary(&PredictResponse{Model: "uica"})
		w.Write(frame)
	}))
	defer ts.Close()
	ctx := context.Background()

	_, err := Call[PredictResponse](ctx, http.DefaultClient, ts.URL+"/fail", "", nil)
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest || se.Msg != `unknown model "nosuchmodel"` {
		t.Fatalf("framed envelope: %#v", err)
	}
	if want := `server status 400: unknown model "nosuchmodel"`; err.Error() != want {
		t.Errorf("error text %q, want %q", err, want)
	}

	out, err := Call[ShardResponse](ctx, http.DefaultClient, ts.URL+"/ok", "", nil)
	if err == nil || out != nil || !strings.Contains(err.Error(), "*wire.PredictResponse") {
		t.Fatalf("wrong-type frame accepted: %v %+v", err, out)
	}
	if errors.As(err, &se) {
		t.Errorf("a 200 of the wrong type is not a status error: %v", err)
	}
}

// TestCallReadBound: a success body past the read bound is an error
// after a bounded read, never an unbounded one — the server here would
// stream forever.
func TestCallReadBound(t *testing.T) {
	chunk := make([]byte, 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		for r.Context().Err() == nil {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	defer ts.Close()

	_, err := Call[PredictResponse](context.Background(), http.DefaultClient, ts.URL, "", nil)
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("endless body: err = %v, want a read-bound error", err)
	}
}
