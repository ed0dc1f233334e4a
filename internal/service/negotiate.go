package service

// Content negotiation between the JSON facade and the binary frame
// protocol. JSON remains the default and the compatibility surface;
// clients opt into frames per message direction:
//
//   - a request with Content-Type: application/x-comet-frame carries a
//     binary-framed body (one frame, one message);
//   - a request whose Accept header lists application/x-comet-frame gets
//     a binary-framed response, errors included (a framed wire.Error).
//
// Binary explain requests additionally unlock the interned fast path: the
// frame bytes are a canonical encoding of the request, so SHA-256 over
// the raw body is a complete request identity, computed once at ingress
// and kept as a second key in the result store. A hit writes pre-encoded
// response bytes without parsing the block, resolving the model, or even
// decoding the frame.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"github.com/comet-explain/comet/internal/obs"
	"github.com/comet-explain/comet/internal/wire"
	"github.com/comet-explain/comet/internal/x86"
)

// cachedExplanation is what the result store holds, under the request's
// content ID and, for binary requests, its frame key too: the
// explanation plus lazily pre-encoded response bodies, so repeat queries
// cost zero encoding work on either wire format.
type cachedExplanation struct {
	expl     *wire.Explanation
	jsonOnce sync.Once
	jsonBody []byte
	binOnce  sync.Once
	binBody  []byte
	// profile is the stage profile captured when this explanation was
	// computed, kept out of expl (and so out of the pre-encoded bodies,
	// which must stay byte-identical across cache layers) and attached
	// only to explicit ?profile=1 responses. Nil for explanations
	// rehydrated from the durable store, which does not record profiles.
	profile *wire.Profile
}

func newCachedExplanation(e *wire.Explanation) *cachedExplanation {
	return &cachedExplanation{expl: e}
}

// JSON returns the explanation exactly as writeJSON would encode it —
// json.Encoder appends a newline — so cached responses stay
// byte-identical to first-time responses.
func (c *cachedExplanation) JSON() []byte {
	c.jsonOnce.Do(func() {
		if b, err := json.Marshal(c.expl); err == nil {
			c.jsonBody = append(b, '\n')
		}
	})
	return c.jsonBody
}

// Frame returns the explanation as one binary frame.
func (c *cachedExplanation) Frame() []byte {
	c.binOnce.Do(func() {
		if b, err := wire.EncodeBinary(c.expl); err == nil {
			c.binBody = b
		}
	})
	return c.binBody
}

// isFrameRequest reports whether the request body is a binary frame.
func isFrameRequest(r *http.Request) bool {
	ct := r.Header.Get("Content-Type")
	return ct == wire.FrameContentType || strings.HasPrefix(ct, wire.FrameContentType+";")
}

// acceptsFrame reports whether the client asked for a binary response.
func acceptsFrame(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.FrameContentType)
}

// httpError is a request failure together with the status that answers
// it. A handler and its steps return one; serve writes it.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return e.msg }

func errorf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// bodyError maps a failed body read or decode to 413 when the body
// passed MaxBodyBytes, 400 otherwise.
func bodyError(err error, format string) error {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return errorf(http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	}
	return errorf(http.StatusBadRequest, format, err)
}

// inbound is a request past serve's prologue: the response format the
// client negotiated and, for a binary POST, the raw frame in a pooled
// buffer (nil for a JSON body, which decodeRequest reads itself).
type inbound struct {
	binResp bool
	frame   *[]byte
}

// readFrame reads a binary request body, under MaxBodyBytes, into a
// pooled buffer.
func (s *Server) readFrame(w http.ResponseWriter, r *http.Request) (*[]byte, error) {
	buf := wire.GetBuffer()
	bb := bytes.NewBuffer((*buf)[:0])
	_, err := bb.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	*buf = bb.Bytes()
	if err != nil {
		wire.PutBuffer(buf)
		return nil, bodyError(err, "reading request body: %v")
	}
	return buf, nil
}

// decodeRequest decodes a POST body into T: the binary frame, whose
// buffer it returns to the pool, or the JSON body under MaxBodyBytes with
// unknown fields rejected.
func decodeRequest[T any](s *Server, w http.ResponseWriter, r *http.Request, in inbound) (*T, error) {
	if in.frame == nil {
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		dec.DisallowUnknownFields()
		v := new(T)
		if err := dec.Decode(v); err != nil {
			return nil, bodyError(err, "bad request body: %v")
		}
		return v, nil
	}
	defer wire.PutBuffer(in.frame)
	msg, err := wire.DecodeBinary(*in.frame)
	if err != nil {
		return nil, errorf(http.StatusBadRequest, "bad frame: %v", err)
	}
	s.metrics.frameRequests.Add(1)
	typed, ok := msg.(*T)
	if !ok {
		return nil, errorf(http.StatusBadRequest, "frame carries %T, want %T", msg, (*T)(nil))
	}
	return typed, nil
}

// maxBlockLen bounds the instructions of one block on every HTTP block
// input. Building a block's dependency graph costs time and memory
// quadratic in its length, and an explanation's feature set grows with
// it, so the body-size cap alone bounds nothing useful. ELF uploads split
// their blocks shorter still (ingest.DefaultMaxBlockLen).
const maxBlockLen = 64

// parseBlocks is the block parser of every route that carries block
// text: at most MaxCorpusBlocks blocks of at most maxBlockLen
// instructions each (413 beyond either), each through x86.ParseBlock
// (400 naming the first that fails). It appends to dst; a nil dst gets a
// slice sized for texts.
func (s *Server) parseBlocks(dst []*x86.BasicBlock, texts ...string) ([]*x86.BasicBlock, error) {
	if len(texts) > s.cfg.MaxCorpusBlocks {
		return nil, errorf(http.StatusRequestEntityTooLarge,
			"%d blocks exceed the limit of %d", len(texts), s.cfg.MaxCorpusBlocks)
	}
	if dst == nil {
		dst = make([]*x86.BasicBlock, 0, len(texts))
	}
	for i, text := range texts {
		// Counted before parsing: a parsed instruction costs tens of
		// times its text, so one long block in a full body would
		// otherwise allocate hundreds of MiB before the 413.
		if n := x86.CountInstructions(text); n > maxBlockLen {
			return nil, errorf(http.StatusRequestEntityTooLarge,
				"block %d: %d instructions exceed the limit of %d", i, n, maxBlockLen)
		}
		b, err := x86.ParseBlock(text)
		if err != nil {
			return nil, errorf(http.StatusBadRequest, "block %d: %v", i, err)
		}
		dst = append(dst, b)
	}
	return dst, nil
}

// writeFrame writes msg as one binary frame. It reports false when msg
// has no binary encoding, in which case nothing was written and the
// caller falls back to JSON.
func writeFrame(w http.ResponseWriter, code int, msg any) bool {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	b, err := wire.AppendBinary((*buf)[:0], msg)
	if err != nil {
		return false
	}
	*buf = b
	w.Header().Set("Content-Type", wire.FrameContentType)
	w.WriteHeader(code)
	_, _ = w.Write(b)
	return true
}

// writeNegotiated writes msg as a binary frame when the client accepts
// one, as JSON otherwise.
func writeNegotiated(w http.ResponseWriter, binResp bool, code int, msg any) {
	if binResp && writeFrame(w, code, msg) {
		return
	}
	writeJSON(w, code, msg)
}

// writeServed writes an explanation served from the named tier and
// records the tier on the request span. A ?profile=1 response carries
// the stage profile stamped with that tier, encoded fresh from a copy:
// the shared cachedExplanation and its pre-encoded bodies are never
// mutated, so profile responses cannot leak into the byte-identity
// guarantees of the plain path. A plain response writes the pre-encoded
// body (the common, zero-encode case). The query string is only parsed
// when present, so the hot path never pays for it.
func (s *Server) writeServed(w http.ResponseWriter, r *http.Request, binResp bool, c *cachedExplanation, source string) {
	obs.SpanFromContext(r.Context()).Set("source", source)
	if r.URL.RawQuery != "" && r.URL.Query().Get("profile") == "1" {
		clone := *c.expl
		var p wire.Profile
		if c.profile != nil {
			p = *c.profile
		}
		p.Source = source
		clone.Profile = &p
		writeNegotiated(w, binResp, http.StatusOK, &clone)
		return
	}
	if binResp {
		if b := c.Frame(); b != nil {
			w.Header().Set("Content-Type", wire.FrameContentType)
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(b)
			return
		}
	}
	if b := c.JSON(); b != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(b)
		return
	}
	writeJSON(w, http.StatusOK, c.expl)
}
