package wire

// The one client of the comet-serve HTTP API. Every outbound call — the
// remote cost model's predict batches, the coordinator's shard leases
// and readiness probes, a worker's cluster join, the federation fan-out
// and the observability CLIs — is one Call round trip: a request
// message goes out as a binary frame when it has a binary encoding and
// as JSON otherwise, and the answer comes back on whichever format the
// server negotiated. There is no fallback from frames to JSON: a peer
// that cannot decode a frame answers 400 like any other bad request.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Read bounds of a round trip: a success body is read up to
// maxResponseBytes and a failure's error envelope up to maxErrorBytes.
const (
	maxResponseBytes = 32 << 20
	maxErrorBytes    = 64 << 10
)

// StatusError is a non-200 answer. Msg carries the server's framed or
// JSON Error envelope when the body held one ("" otherwise).
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("server status %d", e.Code)
	}
	return fmt.Sprintf("server status %d: %s", e.Code, e.Msg)
}

// BaseURL normalizes a comet-serve address into a base URL: surrounding
// space and trailing slashes dropped, "http://" assumed when no scheme
// is given (comet-serve is plain HTTP; anything fronting it with TLS can
// be named explicitly). Empty input stays empty. The result is also a
// cluster worker's identity, so equal servers normalize equally.
func BaseURL(addr string) string {
	u := strings.TrimRight(strings.TrimSpace(addr), "/")
	if u != "" && !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

// Call performs one round trip to url and decodes the answer as a *T.
//
// A nil in sends a GET; anything else is POSTed, as a binary frame when
// in has a binary encoding and as JSON otherwise. Every request accepts
// frames and carries traceparent when it is non-empty. A 200 body is
// decoded as a frame or as JSON according to its Content-Type; a frame
// carrying anything but a *T is an error. Call[struct{}] asks for the
// status alone and leaves a 200 body unread. Any other status is a
// *StatusError.
func Call[T any](ctx context.Context, hc *http.Client, url, traceparent string, in any) (*T, error) {
	method, ctype := http.MethodGet, ""
	var body io.Reader
	if in != nil {
		b, err := EncodeBinary(in)
		ctype = FrameContentType
		if errors.Is(err, errNoBinary) {
			b, err = json.Marshal(in)
			ctype = "application/json"
		}
		if err != nil {
			return nil, err
		}
		method, body = http.MethodPost, bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		// Not a transport failure, so not wrapped: retrying cannot help.
		return nil, fmt.Errorf("wire: %s %s: %v", method, url, err)
	}
	req.Header.Set("Accept", FrameContentType)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	framed := strings.HasPrefix(resp.Header.Get("Content-Type"), FrameContentType)
	if resp.StatusCode != http.StatusOK {
		return nil, statusError(resp, framed)
	}
	out := new(T)
	if _, bare := any(out).(*struct{}); bare {
		return out, nil
	}
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("wire: reading %s response: %w", url, err)
	}
	if len(b) > maxResponseBytes {
		return nil, fmt.Errorf("wire: %s response exceeds %d bytes", url, maxResponseBytes)
	}
	if framed {
		msg, err := DecodeBinary(b)
		if err != nil {
			return nil, fmt.Errorf("wire: decoding %s response frame: %w", url, err)
		}
		m, ok := msg.(*T)
		if !ok {
			return nil, fmt.Errorf("wire: %s response frame carries %T, want %T", url, msg, out)
		}
		return m, nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return nil, fmt.Errorf("wire: decoding %s response: %w", url, err)
	}
	return out, nil
}

// statusError reads a non-200 answer's Error envelope, framed or JSON,
// when it has one.
func statusError(resp *http.Response, framed bool) *StatusError {
	limited := io.LimitReader(resp.Body, maxErrorBytes)
	var env Error
	if framed {
		b, _ := io.ReadAll(limited)
		if msg, err := DecodeBinary(b); err == nil {
			if m, ok := msg.(*Error); ok {
				env = *m
			}
		}
	} else if json.NewDecoder(limited).Decode(&env) != nil {
		env = Error{}
	}
	return &StatusError{Code: resp.StatusCode, Msg: env.Error}
}
