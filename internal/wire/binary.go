package wire

// The versioned binary codec carried inside COMET frames on the network.
// A binary message payload is
//
//	version (1B) | kind (1B) | body
//
// where the body is a flat field-by-field encoding: varints for ints,
// IEEE-754 bits (8B LE) for floats, uvarint-length-prefixed bytes for
// strings, one byte for bools. Every field of a struct is always encoded
// (zero values cost one byte under varint), so decode reconstructs the
// struct exactly and the package's JSON byte-stability guarantee carries
// over: a binary-negotiated response, decoded and re-marshaled as JSON,
// is byte-identical to the JSON the server would have sent directly.
//
// The decoder is hostile-input safe: every read is bounds-checked, every
// slice allocation is capped by the bytes remaining in the payload, and
// no input can make it panic (fuzzed in fuzz_test.go).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// BinaryVersion is the current binary message version. Decoders reject
// versions they don't understand instead of guessing.
//
// Version history:
//
//	1 — initial codec; no longer decoded.
//	2 — Explanation gained an optional trailing Profile (bool-prefixed,
//	    like ConfigOverrides).
//	3 — ConfigSnapshot lost Parallelism: each Γ draw is seeded from its
//	    index, so the worker count is no longer part of an
//	    explanation's identity, and version-2 peers sample differently.
//	4 — ConfigOverrides lost Parallelism: the server samples each
//	    explanation on one goroutine, whatever the client asks.
//	5 — ShardRequest lost Arch and ShardBlock lost Seed: the spec names
//	    the target, and a worker derives each block's seed from the
//	    lease's Config.Seed and the block's corpus index.
//	6 — ConfigOverrides and ConfigSnapshot lost BatchSize: batching
//	    only groups cache misses into model calls, so no explanation
//	    byte depends on it.
//
// Peers on different versions reject each other's frames with a 400
// error; no client falls back to JSON, so a fleet runs one build.
const BinaryVersion = 6

// errNoBinary reports a message type without a binary encoding; Call
// sends such messages as JSON.
var errNoBinary = errors.New("wire: no binary encoding")

// Binary message kinds.
const (
	msgExplanation     byte = 1
	msgCorpusResult    byte = 2
	msgExplainRequest  byte = 3
	msgPredictRequest  byte = 4
	msgPredictResponse byte = 5
	msgShardRequest    byte = 6
	msgShardResponse   byte = 7
	msgError           byte = 8
	msgJobSummary      byte = 9
)

// EncodeBinary returns one complete frame carrying the binary encoding
// of msg. Supported messages: *Explanation, *CorpusResult,
// *ExplainRequest, *PredictRequest, *PredictResponse, *ShardRequest,
// *ShardResponse, *Error, *JobSummary.
func EncodeBinary(msg any) ([]byte, error) {
	return AppendBinary(nil, msg)
}

// AppendBinary appends one complete frame carrying the binary encoding
// of msg to dst and returns the extended slice. The payload is built in
// place, so a caller reusing dst across messages amortizes to zero
// allocations.
func AppendBinary(dst []byte, msg any) ([]byte, error) {
	start := len(dst)
	var hdr [FrameHeaderSize]byte
	dst = append(dst, hdr[:]...)
	dst = append(dst, BinaryVersion)
	switch m := msg.(type) {
	case *Explanation:
		dst = append(dst, msgExplanation)
		dst = appendExplanation(dst, m)
	case *CorpusResult:
		dst = append(dst, msgCorpusResult)
		dst = appendCorpusResult(dst, m)
	case *ExplainRequest:
		dst = append(dst, msgExplainRequest)
		dst = appendExplainRequest(dst, m)
	case *PredictRequest:
		dst = append(dst, msgPredictRequest)
		dst = appendPredictRequest(dst, m)
	case *PredictResponse:
		dst = append(dst, msgPredictResponse)
		dst = appendPredictResponse(dst, m)
	case *ShardRequest:
		dst = append(dst, msgShardRequest)
		dst = appendShardRequest(dst, m)
	case *ShardResponse:
		dst = append(dst, msgShardResponse)
		dst = appendShardResponse(dst, m)
	case *Error:
		dst = append(dst, msgError)
		dst = appendStr(dst, m.Error)
	case *JobSummary:
		dst = append(dst, msgJobSummary)
		dst = appendJobSummary(dst, m)
	default:
		return dst[:start], fmt.Errorf("%w for %T", errNoBinary, msg)
	}
	return finishFrame(dst, start)
}

// DecodeBinary verifies that data is exactly one intact frame and decodes
// its binary message, returning one of the pointer types AppendBinary
// accepts.
func DecodeBinary(data []byte) (any, error) {
	payload, err := VerifyFrame(data)
	if err != nil {
		return nil, err
	}
	return DecodeBinaryPayload(payload)
}

// DecodeBinaryPayload decodes one binary message payload (the frame
// already stripped — what ScanFrames or FrameReader hand out).
func DecodeBinaryPayload(payload []byte) (any, error) {
	if len(payload) < 2 {
		return nil, fmt.Errorf("wire: binary message of %d bytes is shorter than its 2-byte prologue", len(payload))
	}
	if payload[0] != BinaryVersion {
		return nil, fmt.Errorf("wire: unsupported binary message version %d", payload[0])
	}
	kind := payload[1]
	d := &bdec{buf: payload, off: 2}
	var msg any
	switch kind {
	case msgExplanation:
		msg = decodeExplanation(d)
	case msgCorpusResult:
		msg = decodeCorpusResult(d)
	case msgExplainRequest:
		msg = decodeExplainRequest(d)
	case msgPredictRequest:
		msg = decodePredictRequest(d)
	case msgPredictResponse:
		msg = decodePredictResponse(d)
	case msgShardRequest:
		msg = decodeShardRequest(d)
	case msgShardResponse:
		msg = decodeShardResponse(d)
	case msgError:
		msg = &Error{Error: d.str()}
	case msgJobSummary:
		msg = decodeJobSummary(d)
	default:
		return nil, fmt.Errorf("wire: unknown binary message kind %d", kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("wire: %d trailing bytes after binary message", len(d.buf)-d.off)
	}
	return msg, nil
}

// --- encode primitives ---

func appendInt(dst []byte, v int) []byte   { return binary.AppendVarint(dst, int64(v)) }
func appendI64(dst []byte, v int64) []byte { return binary.AppendVarint(dst, v) }
func appendLen(dst []byte, n int) []byte   { return binary.AppendUvarint(dst, uint64(n)) }
func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}
func appendStr(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// --- decode primitives ---

// bdec is a bounds-checked cursor over one message payload. The first
// error sticks; every subsequent read returns a zero value, so decode
// functions read straight through without per-field error plumbing.
type bdec struct {
	buf []byte
	off int
	err error
}

func (d *bdec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *bdec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *bdec) int_() int { return int(d.varint()) }

func (d *bdec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if len(d.buf)-d.off < 8 {
		d.fail("truncated float at offset %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *bdec) bool_() bool {
	if d.err != nil {
		return false
	}
	if d.off >= len(d.buf) {
		d.fail("truncated bool at offset %d", d.off)
		return false
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		d.fail("invalid bool byte %d at offset %d", b, d.off-1)
		return false
	}
	return b == 1
}

// length reads a collection or string length and refuses any count that
// could not possibly fit in the remaining payload at elemSize bytes per
// element — the over-allocation guard: a hostile 4-byte length field can
// never make the decoder allocate more than the payload it arrived in.
func (d *bdec) length(elemSize int) int {
	v := d.uvarint()
	if d.err != nil {
		return 0
	}
	remaining := len(d.buf) - d.off
	if v > uint64(remaining/elemSize) {
		d.fail("length %d exceeds %d remaining payload bytes", v, remaining)
		return 0
	}
	return int(v)
}

func (d *bdec) str() string {
	n := d.length(1)
	if d.err != nil {
		return ""
	}
	s := string(d.buf[d.off : d.off+n])
	d.off += n
	return s
}

// --- per-type bodies ---

func appendFeature(dst []byte, f *Feature) []byte {
	dst = appendStr(dst, f.Kind)
	dst = appendInt(dst, f.Index)
	dst = appendStr(dst, f.Opcode)
	dst = appendInt(dst, f.Src)
	dst = appendInt(dst, f.Dst)
	dst = appendStr(dst, f.Hazard)
	dst = appendInt(dst, f.Count)
	return appendStr(dst, f.Text)
}

func decodeFeature(d *bdec, f *Feature) {
	f.Kind = d.str()
	f.Index = d.int_()
	f.Opcode = d.str()
	f.Src = d.int_()
	f.Dst = d.int_()
	f.Hazard = d.str()
	f.Count = d.int_()
	f.Text = d.str()
}

func appendExplanation(dst []byte, e *Explanation) []byte {
	dst = appendStr(dst, e.Block)
	dst = appendStr(dst, e.Model)
	dst = appendF64(dst, e.Prediction)
	dst = appendLen(dst, len(e.Features))
	for i := range e.Features {
		dst = appendFeature(dst, &e.Features[i])
	}
	dst = appendF64(dst, e.Precision)
	dst = appendF64(dst, e.Coverage)
	dst = appendBool(dst, e.Certified)
	dst = appendInt(dst, e.Queries)
	dst = appendInt(dst, e.CacheHits)
	dst = appendInt(dst, e.ModelCalls)
	// Version 2: optional trailing profile.
	dst = appendBool(dst, e.Profile != nil)
	if e.Profile != nil {
		dst = appendProfile(dst, e.Profile)
	}
	return dst
}

func appendProfile(dst []byte, p *Profile) []byte {
	dst = appendStr(dst, p.Source)
	dst = appendI64(dst, p.SetupUS)
	dst = appendI64(dst, p.SearchUS)
	dst = appendI64(dst, p.ModelUS)
	dst = appendI64(dst, p.PrecisionUS)
	dst = appendI64(dst, p.CoverageUS)
	dst = appendI64(dst, p.StoreUS)
	dst = appendI64(dst, p.TotalUS)
	dst = appendInt(dst, p.Queries)
	dst = appendInt(dst, p.CacheHits)
	dst = appendInt(dst, p.ModelCalls)
	return appendInt(dst, p.Batches)
}

func decodeProfile(d *bdec) *Profile {
	p := &Profile{}
	p.Source = d.str()
	p.SetupUS = d.varint()
	p.SearchUS = d.varint()
	p.ModelUS = d.varint()
	p.PrecisionUS = d.varint()
	p.CoverageUS = d.varint()
	p.StoreUS = d.varint()
	p.TotalUS = d.varint()
	p.Queries = d.int_()
	p.CacheHits = d.int_()
	p.ModelCalls = d.int_()
	p.Batches = d.int_()
	return p
}

func decodeExplanation(d *bdec) *Explanation {
	e := &Explanation{}
	e.Block = d.str()
	e.Model = d.str()
	e.Prediction = d.f64()
	// A feature encodes to at least 8 bytes (8 fields, ≥1 byte each).
	if n := d.length(8); n > 0 {
		e.Features = make(FeatureSet, n)
		for i := range e.Features {
			decodeFeature(d, &e.Features[i])
		}
	}
	e.Precision = d.f64()
	e.Coverage = d.f64()
	e.Certified = d.bool_()
	e.Queries = d.int_()
	e.CacheHits = d.int_()
	e.ModelCalls = d.int_()
	if d.bool_() && d.err == nil {
		e.Profile = decodeProfile(d)
	}
	return e
}

func appendCorpusResult(dst []byte, r *CorpusResult) []byte {
	dst = appendInt(dst, r.Index)
	dst = appendStr(dst, r.Block)
	dst = appendBool(dst, r.Explanation != nil)
	if r.Explanation != nil {
		dst = appendExplanation(dst, r.Explanation)
	}
	return appendStr(dst, r.Error)
}

func decodeCorpusResult(d *bdec) *CorpusResult {
	r := &CorpusResult{}
	r.Index = d.int_()
	r.Block = d.str()
	if d.bool_() {
		r.Explanation = decodeExplanation(d)
	}
	r.Error = d.str()
	return r
}

func appendOverrides(dst []byte, o *ConfigOverrides) []byte {
	dst = appendBool(dst, o != nil)
	if o == nil {
		return dst
	}
	dst = appendF64(dst, o.Epsilon)
	dst = appendF64(dst, o.PrecisionThreshold)
	dst = appendInt(dst, o.CoverageSamples)
	return appendI64(dst, o.Seed)
}

func decodeOverrides(d *bdec) *ConfigOverrides {
	if !d.bool_() || d.err != nil {
		return nil
	}
	o := &ConfigOverrides{}
	o.Epsilon = d.f64()
	o.PrecisionThreshold = d.f64()
	o.CoverageSamples = d.int_()
	o.Seed = d.varint()
	return o
}

func appendSnapshot(dst []byte, s *ConfigSnapshot) []byte {
	dst = appendF64(dst, s.Epsilon)
	dst = appendF64(dst, s.PrecisionThreshold)
	dst = appendInt(dst, s.CoverageSamples)
	return appendI64(dst, s.Seed)
}

func decodeSnapshot(d *bdec, s *ConfigSnapshot) {
	s.Epsilon = d.f64()
	s.PrecisionThreshold = d.f64()
	s.CoverageSamples = d.int_()
	s.Seed = d.varint()
}

func appendExplainRequest(dst []byte, r *ExplainRequest) []byte {
	dst = appendStr(dst, r.Block)
	dst = appendStr(dst, r.Model)
	dst = appendStr(dst, r.Arch)
	return appendOverrides(dst, r.Config)
}

func decodeExplainRequest(d *bdec) *ExplainRequest {
	r := &ExplainRequest{}
	r.Block = d.str()
	r.Model = d.str()
	r.Arch = d.str()
	r.Config = decodeOverrides(d)
	return r
}

func appendPredictRequest(dst []byte, r *PredictRequest) []byte {
	dst = appendLen(dst, len(r.Blocks))
	for _, b := range r.Blocks {
		dst = appendStr(dst, b)
	}
	dst = appendStr(dst, r.Model)
	return appendStr(dst, r.Arch)
}

func decodePredictRequest(d *bdec) *PredictRequest {
	r := &PredictRequest{}
	if n := d.length(1); n > 0 {
		r.Blocks = make([]string, n)
		for i := range r.Blocks {
			r.Blocks[i] = d.str()
		}
	}
	r.Model = d.str()
	r.Arch = d.str()
	return r
}

func appendPredictResponse(dst []byte, r *PredictResponse) []byte {
	dst = appendStr(dst, r.Model)
	dst = appendStr(dst, r.Arch)
	dst = appendStr(dst, r.Spec)
	dst = appendF64(dst, r.Epsilon)
	dst = appendLen(dst, len(r.Predictions))
	for _, p := range r.Predictions {
		dst = appendF64(dst, p)
	}
	return dst
}

func decodePredictResponse(d *bdec) *PredictResponse {
	r := &PredictResponse{}
	r.Model = d.str()
	r.Arch = d.str()
	r.Spec = d.str()
	r.Epsilon = d.f64()
	if n := d.length(8); n > 0 {
		r.Predictions = make([]float64, n)
		for i := range r.Predictions {
			r.Predictions[i] = d.f64()
		}
	}
	return r
}

func appendShardRequest(dst []byte, r *ShardRequest) []byte {
	dst = appendStr(dst, r.JobID)
	dst = appendStr(dst, r.Lease)
	dst = appendStr(dst, r.Spec)
	dst = appendSnapshot(dst, &r.Config)
	dst = appendLen(dst, len(r.Blocks))
	for i := range r.Blocks {
		b := &r.Blocks[i]
		dst = appendInt(dst, b.Index)
		dst = appendStr(dst, b.Block)
	}
	return appendInt(dst, r.Workers)
}

func decodeShardRequest(d *bdec) *ShardRequest {
	r := &ShardRequest{}
	r.JobID = d.str()
	r.Lease = d.str()
	r.Spec = d.str()
	decodeSnapshot(d, &r.Config)
	// A shard block encodes to at least 2 bytes (index, block len).
	if n := d.length(2); n > 0 {
		r.Blocks = make([]ShardBlock, n)
		for i := range r.Blocks {
			r.Blocks[i].Index = d.int_()
			r.Blocks[i].Block = d.str()
		}
	}
	r.Workers = d.int_()
	return r
}

func appendShardResponse(dst []byte, r *ShardResponse) []byte {
	dst = appendStr(dst, r.JobID)
	dst = appendStr(dst, r.Lease)
	dst = appendLen(dst, len(r.Results))
	for i := range r.Results {
		dst = appendCorpusResult(dst, &r.Results[i])
	}
	return dst
}

func decodeShardResponse(d *bdec) *ShardResponse {
	r := &ShardResponse{}
	r.JobID = d.str()
	r.Lease = d.str()
	// A corpus result encodes to at least 4 bytes.
	if n := d.length(4); n > 0 {
		r.Results = make([]CorpusResult, n)
		for i := range r.Results {
			cr := decodeCorpusResult(d)
			if d.err != nil {
				return r
			}
			r.Results[i] = *cr
		}
	}
	return r
}

func appendJobSummary(dst []byte, s *JobSummary) []byte {
	dst = appendStr(dst, s.ID)
	dst = appendStr(dst, s.State)
	dst = appendInt(dst, s.Total)
	dst = appendInt(dst, s.Done)
	dst = appendInt(dst, s.Failed)
	dst = appendStr(dst, s.Error)
	return appendBool(dst, s.Restored)
}

func decodeJobSummary(d *bdec) *JobSummary {
	s := &JobSummary{}
	s.ID = d.str()
	s.State = d.str()
	s.Total = d.int_()
	s.Done = d.int_()
	s.Failed = d.int_()
	s.Error = d.str()
	s.Restored = d.bool_()
	return s
}
