package wire

// Interned content identities. The service layer hashes every request's
// identity-bearing bytes (canonical block text, model spec, effective
// config) exactly once at ingress; everything downstream — the result
// LRU, single-flight coalescing, cluster result dedup —
// compares and routes on the fixed-size ContentID (or its u64-prefixed
// Handle) instead of re-hashing or carrying canonical-text strings.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
)

// ContentID is a 32-byte content address: a SHA-256 over a domain-tagged
// preimage. The zero value is never a valid address in practice.
type ContentID [32]byte

// InternBytes hashes raw bytes into a ContentID.
func InternBytes(data []byte) ContentID {
	return ContentID(sha256.Sum256(data))
}

// InternParts hashes a sequence of length-delimited string parts into a
// ContentID. Each part is prefixed with its length, so no two distinct
// part sequences collide by concatenation.
func InternParts(parts ...string) ContentID {
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	for _, p := range parts {
		n := binary.PutUvarint(lenBuf[:], uint64(len(p)))
		h.Write(lenBuf[:n])
		h.Write([]byte(p))
	}
	var id ContentID
	h.Sum(id[:0])
	return id
}

// Hex renders the ID as the 64-character lowercase hex string used for
// on-disk persist keys (the durable format predates interning and stays
// string-keyed for compatibility).
func (id ContentID) Hex() string {
	return hex.EncodeToString(id[:])
}

// ParseContentID parses the hex rendering back into an ID.
func ParseContentID(s string) (ContentID, bool) {
	var id ContentID
	if len(s) != 64 {
		return id, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, false
	}
	return id, true
}

// Handle is the ID's u64 prefix (big-endian), the cheap comparand used
// for shard routing and map bucketing where 64 bits of the address are
// plenty. Full-ID equality still decides identity; the handle only
// routes.
func (id ContentID) Handle() uint64 {
	return binary.BigEndian.Uint64(id[:8])
}
