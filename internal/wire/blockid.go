package wire

// Interned content identities. An explain request's identity is hashed
// once into a fixed-size ContentID: persist.ExplanationID over the
// canonical model spec, effective config and canonical block text, and
// InternBytes over a binary request's raw frame. The service's result
// LRU and single-flight group key on the ContentID; its Hex rendering is
// the durable store's key.

import (
	"crypto/sha256"
	"encoding/hex"
)

// ContentID is a 32-byte content address: a SHA-256 over a domain-tagged
// preimage. The zero value is never a valid address in practice.
type ContentID [32]byte

// InternBytes hashes raw bytes into a ContentID.
func InternBytes(data []byte) ContentID {
	return ContentID(sha256.Sum256(data))
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
