package obs

import "sync"

// ring is the one bounded buffer behind every retention structure in this
// package: the span Ring, the FlightRecorder and the OutlierRing. It holds
// a fixed number of slots, overwrites the oldest when full, and counts
// every value ever added so readers can tell how much it has forgotten.
// Policy (size floors, nil safety, time stamping, read order) belongs to
// the types built on it.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T
	next    int    // write cursor
	written uint64 // values ever added
}

func newRing[T any](size int) ring[T] {
	return ring[T]{buf: make([]T, size)}
}

// add copies v into the oldest slot under the mutex: no allocation, safe
// from any goroutine.
func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.written++
	r.mu.Unlock()
}

// snapshot copies the held values out oldest-first, with the total ever
// added.
func (r *ring[T]) snapshot() ([]T, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.written < uint64(len(r.buf)) {
		return append([]T(nil), r.buf[:r.next]...), r.written
	}
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...), r.written
}
