package service

import (
	"container/list"
	"sync"
)

// lruStore is a capped, thread-safe LRU map, generic over the key so the
// hot stores key on interned 32-byte content IDs instead of hex strings.
// cometd uses two: the explanation result store (repeat explain queries
// are O(1) map hits, no model work at all — keyed by wire.ContentID, both
// the request's content ID and a binary request's frame key), and the job
// history (finished corpus jobs survive polling until capacity evicts
// them — keyed by job ID string).
type lruStore[K comparable, V any] struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRUStore[K comparable, V any](capacity int) *lruStore[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lruStore[K, V]{cap: capacity, ll: list.New(), m: make(map[K]*list.Element)}
}

// get returns the stored value and refreshes its recency.
func (s *lruStore[K, V]) get(key K) (V, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.m[key]; ok {
		s.ll.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// put inserts or refreshes a value, evicting the least recently used
// entry beyond capacity.
func (s *lruStore[K, V]) put(key K, val V) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, hit := s.m[key]; hit {
		el.Value.(*lruEntry[K, V]).val = val
		s.ll.MoveToFront(el)
		return
	}
	s.m[key] = s.ll.PushFront(&lruEntry[K, V]{key: key, val: val})
	if s.ll.Len() > s.cap {
		oldest := s.ll.Remove(s.ll.Back()).(*lruEntry[K, V])
		delete(s.m, oldest.key)
	}
}

// values snapshots the stored values, most recently used first.
func (s *lruStore[K, V]) values() []V {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]V, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*lruEntry[K, V]).val)
	}
	return out
}

// len returns the number of stored entries.
func (s *lruStore[K, V]) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len()
}
