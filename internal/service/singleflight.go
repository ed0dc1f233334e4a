package service

import "sync"

// flightGroup is a minimal single-flight: concurrent Do calls with the same
// key share one execution of fn. cometd keys explain work by the interned
// content ID over (model, arch, config, canonical block text), so a burst
// of identical requests — the common shape when a compiler pass or CI
// fleet asks about the same hot block — costs exactly one explanation
// computation, and key comparison is 32 fixed bytes instead of a hex
// string.
//
// (The x/sync/singleflight package is the reference design; this is a
// dependency-free reimplementation of the subset cometd needs.)
type flightGroup[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// Do executes fn once per key among concurrent callers. The boolean
// reports whether this caller shared another caller's execution.
func (g *flightGroup[K, V]) Do(key K, fn func() (V, error)) (V, error, bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[K]*flightCall[V])
	}
	if c, ok := g.m[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, c.err, true
	}
	c := &flightCall[V]{done: make(chan struct{})}
	g.m[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, c.err, false
}
