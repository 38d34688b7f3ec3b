// Package singleflight suppresses duplicate concurrent work: calls that
// share a key while one is in flight wait for the leader's result
// instead of repeating the call. The extract manager uses it so rules
// racing on an unfetched source page cost one backend round trip, not N.
//
// Unlike a cache, a completed call leaves no residue: the key is
// forgotten the moment the leader returns, so freshness policy stays
// wherever the caller keeps it (the per-run document memo). This is a stdlib-only re-implementation of the
// well-known golang.org/x/sync/singleflight shape, reduced to what the
// hot path needs.
package singleflight

import "sync"

// call is one in-flight unit of work.
type call struct {
	wg      sync.WaitGroup
	val     any
	err     error
	waiters int // guarded by Group.mu
}

// Group deduplicates function calls by key. The zero value is ready to
// use; a Group must not be copied after first use.
type Group struct {
	mu sync.Mutex
	m  map[string]*call
}

// Do executes fn and returns its result, ensuring that only one
// execution is in flight for a given key at a time. Concurrent callers
// with the same key wait for the leader and receive its result; shared
// reports whether the result came from another caller's execution.
// Results are shared, so callers must treat them as read-only.
func (g *Group) Do(key string, fn func() (any, error)) (v any, err error, shared bool) {
	g.mu.Lock()
	if g.m == nil {
		g.m = make(map[string]*call)
	}
	if c, ok := g.m[key]; ok {
		c.waiters++
		g.mu.Unlock()
		c.wg.Wait()
		return c.val, c.err, true
	}
	c := new(call)
	c.wg.Add(1)
	g.m[key] = c
	g.mu.Unlock()

	// The key is removed before waiters are released so a panic in fn
	// cannot strand future callers, and a call that finishes leaves no
	// residue to serve (freshness stays the caller's policy).
	defer func() {
		g.mu.Lock()
		delete(g.m, key)
		g.mu.Unlock()
		c.wg.Done()
	}()
	c.val, c.err = fn()
	return c.val, c.err, false
}

// Waiting reports how many callers are currently blocked on the key's
// in-flight call, not counting the leader; 0 when nothing is in flight.
// It exists for tests and ops introspection: a deterministic dedup test
// holds the leader until Waiting reaches the expected fan-in.
func (g *Group) Waiting(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.m[key]; ok {
		return c.waiters
	}
	return 0
}
