// Package vcache is the repo's one versioned cache: a bounded,
// concurrency-safe map from (source text, catalog schema version,
// option bits) to an immutable value. It has one instance: the
// database's compiled-statement cache, which is where every verdict,
// rewrite and plan of a statement shape is kept.
//
// The catalog version in the key is the whole invalidation story: every
// DDL — CREATE TABLE, ADD KEY/CHECK/FOREIGN KEY, DROP KEY, CREATE
// INDEX — bumps the version (the catver analyzer enforces that), so
// entries derived under the old schema become unreachable rather than
// being hunted down. The key carries the source text itself, not a
// hash of it, so two different sources can never share an entry.
package vcache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one entry.
type Key struct {
	Src    string // the text the value was derived from
	CatVer uint64 // catalog schema version it was derived under
	Opts   uint64 // option bits that change the derivation
}

// DefaultEntries bounds a cache built with New(0). A full cache is
// cleared wholesale — simple, and correct under any access pattern.
const DefaultEntries = 4096

// Cache memoizes values of type V. Values are shared between every
// caller that hits the same key, so they must be immutable.
type Cache[V any] struct {
	mu      sync.RWMutex
	entries map[Key]V
	max     int

	hits   atomic.Int64
	misses atomic.Int64
}

// New returns an empty cache holding at most maxEntries values
// (0 = DefaultEntries).
func New[V any](maxEntries int) *Cache[V] {
	if maxEntries <= 0 {
		maxEntries = DefaultEntries
	}
	return &Cache[V]{entries: make(map[Key]V), max: maxEntries}
}

// Peek looks k up without counting. A caller may probe under more than
// one key per lookup; it reports the outcome once to Count.
func (c *Cache[V]) Peek(k Key) (V, bool) {
	c.mu.RLock()
	v, ok := c.entries[k]
	c.mu.RUnlock()
	return v, ok
}

// PeekBytes is Peek for the key {string(src), catVer, opts}. The key's
// text is read where src lies, for the lookup alone: nothing is copied
// or allocated, and nothing of src is kept, so src may be a buffer its
// owner overwrites next. Put files a string, which a caller holding the
// text in a buffer copies out only to file it.
func (c *Cache[V]) PeekBytes(src []byte, catVer, opts uint64) (V, bool) {
	c.mu.RLock()
	v, ok := c.entries[Key{Src: string(src), CatVer: catVer, Opts: opts}]
	c.mu.RUnlock()
	return v, ok
}

// Count records one lookup's outcome in the hit/miss counters.
func (c *Cache[V]) Count(hit bool) {
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
}

// Put files v under k, clearing the cache first when it is full.
func (c *Cache[V]) Put(k Key, v V) {
	c.mu.Lock()
	if len(c.entries) >= c.max {
		c.entries = make(map[Key]V)
	}
	c.entries[k] = v
	c.mu.Unlock()
}

// Counters reports cumulative hit/miss counts.
func (c *Cache[V]) Counters() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
