// Package lru is the one versioned least-recently-used cache behind the
// engine's plan cache and every XML index's probe cache. Each entry is
// stamped with the version it was built against (the catalog's schema
// version for a plan, the index's entry-set version for a probe result);
// a lookup at any other version drops the entry, so a hit is always
// current. The cache mutex is a leaf lock: no caller code runs under it.
package lru

import (
	"container/list"
	"sync"

	"github.com/xqdb/xqdb/internal/metrics"
)

// Metrics are the instruments a cache feeds. Any of them may be nil;
// Size moves by deltas, so caches that share one gauge sum into it.
type Metrics struct {
	Hits, Misses, Stale, Evictions *metrics.Counter
	Size                           *metrics.Gauge
}

// Cache is a versioned LRU of at most a fixed number of entries. It is
// safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	items    map[K]*list.Element
	order    *list.List // front = most recently used
	m        Metrics
}

type entry[K comparable, V any] struct {
	key     K
	version uint64
	val     V
}

// New returns an empty cache holding at most capacity entries.
func New[K comparable, V any](capacity int, m Metrics) *Cache[K, V] {
	return &Cache[K, V]{capacity: capacity, items: map[K]*list.Element{}, order: list.New(), m: m}
}

// Get returns the value cached for k if it was built at version. An
// entry built at another version is dropped and counted as stale; both
// outcomes count as a miss.
func (c *Cache[K, V]) Get(k K, version uint64) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.m.Misses.Inc()
		var zero V
		return zero, false
	}
	ent := el.Value.(*entry[K, V])
	if ent.version != version {
		c.removeLocked(el)
		c.m.Stale.Inc()
		c.m.Misses.Inc()
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	c.m.Hits.Inc()
	return ent.val, true
}

// Put stores v for k at version, replacing any entry for k in place, and
// evicts the least recently used entry past capacity.
func (c *Cache[K, V]) Put(k K, version uint64, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		ent := el.Value.(*entry[K, V])
		ent.version, ent.val = version, v
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&entry[K, V]{key: k, version: version, val: v})
	c.m.Size.Add(1)
	for len(c.items) > c.capacity {
		c.removeLocked(c.order.Back())
		c.m.Evictions.Inc()
	}
}

// Peek reports whether a current entry exists for k without counting
// traffic or touching the LRU order (the EXPLAIN path).
func (c *Cache[K, V]) Peek(k K, version uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	return ok && el.Value.(*entry[K, V]).version == version
}

// Len returns the number of entries, stale ones included until a lookup
// drops them.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Clear drops every entry, taking them off the Size gauge without
// counting evictions: the owner is going away, or every entry is stale.
func (c *Cache[K, V]) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Size.Add(-int64(len(c.items)))
	clear(c.items)
	c.order.Init()
}

// removeLocked unlinks one entry. Callers hold c.mu.
func (c *Cache[K, V]) removeLocked(el *list.Element) {
	c.order.Remove(el)
	delete(c.items, el.Value.(*entry[K, V]).key)
	c.m.Size.Add(-1)
}
