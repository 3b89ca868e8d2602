package xmlindex

import (
	"container/list"
	"sync"

	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
)

// DefaultProbeCacheCap bounds the number of cached probe results per
// index when no capacity is configured (Index.SetProbeCacheCapacity).
const DefaultProbeCacheCap = 128

// probeCache is a per-index LRU of probe results: the node list a
// (range, query-pattern) probe produced and its document projection,
// stamped with the index version they were computed against. A cached
// entry is served only while the index version still matches;
// InsertDoc/DeleteDoc bump the version whenever they change the entry
// set, so hits can never return stale pre-filters. The cache has its own
// mutex — it is touched under the index's read lock, where concurrent
// probes are the point.
type probeCache struct {
	mu       sync.Mutex
	capacity int
	items    map[string]*list.Element
	order    *list.List // front = most recently used

	// Registry instruments shared across the indexes of one engine;
	// nil-safe when the index lives outside an engine.
	hits, misses, invalidations, evictions *metrics.Counter
	entries                                *metrics.Gauge
}

// probeCacheEntry holds one probe result. Hits, DocList and NodeList
// are views of the same result, so a probe over given bounds and
// pattern has one entry whichever of them filled it.
type probeCacheEntry struct {
	key     string
	version uint64
	res     Hits
}

func newProbeCache() *probeCache {
	return &probeCache{capacity: DefaultProbeCacheCap, items: map[string]*list.Element{}, order: list.New()}
}

// setCapacity rebounds the LRU, evicting from the cold end if the live
// entry count already exceeds the new capacity. n <= 0 restores the
// default.
func (c *probeCache) setCapacity(n int) {
	if n <= 0 {
		n = DefaultProbeCacheCap
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.capacity = n
	c.evictLocked()
}

// cap returns the configured capacity.
func (c *probeCache) cap() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.capacity
}

func (c *probeCache) instrument(reg *metrics.Registry) {
	c.hits = reg.Counter("probecache.hits")
	c.misses = reg.Counter("probecache.misses")
	c.invalidations = reg.Counter("probecache.invalidations")
	c.evictions = reg.Counter("probecache.evictions")
	c.entries = reg.Gauge("probecache.entries")
}

// get returns the live result for key if it was computed against the
// given index version; a stale entry is dropped and counted as an
// invalidation.
func (c *probeCache) get(key string, version uint64) (Hits, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses.Inc()
		return Hits{}, false
	}
	ent := el.Value.(*probeCacheEntry)
	if ent.version != version {
		c.order.Remove(el)
		delete(c.items, key)
		c.invalidations.Inc()
		c.misses.Inc()
		c.entries.Add(-1)
		return Hits{}, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return ent.res, true
}

// put stores a probe result, evicting the least recently used entry past
// capacity.
func (c *probeCache) put(key string, version uint64, res Hits) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		old := el.Value.(*probeCacheEntry)
		old.version, old.res = version, res
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&probeCacheEntry{key: key, version: version, res: res})
	c.entries.Add(1)
	c.evictLocked()
}

// evictLocked drops least-recently-used entries until the cache fits its
// capacity. Callers hold c.mu.
func (c *probeCache) evictLocked() {
	for len(c.items) > c.capacity {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*probeCacheEntry).key)
		c.evictions.Inc()
		c.entries.Add(-1)
	}
}

// peek reports whether a live entry exists for key without recording
// traffic metrics or touching the LRU order (the EXPLAIN path).
func (c *probeCache) peek(key string, version uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	return ok && el.Value.(*probeCacheEntry).version == version
}

// len reports the live entry count (tests).
func (c *probeCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// probeKey builds the cache key for a probe: the encoded B+Tree bounds
// (length-prefixed, so binary bounds cannot collide across the
// separator) and the query-pattern source.
func probeKey(lo, hi []byte, pat *pattern.Pattern) string {
	b := make([]byte, 0, len(lo)+len(hi)+16)
	b = appendLenPrefixed(b, lo)
	b = appendLenPrefixed(b, hi)
	if pat != nil {
		b = append(b, pat.String()...)
	}
	return string(b)
}

func appendLenPrefixed(b, s []byte) []byte {
	n := len(s)
	b = append(b, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(b, s...)
}
