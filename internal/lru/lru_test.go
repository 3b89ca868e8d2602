package lru

import (
	"fmt"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/metrics"
)

// instrumented builds a cache fed by a fresh registry.
func instrumented(capacity int) (*Cache[string, int], *metrics.Registry) {
	reg := metrics.NewRegistry()
	return New[string, int](capacity, Metrics{
		Hits:      reg.Counter("hits"),
		Misses:    reg.Counter("misses"),
		Stale:     reg.Counter("stale"),
		Evictions: reg.Counter("evictions"),
		Size:      reg.Gauge("size"),
	}), reg
}

// expect checks every instrument of reg against want.
func expect(t *testing.T, reg *metrics.Registry, hits, misses, stale, evictions, size int64) {
	t.Helper()
	s := reg.Snapshot()
	got := [5]int64{s.Counters["hits"], s.Counters["misses"], s.Counters["stale"], s.Counters["evictions"], s.Gauges["size"]}
	if want := [5]int64{hits, misses, stale, evictions, size}; got != want {
		t.Fatalf("hits/misses/stale/evictions/size = %v, want %v", got, want)
	}
}

func TestHitAndMiss(t *testing.T) {
	c, reg := instrumented(4)
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put("a", 1, 10)
	if v, ok := c.Get("a", 1); !ok || v != 10 {
		t.Fatalf("Get = %d, %v; want 10, true", v, ok)
	}
	expect(t, reg, 1, 1, 0, 0, 1)
}

// An entry looked up at another version is dropped, counted as stale
// and as a miss, and leaves the size gauge.
func TestStaleDropped(t *testing.T) {
	c, reg := instrumented(4)
	c.Put("a", 1, 10)
	if _, ok := c.Get("a", 2); ok {
		t.Fatal("stale entry served")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after a stale drop, want 0", c.Len())
	}
	expect(t, reg, 0, 1, 1, 0, 0)
	// Once dropped, the old version misses without a second stale count.
	if _, ok := c.Get("a", 1); ok {
		t.Fatal("dropped entry served")
	}
	expect(t, reg, 0, 2, 1, 0, 0)
}

// Past capacity the least recently used entry goes; a Get refreshes.
func TestEvictsColdEnd(t *testing.T) {
	c, reg := instrumented(3)
	for i, k := range []string{"a", "b", "c"} {
		c.Put(k, 1, i)
	}
	c.Get("a", 1) // b is now the cold end
	c.Put("d", 1, 3)
	if c.Peek("b", 1) {
		t.Fatal("the cold end survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Peek(k, 1) {
			t.Fatalf("%s was evicted", k)
		}
	}
	expect(t, reg, 1, 0, 0, 1, 3)
}

// Put on a present key replaces value and version in place: no growth,
// no eviction, and the entry becomes the hot end.
func TestReplaceInPlace(t *testing.T) {
	c, reg := instrumented(2)
	c.Put("a", 1, 10)
	c.Put("b", 1, 20)
	c.Put("a", 2, 11)
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if v, ok := c.Get("a", 2); !ok || v != 11 {
		t.Fatalf("Get = %d, %v; want 11, true", v, ok)
	}
	c.Put("c", 1, 30) // evicts b, the cold end since a was replaced
	if c.Peek("b", 1) || !c.Peek("a", 2) {
		t.Fatal("replace must move the entry to the hot end")
	}
	expect(t, reg, 1, 0, 0, 1, 2)
}

// Peek counts nothing, drops nothing and leaves the order alone.
func TestPeekIsSilent(t *testing.T) {
	c, reg := instrumented(2)
	c.Put("a", 1, 10)
	c.Put("b", 1, 20)
	if !c.Peek("a", 1) || c.Peek("a", 2) || c.Peek("z", 1) {
		t.Fatal("Peek answered wrongly")
	}
	if c.Len() != 2 {
		t.Fatal("Peek at another version dropped the entry")
	}
	c.Put("c", 1, 30) // a is still the cold end: Peek did not refresh it
	if c.Peek("a", 1) || !c.Peek("b", 1) {
		t.Fatal("Peek reordered the LRU")
	}
	expect(t, reg, 0, 0, 0, 1, 2)
}

// Caches sharing one size gauge sum into it, and Clear takes a cache's
// entries off it without counting evictions.
func TestSharedGaugeAndClear(t *testing.T) {
	reg := metrics.NewRegistry()
	m := Metrics{Evictions: reg.Counter("evictions"), Size: reg.Gauge("size")}
	a, b := New[int, int](2, m), New[int, int](2, m)
	for i := range 3 {
		a.Put(i, 1, i)
		b.Put(i, 1, i)
	}
	if got := reg.Gauge("size").Value(); got != 4 {
		t.Fatalf("shared size = %d, want 4", got)
	}
	a.Clear()
	if got := reg.Gauge("size").Value(); got != 2 || a.Len() != 0 {
		t.Fatalf("after Clear: size %d, Len %d; want 2, 0", got, a.Len())
	}
	if got := reg.Counter("evictions").Value(); got != 2 {
		t.Fatalf("evictions = %d, want 2 (Clear counts none)", got)
	}
	a.Put(9, 1, 9)
	if !a.Peek(9, 1) || reg.Gauge("size").Value() != 3 {
		t.Fatal("a cleared cache must take entries again")
	}
}

// Concurrent Get and Put (run under -race) keep the size gauge equal to
// the entry count and the count within capacity.
func TestConcurrentGetPut(t *testing.T) {
	c, reg := instrumented(8)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 500 {
				k := fmt.Sprint((i * (w + 1)) % 20)
				version := uint64(i % 3)
				if _, ok := c.Get(k, version); !ok {
					c.Put(k, version, i)
				}
				c.Peek(k, version)
			}
		}()
	}
	wg.Wait()
	n := c.Len()
	if n > 8 || int64(n) != reg.Gauge("size").Value() {
		t.Fatalf("Len %d, size gauge %d: want equal and at most 8", n, reg.Gauge("size").Value())
	}
}
