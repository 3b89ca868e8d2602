// Package cachefix exercises the cachekey analyzer: a derivation that
// covers every input is clean, an omitted struct field and an omitted
// scalar parameter are findings, an ad-hoc string key is a finding (also
// when passed to an instantiated generic Cache), and the annotated escape
// suppresses.
package cachefix

import "strconv"

type fooCache struct{ items map[string]int }

func (c *fooCache) get(k string) (int, bool) { v, ok := c.items[k]; return v, ok }
func (c *fooCache) put(k string, v int)      { c.items[k] = v }

// getOrZero is the cache's own plumbing: its key parameter's provenance
// is checked in the callers that built it, not here.
func (c *fooCache) getOrZero(k string) int {
	v, _ := c.get(k)
	return v
}

// Req is a cached computation's input set.
type Req struct {
	Name string
	N    int
	//xqvet:cachekey-ok display-only flag, the computed value is independent of it
	Debug bool
	// Skip changes the computed value but lookup's key below omits it.
	Skip bool // want "field Req.Skip does not reach the cache key"
}

func reqKey(name string, n int) string { return name + ":" + strconv.Itoa(n) }

func encodeKey(r Req) string {
	return r.Name + ":" + strconv.Itoa(r.N) + ":" + strconv.FormatBool(r.Skip)
}

func compute(r Req, scale int) int { return r.N * scale }

// lookup covers Name, N, and scale but not Skip: the finding lands on
// the field declaration, where the annotation would live.
func lookup(c *fooCache, r Req, scale int) int {
	k := reqKey(r.Name, r.N*scale)
	if v, ok := c.get(k); ok {
		return v
	}
	v := compute(r, scale)
	c.put(k, v)
	return v
}

// scaledLookup omits its bias parameter from the key entirely.
func scaledLookup(c *fooCache, r Req, bias int) int {
	k := reqKey(r.Name, r.N) // want "parameter bias of scaledLookup does not reach the cache key"
	if v, ok := c.get(k); ok {
		return v
	}
	v := compute(r, 1) + bias
	c.put(k, v)
	return v
}

// wholeLookup keys on the entire request value: every field is covered
// through the unqualified mention of r.
func wholeLookup(c *fooCache, r Req) int {
	k := encodeKey(r)
	if v, ok := c.get(k); ok {
		return v
	}
	v := compute(r, 1)
	c.put(k, v)
	return v
}

// rawLookup builds its key ad hoc at the call site instead of through a
// *Key derivation.
func rawLookup(c *fooCache, name string) int {
	v, _ := c.get("fixed:" + name) // want "cache key passed to ..fooCache..get is not built by a .Key function"
	return v
}

// Cache is generic, the shape of lru.Cache: the check keys on the type
// name, so each instantiation is checked like any *Cache.
type Cache[K comparable, V any] struct{ items map[K]V }

func (c *Cache[K, V]) Get(k K, version uint64) (V, bool) { v, ok := c.items[k]; return v, ok }
func (c *Cache[K, V]) Put(k K, version uint64, v V)      { c.items[k] = v }

// genericRaw passes an ad-hoc string key to an instantiated Cache.
func genericRaw(c *Cache[string, int], name string) int {
	v, _ := c.Get("g:"+name, 1) // want "cache key passed to ..Cache..Get is not built by a .Key function"
	return v
}

// genericKeyed derives its key through encodeKey: clean.
func genericKeyed(c *Cache[string, int], r Req) int {
	k := encodeKey(r)
	if v, ok := c.Get(k, 1); ok {
		return v
	}
	v := compute(r, 1)
	c.Put(k, 1, v)
	return v
}

func use() {
	c := &fooCache{items: map[string]int{}}
	_ = lookup(c, Req{Name: "a", N: 1}, 2)
	_ = scaledLookup(c, Req{Name: "b", N: 2}, 3)
	_ = wholeLookup(c, Req{Name: "c", N: 3})
	_ = rawLookup(c, "d")
	_ = c.getOrZero(reqKey("e", 4))
	g := &Cache[string, int]{items: map[string]int{}}
	_ = genericRaw(g, "f")
	_ = genericKeyed(g, Req{Name: "g", N: 5})
}
