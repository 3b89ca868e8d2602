// Package xmlindex implements the paper's path-specific XML value indexes
// (§2.1): CREATE INDEX ... USING XMLPATTERN 'pattern' AS type. An index
// stores one B+Tree entry per node that matches the pattern AND casts to
// the index type; nodes that fail the cast are silently skipped (the
// "tolerant" behaviour schema evolution requires). Entries record the ID
// of the node's concrete root-to-node path in the column's path
// dictionary (pattern.Dict), so probes can apply additional restrictions
// on the path — a query path more restrictive than the index pattern is
// checked per entry.
package xmlindex

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"github.com/xqdb/xqdb/internal/btree"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/lru"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/xdm"
)

// Type is an index data type. The DDL admits exactly these four (§2.1).
type Type uint8

// Index data types.
const (
	Varchar Type = iota
	Double
	Date
	Timestamp
)

var typeNames = [...]string{"varchar", "double", "date", "timestamp"}

func (t Type) String() string { return typeNames[t] }

// TypeByName resolves a DDL type name.
func TypeByName(name string) (Type, bool) {
	for t, n := range typeNames {
		if n == name {
			return Type(t), true
		}
	}
	return 0, false
}

// xdmType maps an index type to the XDM type its entries are cast to.
func (t Type) xdmType() xdm.Type {
	switch t {
	case Double:
		return xdm.Double
	case Date:
		return xdm.Date
	case Timestamp:
		return xdm.DateTime
	default:
		return xdm.String
	}
}

// Stats is a snapshot of an index's size. Probe activity is counted by
// the registry instruments and by the counts NodeList/DocList return.
type Stats struct {
	Entries int // live entries
}

// Index is one XML value index. Probes (Hits, NodeList, DocList) take the read
// lock, so concurrent readers proceed in parallel; document insertion
// and deletion take the write lock.
type Index struct {
	Name    string
	Pattern *pattern.Pattern
	Type    Type

	// faultSite is the guard.Fault site name of a probe, built once so a
	// probe served from the cache allocates nothing for it.
	faultSite string

	mu   sync.RWMutex
	tree *btree.Tree
	// dict is the column's path dictionary, shared with the column's
	// other indexes and its synopsis; entry keys carry its path IDs.
	dict *pattern.Dict
	// walk is InsertDoc and DeleteDoc's walk state, guarded by mu.
	walk pathWalk

	// version counts entry-set changes: InsertDoc/DeleteDoc bump it
	// whenever they actually add or remove entries. Cached probe results
	// embed the version they were computed against, so a bump invalidates
	// every cached probe of this index at its next lookup.
	version atomic.Uint64
	// cache holds probe results keyed by probeKey. Hits, DocList and
	// NodeList are views of one result, so a probe over given bounds and
	// pattern has one entry whichever of them filled it. Its mutex is
	// taken under mu's read lock, where concurrent probes are the point.
	cache *lru.Cache[string, Hits]
	// dropped marks an index DROP has detached (Drop); guarded by mu.
	dropped bool

	// Registry instruments, shared across the indexes of one engine;
	// nil (uninstrumented) when the index lives outside an engine.
	// The tree counters are retained so CommitBulk can re-instrument a
	// freshly bulk-built tree when it replaces the current one.
	mProbes    *metrics.Counter
	mKeys      *metrics.Counter
	mNodes     *metrics.Counter
	mEntries   *metrics.Gauge
	mTreeScans *metrics.Counter
	mTreeKeys  *metrics.Counter
}

// Instrument wires the index (and its B+Tree) into a metrics registry:
// xmlindex.probes / xmlindex.keys_visited count probe activity across all
// instrumented indexes, xmlindex.nodes_decoded the node references every
// cold (uncached) probe decodes — whichever of NodeList and DocList asked,
// since both read the same decoded result — xmlindex.entries gauges the
// total live entries, the probe cache (built anew, empty) feeds
// probecache.{hits,misses,invalidations,evictions,entries}, and the
// underlying tree feeds btree.scans / btree.keys_visited. Call before the
// index is shared between goroutines.
func (ix *Index) Instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	ix.mProbes = reg.Counter("xmlindex.probes")
	ix.mKeys = reg.Counter("xmlindex.keys_visited")
	ix.mNodes = reg.Counter("xmlindex.nodes_decoded")
	ix.mEntries = reg.Gauge("xmlindex.entries")
	ix.cache = lru.New[string, Hits](probeCacheSize, lru.Metrics{
		Hits:      reg.Counter("probecache.hits"),
		Misses:    reg.Counter("probecache.misses"),
		Stale:     reg.Counter("probecache.invalidations"),
		Evictions: reg.Counter("probecache.evictions"),
		Size:      reg.Gauge("probecache.entries"),
	})
	ix.mTreeScans = reg.Counter("btree.scans")
	ix.mTreeKeys = reg.Counter("btree.keys_visited")
	ix.tree.Instrument(ix.mTreeScans, ix.mTreeKeys)
}

// probeCacheSize bounds the number of cached probe results per index.
const probeCacheSize = 128

// Drop detaches an index that DROP INDEX or DROP TABLE removed: what it
// still counts in the xmlindex.entries and probecache.entries gauges is
// taken off, and a probe that reaches it later, through a plan fetched
// before the drop, neither fills the cache nor moves a gauge.
func (ix *Index) Drop() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.mEntries.Add(-int64(ix.tree.Len()))
	ix.mEntries = nil
	ix.cache.Clear()
	ix.dropped = true
}

// New creates an empty index over the given pattern and type whose keys
// name paths by their IDs in dict, the indexed column's path dictionary.
func New(name string, pat *pattern.Pattern, typ Type, dict *pattern.Dict) *Index {
	return &Index{Name: name, Pattern: pat, Type: typ, faultSite: "xmlindex.scan:" + name,
		tree: btree.New(), dict: dict, walk: pathWalk{paths: dict.Match(pat)},
		cache: lru.New[string, Hits](probeCacheSize, lru.Metrics{})}
}

// Version returns the entry-set version counter. It moves only when an
// insert or delete changes the set of indexed entries.
func (ix *Index) Version() uint64 { return ix.version.Load() }

// Stats returns a snapshot of the index statistics.
func (ix *Index) Stats() Stats {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return Stats{Entries: ix.tree.Len()}
}

// pathWalk is one owner's walk of the column dictionary: the walker's
// buffers and the index pattern's path set, extended as the dictionary
// grows, so the matcher runs once per path, not per node. The index
// keeps one under its lock; each extractor keeps its own.
type pathWalk struct {
	walker pattern.Walker
	paths  *pattern.PathSet
}

// indexableValue computes the value an entry stores for node n, taking the
// node's validated type annotation into account. ok is false when the
// node does not cast to the index type (the entry is skipped, tolerantly).
func (ix *Index) indexableValue(n *xdm.Node) (xdm.Value, bool, error) {
	if n.TypeAnn.Valid && n.TypeAnn.IsList {
		// §3.10 footnote: list types are prohibited in indexed documents.
		return xdm.Value{}, false, fmt.Errorf("index %s: node %s has a list type", ix.Name, n.PathFromRoot())
	}
	tv, err := n.TypedValue()
	if err != nil || len(tv) != 1 {
		return xdm.Value{}, false, nil
	}
	v, err := tv[0].(xdm.Value).Cast(ix.Type.xdmType())
	if err != nil {
		return xdm.Value{}, false, nil // tolerant: skip, never reject
	}
	return v, true, nil
}

// extract appends to keys the entries of doc: one key per node whose
// label path the index pattern matches and whose value casts to the
// index type. Cast failures skip silently; a list-typed match is skipped
// and reported as the error (§3.10 footnote), after the walk completes.
func (ix *Index) extract(w *pathWalk, docID uint32, doc *xdm.Node, keys [][]byte) ([][]byte, error) {
	var listErr error
	nodes, ids := ix.dict.IDs(&w.walker, doc)
	w.paths.Extend()
	for i, n := range nodes {
		if !w.paths.Has(ids[i]) {
			continue
		}
		v, ok, err := ix.indexableValue(n)
		if err != nil && listErr == nil {
			listErr = err
		}
		if ok {
			keys = append(keys, ix.encodeKey(v, ids[i], docID, n.Ordinal))
		}
	}
	return keys, listErr
}

// entriesChanged records an entry-set change of delta entries. Only an
// actual change bumps the version, so a document with no matching nodes
// leaves cached probe results valid.
func (ix *Index) entriesChanged(delta int) {
	if delta != 0 {
		ix.version.Add(1)
		ix.mEntries.Add(int64(delta))
	}
}

// InsertDoc adds index entries for every matching node of doc. It
// extracts every entry before it touches the tree, so a rejected
// document changes nothing: no entry, no version bump. It returns an
// error only for list-typed matches; cast failures skip silently.
func (ix *Index) InsertDoc(docID uint32, doc *xdm.Node) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	keys, err := ix.extract(&ix.walk, docID, doc, nil)
	if err != nil {
		return err
	}
	before := ix.tree.Len()
	for _, k := range keys {
		ix.tree.Insert(k, nil)
	}
	ix.entriesChanged(ix.tree.Len() - before)
	return nil
}

// DeleteDoc removes the entries InsertDoc created for doc. A list-typed
// match cannot have been inserted, since InsertDoc rejects the whole
// document, so extract's error is moot here.
func (ix *Index) DeleteDoc(docID uint32, doc *xdm.Node) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	keys, _ := ix.extract(&ix.walk, docID, doc, nil)
	before := ix.tree.Len()
	for _, k := range keys {
		ix.tree.Delete(k)
	}
	ix.entriesChanged(ix.tree.Len() - before)
}

// Range is a value range for a probe. Nil bounds are unbounded; a probe
// with both bounds nil is a structural probe that scans every entry.
type Range struct {
	Lo, Hi       *xdm.Value
	LoInc, HiInc bool
}

// Equality returns the Range for an equality probe.
func Equality(v xdm.Value) Range {
	return Range{Lo: &v, Hi: &v, LoInc: true, HiInc: true}
}

// Probe is one index scan request.
type Probe struct {
	Range Range
	// Paths, when non-nil, is the query pattern's set in the column
	// dictionary: results keep the entries whose node path is in it (the
	// query may navigate more restrictively than the index pattern).
	Paths *pattern.PathSet
	// Guard, when non-nil, is checked periodically during the B+Tree
	// scan so canceled or timed-out queries abort mid-probe.
	//xqvet:cachekey-ok cancellation only: the guard aborts a scan, it never changes a completed scan's result
	Guard *guard.Guard
	// NoCache bypasses the probe-result cache entirely (neither read nor
	// populated) — the uncached baseline for benchmarks and tests.
	//xqvet:cachekey-ok bypass flag: when set the cache is neither read nor written, so no entry exists to collide
	NoCache bool
}

// Hits is what one probe names: the matching node references in
// (docID, ordinal) order, and their projection to distinct document ids —
// the pre-filter I(P, D) of Definition 1. The projection is computed once,
// when the result is decoded, so a cache hit hands out either view without
// allocating. Both lists are shared with the cache and must not be mutated.
type Hits struct {
	Nodes postings.NodeList
	Docs  postings.List
}

// collector is the btree.Visitor behind every probe: it streams packed
// (docID, ordinal) references straight off the B+Tree leaf walk. Keys
// are ordered [value][pathID][docID][nodeID], so within one (value,
// path) run the packed suffixes arrive strictly ascending — one
// run-merge at the end handles the restarts across values and paths.
// paths, when non-nil, is the probe's path set; every path ID in the
// tree is in the column dictionary, so Has can answer it.
type collector struct {
	paths *pattern.PathSet
	g     *guard.Guard
	nodes []uint64
}

func (c *collector) Visit(key, _ []byte) bool {
	pathID, docID, nodeID := decodeSuffix(key)
	if c.paths != nil && !c.paths.Has(pathID) {
		return true
	}
	c.nodes = append(c.nodes, postings.PackNode(docID, nodeID))
	return true
}

func (c *collector) Check(int) error { return c.g.Check() }

// refBufs recycles the buffers cold probes collect and decode node
// references in, so what a cold probe allocates is its exact-size result.
var refBufs = sync.Pool{New: func() any { return new([]uint64) }}

// Hits runs one index scan request: the result in both its views (the
// node list and its document projection, held side by side by the decode
// and the probe cache), the number of B+Tree keys visited (including
// entries the path-set restriction rejected; 0 on a cache hit), and
// whether the result came from the probe cache. The count is returned
// per probe so concurrent queries' statistics stay independent. Both
// lists are shared with the cache and must not be mutated.
func (ix *Index) Hits(p Probe) (Hits, int, bool, error) {
	if err := guard.Fault(ix.faultSite); err != nil {
		return Hits{}, 0, false, fmt.Errorf("index %s: %w", ix.Name, err)
	}
	if err := p.Guard.Check(); err != nil {
		return Hits{}, 0, false, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	ix.mProbes.Inc()

	lo, hi, empty, err := ix.bounds(p.Range)
	if err != nil {
		return Hits{}, 0, false, err
	}
	if empty {
		return Hits{Nodes: postings.NodeList{}, Docs: postings.List{}}, 0, false, nil
	}
	version := ix.version.Load()
	useCache := !p.NoCache && !ix.dropped
	var key string
	if useCache {
		key = probeKey(lo, hi, p.Paths)
		if res, ok := ix.cache.Get(key, version); ok {
			return res, 0, true, nil
		}
	}
	buf := refBufs.Get().(*[]uint64)
	defer refBufs.Put(buf)
	c := collector{paths: p.Paths, g: p.Guard, nodes: (*buf)[:0]}
	visited, err := ix.tree.ScanVisit(lo, hi, &c)
	// Room for a copy, so a sort of many runs needs no scratch of its own.
	*buf = slices.Grow(c.nodes, len(c.nodes))
	ix.mKeys.Add(int64(visited))
	if err != nil {
		return Hits{}, visited, false, err
	}
	ix.mNodes.Add(int64(len(c.nodes)))
	// Each (value, path) key run emits strictly ascending packed refs —
	// a node is indexed once per (value, path), so within a run there are
	// no duplicates and NodesFromRuns merges the run restarts. The result
	// may share the recycled buffer, so the probe keeps a copy.
	nodes := slices.Clone(postings.NodesFromRuns(*buf))
	res := Hits{Nodes: nodes, Docs: nodes.Docs()}
	if useCache {
		// Version and scan both ran under the index read lock, so no
		// insert or delete can have interleaved: the cached result is
		// exactly the entry set at this version.
		ix.cache.Put(key, version, res)
	}
	return res, visited, false, nil
}

// NodeList runs a probe and returns the node view of its Hits: the
// sorted packed (docID, ordinal) reference of every matching entry.
func (ix *Index) NodeList(p Probe) (postings.NodeList, int, bool, error) {
	res, visited, cached, err := ix.Hits(p)
	return res.Nodes, visited, cached, err
}

// DocList runs a probe and returns the document view of its Hits: the
// distinct matching document ids, the pre-filter I(P, D) of Definition 1.
func (ix *Index) DocList(p Probe) (postings.List, int, bool, error) {
	res, visited, cached, err := ix.Hits(p)
	return res.Docs, visited, cached, err
}

// ProbeCached reports whether the probe's result is currently served
// from the cache (the EXPLAIN "probe cache" line). It records no cache
// traffic and does not disturb the LRU order.
func (ix *Index) ProbeCached(p Probe) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lo, hi, empty, err := ix.bounds(p.Range)
	if err != nil || empty {
		return false
	}
	return ix.cache.Peek(probeKey(lo, hi, p.Paths), ix.version.Load())
}

// probeKey builds the cache key for a probe: the encoded B+Tree bounds
// (length-prefixed, so binary bounds cannot collide across the
// separator) and the path set's pattern source. Not the set's IDs: two
// patterns matching the same IDs can differ on a path interned later,
// and cached results are versioned by the index, not the dictionary.
func probeKey(lo, hi []byte, paths *pattern.PathSet) string {
	b := make([]byte, 0, len(lo)+len(hi)+16)
	b = appendLenPrefixed(b, lo)
	b = appendLenPrefixed(b, hi)
	if paths != nil {
		b = append(b, paths.Pattern().String()...)
	}
	return string(b)
}

func appendLenPrefixed(b, s []byte) []byte {
	n := len(s)
	b = append(b, byte(n>>24), byte(n>>16), byte(n>>8), byte(n))
	return append(b, s...)
}

// bounds converts a value range to B+Tree key bounds. empty reports a
// provably empty scan: an exclusive lower bound whose encoding is all
// 0xff has no successor (prefixSuccessor returns nil), and nil-as-lo
// means scan-from-start — the opposite of "nothing is greater", which
// used to return every entry in the index.
func (ix *Index) bounds(r Range) (lo, hi []byte, empty bool, err error) {
	if r.Lo != nil {
		v, err := r.Lo.Cast(ix.Type.xdmType())
		if err != nil {
			return nil, nil, false, fmt.Errorf("index %s: probe bound: %w", ix.Name, err)
		}
		enc := ix.encodeValue(v)
		if r.LoInc {
			lo = enc
		} else {
			lo = prefixSuccessor(enc)
			if lo == nil {
				return nil, nil, true, nil
			}
		}
	}
	if r.Hi != nil {
		v, err := r.Hi.Cast(ix.Type.xdmType())
		if err != nil {
			return nil, nil, false, fmt.Errorf("index %s: probe bound: %w", ix.Name, err)
		}
		enc := ix.encodeValue(v)
		if r.HiInc {
			// nil here is fine: no key exceeds the all-0xff prefix, so an
			// unbounded upper end is exactly right.
			hi = prefixSuccessor(enc)
		} else {
			hi = enc
		}
	}
	return lo, hi, false, nil
}

// prefixSuccessor returns the smallest byte string greater than every
// string with the given prefix.
func prefixSuccessor(prefix []byte) []byte {
	end := append([]byte(nil), prefix...)
	for i := len(end) - 1; i >= 0; i-- {
		if end[i] != 0xff {
			end[i]++
			return end[:i+1]
		}
	}
	return nil
}

// encodeKey builds the composite B+Tree key
// [value][pathID][docID][nodeID]; the value encoding is order-preserving
// within the index type.
func (ix *Index) encodeKey(v xdm.Value, pathID, docID, nodeID uint32) []byte {
	val := ix.encodeValue(v)
	key := make([]byte, 0, len(val)+12)
	key = append(key, val...)
	key = binary.BigEndian.AppendUint32(key, pathID)
	key = binary.BigEndian.AppendUint32(key, docID)
	key = binary.BigEndian.AppendUint32(key, nodeID)
	return key
}

func decodeSuffix(key []byte) (pathID, docID, nodeID uint32) {
	n := len(key)
	return binary.BigEndian.Uint32(key[n-12 : n-8]),
		binary.BigEndian.Uint32(key[n-8 : n-4]),
		binary.BigEndian.Uint32(key[n-4:])
}

// encodeValue encodes an atomic value order-preservingly.
func (ix *Index) encodeValue(v xdm.Value) []byte {
	switch ix.Type {
	case Double:
		return encodeFloat(v.Number())
	case Date, Timestamp:
		return encodeFloat(float64(v.M.Unix()))
	default:
		return encodeString(v.Lexical())
	}
}

// encodeFloat maps float64 to 8 bytes preserving numeric order.
func encodeFloat(f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits // negative: flip everything
	} else {
		bits |= 1 << 63 // positive: flip sign bit
	}
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, bits)
	return out
}

// encodeString escapes 0x00 bytes and appends a 0x00 0x00 terminator so
// that no encoded value is a prefix of another and order is preserved.
func encodeString(s string) []byte {
	out := make([]byte, 0, len(s)+2)
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			out = append(out, 0, 0xff)
		} else {
			out = append(out, s[i])
		}
	}
	return append(out, 0, 0)
}
