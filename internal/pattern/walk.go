package pattern

import (
	"slices"
	"sync"

	"github.com/xqdb/xqdb/internal/xdm"
)

// Walker enumerates a document's nodes with their rooted label paths. It
// is the one walk behind index maintenance, bulk index extraction and
// the path synopsis, so every XML index and the synopsis see the same
// node population under the same path keys. The zero value is ready to
// use. The label and key buffers are reused across Walk calls, so each
// long-lived owner keeps its own Walker; it is not safe for concurrent
// use.
type Walker struct {
	labels []Label
	key    []byte
	nodes  []*xdm.Node // Dict.IDs results
	ids    []uint32
}

// Walk visits every node of doc below the document node: each node, then
// its attributes, then its children. The document node itself is
// transparent and has no label. f receives the node, its label path from
// the root, and the path's key. The key is an injective byte encoding of
// the labels: per step, the kind byte, the namespace, 0x00, the local
// name, 0x01. Both slices are the walker's buffers and are valid only
// during the call.
func (w *Walker) Walk(doc *xdm.Node, f func(n *xdm.Node, labels []Label, key []byte)) {
	// A walk abandoned by a panic in f must not leave its path behind.
	w.labels, w.key = w.labels[:0], w.key[:0]
	w.walk(doc, f)
}

func (w *Walker) walk(n *xdm.Node, f func(*xdm.Node, []Label, []byte)) {
	mark := -1
	if n.Kind != xdm.DocumentNode {
		mark = w.push(n)
		f(n, w.labels, w.key)
	}
	for _, a := range n.Attrs {
		am := w.push(a)
		f(a, w.labels, w.key)
		w.pop(am)
	}
	for _, c := range n.Children {
		w.walk(c, f)
	}
	if mark >= 0 {
		w.pop(mark)
	}
}

// push appends n's label to the path and returns the key length pop
// restores.
func (w *Walker) push(n *xdm.Node) int {
	var l Label
	switch n.Kind {
	case xdm.ElementNode:
		l = Label{Kind: ElementLabel, Space: n.Name.Space, Local: n.Name.Local}
	case xdm.AttributeNode:
		l = Label{Kind: AttributeLabel, Space: n.Name.Space, Local: n.Name.Local}
	case xdm.TextNode:
		l = Label{Kind: TextLabel}
	case xdm.CommentNode:
		l = Label{Kind: CommentLabel}
	case xdm.ProcessingInstructionNode:
		l = Label{Kind: PILabel, Local: n.Name.Local}
	}
	mark := len(w.key)
	w.key = append(w.key, byte(l.Kind))
	w.key = append(w.key, l.Space...)
	w.key = append(w.key, 0)
	w.key = append(w.key, l.Local...)
	w.key = append(w.key, 1)
	w.labels = append(w.labels, l)
	return mark
}

func (w *Walker) pop(mark int) {
	w.key = w.key[:mark]
	w.labels = w.labels[:len(w.labels)-1]
}

// Dict is the path dictionary of one XML column: an append-only map from
// each distinct rooted label path in the column to a dense path ID, by
// which every XML index key and the path synopsis name paths. An ID
// never changes meaning. Safe for concurrent use; its lock is a leaf: no
// code holds it while taking another lock.
type Dict struct {
	mu    sync.RWMutex
	ids   map[string]uint32 // path key -> ID
	paths [][]Label         // by ID
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: map[string]uint32{}} }

// IDs walks doc in Walker.Walk's order and returns every node with its
// path ID, interning the paths the dictionary has not seen. It takes the
// read lock once per document, trading it at the first unseen path for
// the write lock, which it keeps to the end of the document. The node
// and ID slices are w's buffers, valid until w walks again.
func (d *Dict) IDs(w *Walker, doc *xdm.Node) (nodes []*xdm.Node, ids []uint32) {
	nodes, ids = w.nodes[:0], w.ids[:0]
	write := false
	d.mu.RLock()
	defer func() {
		if write {
			d.mu.Unlock()
		} else {
			d.mu.RUnlock()
		}
	}()
	w.Walk(doc, func(n *xdm.Node, labels []Label, key []byte) {
		id, ok := d.ids[string(key)]
		if !ok {
			if !write {
				d.mu.RUnlock()
				d.mu.Lock()
				write = true
			}
			id = d.add(labels, string(key))
		}
		nodes, ids = append(nodes, n), append(ids, id)
	})
	w.nodes, w.ids = nodes, ids
	return nodes, ids
}

// add interns a path under the write lock. Another walk may have added
// it since this one last looked.
func (d *Dict) add(labels []Label, key string) uint32 {
	if id, ok := d.ids[key]; ok {
		return id
	}
	id := uint32(len(d.paths))
	d.paths = append(d.paths, slices.Clone(labels))
	d.ids[key] = id
	return id
}

// Paths returns the label path of every ID interned so far, indexed by
// ID. It stays valid as the dictionary grows and must not be modified.
func (d *Dict) Paths() [][]Label {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.paths
}

// PathSet is a pattern's decision on a dictionary's paths: the IDs of
// the paths it matches among the first N, decided once by Dict.Match, so
// index maintenance, probes and the synopsis test an ID instead of
// matching labels. Has matches an ID at or above N, a path interned
// later, on demand and records nothing, so a set a cached plan shares
// stays read-only; only a set's single owner may Extend it.
type PathSet struct {
	pat  *Pattern
	dict *Dict
	ids  []uint32 // the matching IDs below n, ascending
	n    int
	buf  [2]uint32 // ids' first array: a query pattern matches a path or two
}

// Match decides which of the dictionary's paths p matches (nil if d is).
func (d *Dict) Match(p *Pattern) *PathSet {
	if d == nil {
		return nil
	}
	s := &PathSet{pat: p, dict: d}
	s.ids = s.buf[:0]
	s.Extend()
	return s
}

// Extend decides the paths interned since the set was last decided.
func (s *PathSet) Extend() {
	paths := s.dict.Paths()
	for id := s.n; id < len(paths); id++ {
		if s.pat.Match(paths[id]) {
			s.ids = append(s.ids, uint32(id))
		}
	}
	s.n = len(paths)
}

// Pattern returns the pattern the set was decided for.
func (s *PathSet) Pattern() *Pattern { return s.pat }

// Has reports whether the set's pattern matches the path with the given
// ID, which the dictionary must hold.
func (s *PathSet) Has(id uint32) bool {
	if int(id) < s.n {
		_, ok := slices.BinarySearch(s.ids, id)
		return ok
	}
	return s.pat.Match(s.dict.Paths()[id])
}
