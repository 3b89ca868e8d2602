// Package synopsis maintains a DataGuide-style path summary for one XML
// column: every distinct rooted label path that occurs in the stored
// documents, with its total node count and the number of documents
// containing it. The summary is tiny compared to the data (paths repeat
// massively across a corpus), cheap to maintain incrementally, and gives
// the planner structural statistics the indexes cannot: whether a query
// pattern can match anything at all, how many nodes it reaches, and how
// many documents those nodes spread over.
//
// Workers accumulate per-document path counts lock-free in a Batch and
// merge it into the shared synopsis under one lock take, so ingestion
// pays one extra map update per distinct path per worker, not per node.
// Paths come from pattern.Walker, the walk the XML indexes extract with,
// so the synopsis and every index key paths the same way.
package synopsis

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
)

// entry is the statistics for one distinct rooted label path.
type entry struct {
	labels []pattern.Label
	count  int64 // nodes with this path across all documents
	docs   int64 // documents containing at least one such node
}

// Synopsis is the path summary for one XML column. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and nil-safe: a nil synopsis reports no knowledge (Match returns
// -1, -1) and ignores maintenance calls, so callers on tables built
// without a synopsis need no special casing.
type Synopsis struct {
	mu    sync.RWMutex
	byKey map[string]*entry
	// version counts path-set changes (a distinct path appearing or the
	// last node of a path disappearing). Count-only changes do not bump
	// it: they can stale an estimate but never a skip decision.
	version atomic.Uint64
	// mPaths, when instrumented, tracks the distinct path count.
	mPaths *metrics.Gauge
}

// New returns an empty synopsis.
func New() *Synopsis {
	return &Synopsis{byKey: map[string]*entry{}}
}

// Instrument attaches the distinct-path gauge (shared across columns:
// updates are deltas, not sets).
func (s *Synopsis) Instrument(g *metrics.Gauge) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mPaths = g
	s.mPaths.Add(int64(len(s.byKey)))
}

// Version returns the path-set version counter.
func (s *Synopsis) Version() uint64 {
	if s == nil {
		return 0
	}
	return s.version.Load()
}

// Len returns the number of distinct paths.
func (s *Synopsis) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byKey)
}

// AddDoc merges one document's paths into the synopsis. It reports
// whether the path set changed (a path seen for the first time).
func (s *Synopsis) AddDoc(doc *xdm.Node) bool {
	if s == nil {
		return false
	}
	b := NewBatch()
	b.AddDoc(doc)
	return s.Merge(b)
}

// RemoveDoc subtracts one document's paths, deleting entries whose node
// count reaches zero. It reports whether the path set changed. The
// document must have been added before (counts are not clamped — a
// mismatched remove is a caller bug the rebuild-equivalence tests catch).
func (s *Synopsis) RemoveDoc(doc *xdm.Node) bool {
	if s == nil {
		return false
	}
	b := NewBatch()
	b.AddDoc(doc)
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := int64(0)
	for k, be := range b.byKey {
		e := s.byKey[k]
		if e == nil {
			continue
		}
		e.count -= be.count
		e.docs -= be.docs
		if e.count <= 0 {
			delete(s.byKey, k)
			removed++
		}
	}
	if removed == 0 {
		return false
	}
	s.version.Add(1)
	if s.mPaths != nil {
		s.mPaths.Add(-removed)
	}
	return true
}

// Merge folds a batch into the synopsis under one lock take and reports
// whether the path set changed. The batch must not be reused after.
func (s *Synopsis) Merge(b *Batch) bool {
	if s == nil || len(b.byKey) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	added := int64(0)
	for k, be := range b.byKey {
		if e, ok := s.byKey[k]; ok {
			e.count += be.count
			e.docs += be.docs
		} else {
			s.byKey[k] = &entry{labels: be.labels, count: be.count, docs: be.docs}
			added++
		}
	}
	if added == 0 {
		return false
	}
	s.version.Add(1)
	if s.mPaths != nil {
		s.mPaths.Add(added)
	}
	return true
}

// Match sums the statistics of every path the pattern matches: the total
// matching node count and the sum of per-path document counts. The node
// count is exact (each node's rooted path matches or does not); the
// document figure is an upper bound — a document holding two distinct
// matching paths is counted twice — which is what a selectivity estimate
// needs. A nil synopsis returns (-1, -1): no knowledge.
func (s *Synopsis) Match(p *pattern.Pattern) (nodes, docs int64) {
	if s == nil || p == nil {
		return -1, -1
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, e := range s.byKey {
		if p.Match(e.labels) {
			nodes += e.count
			docs += e.docs
		}
	}
	return nodes, docs
}

// PathStat is one path's statistics in Paths' enumeration.
type PathStat struct {
	// Path renders the label path in XMLPATTERN syntax: /a/b/@c,
	// /a/text(), /{ns}e for namespaced elements.
	Path  string
	Count int64
	Docs  int64
}

// Paths enumerates the summary sorted by rendered path, so the output is
// stable across runs regardless of map iteration order.
func (s *Synopsis) Paths() []PathStat {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	out := make([]PathStat, 0, len(s.byKey))
	for _, e := range s.byKey {
		out = append(out, PathStat{Path: renderPath(e.labels), Count: e.count, Docs: e.docs})
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// renderPath writes a label path in the XMLPATTERN surface syntax.
func renderPath(labels []pattern.Label) string {
	var b strings.Builder
	for _, l := range labels {
		b.WriteByte('/')
		switch l.Kind {
		case pattern.AttributeLabel:
			b.WriteByte('@')
		case pattern.TextLabel:
			b.WriteString("text()")
			continue
		case pattern.CommentLabel:
			b.WriteString("comment()")
			continue
		case pattern.PILabel:
			b.WriteString("processing-instruction(" + l.Local + ")")
			continue
		}
		if l.Space != "" {
			b.WriteString("{" + l.Space + "}")
		}
		b.WriteString(l.Local)
	}
	return b.String()
}

// bentry is one path's counts inside a Batch.
type bentry struct {
	labels []pattern.Label
	count  int64
	docs   int64
	// seenDoc marks the last Batch.docSeq that touched this path, so the
	// per-document containment count needs no per-document set.
	seenDoc int64
}

// Batch accumulates path counts for a set of documents without touching
// any shared state. Not safe for concurrent use — one batch per worker.
type Batch struct {
	byKey  map[string]*bentry
	walker pattern.Walker
	docSeq int64
}

// NewBatch returns an empty batch.
func NewBatch() *Batch {
	return &Batch{byKey: map[string]*bentry{}}
}

// Len returns the number of distinct paths accumulated.
func (b *Batch) Len() int { return len(b.byKey) }

// AddDoc records the rooted label path of every node pattern.Walker
// visits: elements, attributes, text, comment, and processing-instruction
// nodes, with the document node transparent.
func (b *Batch) AddDoc(doc *xdm.Node) {
	b.docSeq++
	b.walker.Walk(doc, func(_ *xdm.Node, labels []pattern.Label, key []byte) {
		e := b.byKey[string(key)]
		if e == nil {
			e = &bentry{labels: slices.Clone(labels)}
			b.byKey[string(key)] = e
		}
		e.count++
		if e.seenDoc != b.docSeq {
			e.seenDoc = b.docSeq
			e.docs++
		}
	})
}
