// Package synopsis maintains a DataGuide-style path summary for one XML
// column: every distinct rooted label path that occurs in the stored
// documents, with its total node count and the number of documents
// containing it. The summary is tiny compared to the data (paths repeat
// massively across a corpus), cheap to maintain incrementally, and gives
// the planner structural statistics the indexes cannot: whether a query
// pattern can match anything at all, how many nodes it reaches, and how
// many documents those nodes spread over.
//
// Paths are the column's pattern.Dict IDs, the ones every XML index key
// of the column carries, and the counts are kept by ID. AddDoc, RemoveDoc
// and a bulk load's Merge walk documents straight into the counts, one
// dictionary lookup per node and no allocation once the paths are known.
package synopsis

import (
	"sort"
	"strings"
	"sync"

	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
)

// stat is the statistics for one path ID. A path whose count is 0 is
// not in the synopsis.
type stat struct {
	count int64 // nodes with this path across all documents
	docs  int64 // documents containing at least one such node
	// seen marks the last document walk that touched this path, so the
	// per-document containment count needs no per-document set.
	seen uint64
}

// Synopsis is the path summary for one XML column. The zero value is not
// usable; construct with New. All methods are safe for concurrent use
// and nil-safe: a nil synopsis reports no knowledge (Count returns
// -1, -1) and ignores maintenance calls, so callers on tables built
// without a synopsis need no special casing.
type Synopsis struct {
	dict *pattern.Dict

	mu     sync.RWMutex
	stats  []stat // by path ID
	live   int64  // path IDs whose count is not 0
	walks  uint64 // documents count has walked
	walker pattern.Walker
	// mPaths, when instrumented, tracks the distinct path count.
	mPaths *metrics.Gauge
}

// New returns an empty synopsis over the column's path dictionary.
func New(dict *pattern.Dict) *Synopsis {
	return &Synopsis{dict: dict}
}

// Dict returns the column's path dictionary (nil for a nil synopsis).
func (s *Synopsis) Dict() *pattern.Dict {
	if s == nil {
		return nil
	}
	return s.dict
}

// Instrument attaches the distinct-path gauge (shared across columns:
// updates are deltas, not sets), moving the synopsis's count off any
// gauge attached before. Instrument(nil) detaches a dropped column's
// synopsis.
func (s *Synopsis) Instrument(g *metrics.Gauge) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.mPaths.Add(-s.live)
	s.mPaths = g
	s.mPaths.Add(s.live)
}

// Len returns the number of distinct paths.
func (s *Synopsis) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.live)
}

// AddDoc merges one document's paths into the synopsis. It reports
// whether the path set changed (a path seen for the first time); a
// count-only change can stale an estimate but never a skip decision, so
// only a path-set change invalidates cached plans.
func (s *Synopsis) AddDoc(doc *xdm.Node) bool { return s.count(1, doc) }

// RemoveDoc subtracts one document's paths; a path whose node count
// reaches zero leaves the synopsis. It reports whether the path set
// changed. The document must have been added before: a path already
// absent is left alone.
func (s *Synopsis) RemoveDoc(doc *xdm.Node) bool { return s.count(-1, doc) }

// Merge counts a batch's documents in under one lock take and reports
// whether the path set changed. The batch must not be reused after.
func (s *Synopsis) Merge(b *Batch) bool { return s.count(1, b.docs...) }

// count walks the documents into the counts under one lock take, adding
// (delta 1) or removing (delta -1) their nodes, and reports whether the
// path set changed: a path appears as its node count leaves 0 and
// disappears as it reaches 0.
func (s *Synopsis) count(delta int64, docs ...*xdm.Node) bool {
	if s == nil || len(docs) == 0 {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	moved := int64(0) // paths that appeared, or minus those that went
	for _, doc := range docs {
		s.walks++
		_, ids := s.dict.IDs(&s.walker, doc)
		for _, id := range ids {
			for int(id) >= len(s.stats) {
				s.stats = append(s.stats, stat{})
			}
			st := &s.stats[id]
			if st.count == 0 {
				if delta < 0 {
					continue
				}
				moved++
			}
			st.count += delta
			if st.seen != s.walks {
				st.seen = s.walks
				st.docs += delta
			}
			if st.count == 0 {
				moved--
			}
		}
	}
	if moved == 0 {
		return false
	}
	s.live += moved
	s.mPaths.Add(moved)
	return true
}

// Count sums the statistics of the paths in set, a set decided on the
// synopsis's dictionary: the matching node count, which is exact, and
// the sum of per-path document counts, an upper bound (a document
// holding two matching paths counts twice), as a selectivity estimate
// needs. A nil synopsis or set returns (-1, -1): no knowledge.
func (s *Synopsis) Count(set *pattern.PathSet) (nodes, docs int64) {
	if s == nil || set == nil {
		return -1, -1
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for id, st := range s.stats {
		if st.count != 0 && set.Has(uint32(id)) {
			nodes += st.count
			docs += st.docs
		}
	}
	return nodes, docs
}

// Match is Count over the paths p matches now.
func (s *Synopsis) Match(p *pattern.Pattern) (nodes, docs int64) { return s.Count(s.Dict().Match(p)) }

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
	paths := s.dict.Paths()
	out := make([]PathStat, 0, s.live)
	for id, st := range s.stats {
		if st.count != 0 {
			out = append(out, PathStat{Path: renderPath(paths[id]), Count: st.count, Docs: st.docs})
		}
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

// Batch collects a column's documents, so that a bulk load's commit
// counts them all in under one synopsis lock take (Merge). Not safe for
// concurrent use.
type Batch struct {
	docs []*xdm.Node
}

// NewBatch returns an empty batch.
func NewBatch() *Batch { return &Batch{} }

// AddDoc adds a document to the batch.
func (b *Batch) AddDoc(doc *xdm.Node) { b.docs = append(b.docs, doc) }
