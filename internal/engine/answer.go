package engine

import (
	"fmt"
	"strings"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
)

// answerSource marks a plan answerable without walking documents
// (Definition 1 with the index as the whole answer): fn:count/fn:exists
// over a path (core.DocFreeQuery), answered by one of two sources. A
// predicate-free path reads the column's live path synopsis; a value
// predicate reads one node-granularity probe of an eligible index whose
// match population provably equals the query path's. Execution falls
// back to normal evaluation whenever the source has no exact answer.
type answerSource struct {
	q *core.DocFreeQuery
	// table is the collection's table; nil (unknown collection) leaves
	// a synopsis source to fall through at execution.
	table  *storage.Table
	column string
	// paths is the query pattern's path set, decided at plan time.
	paths *pattern.PathSet
	// index, when non-nil, selects the index source; nil selects the
	// synopsis.
	index *xmlindex.Index
	probe xmlindex.Probe
	// label is the source's IndexesUsed description.
	label string
}

// planAnswer picks the source for a document-free query. A structural
// query always gets the synopsis source; its data-dependent gates run at
// execution. A value query gets the first index that is Definition-1
// eligible for the predicate AND whose pattern matches exactly the query
// pattern's node population (per the column synopsis). Pattern matching
// depends only on a node's rooted label path, so population equality is
// a property of the synopsis path set — and every path-set change bumps
// the catalog version, invalidating cached plans. nil means no index
// qualifies and the query evaluates normally.
func (e *Engine) planAnswer(q *core.DocFreeQuery) *answerSource {
	a := &answerSource{q: q}
	if dot := strings.IndexByte(q.Collection, '.'); dot >= 0 {
		if tab, err := e.Catalog.Table(q.Collection[:dot]); err == nil {
			a.table, a.column = tab, q.Collection[dot+1:]
			a.paths = tab.Synopsis(a.column).Dict().Match(q.Pattern)
		}
	}
	if q.Value == nil {
		a.label = fmt.Sprintf("synopsis(%s %s over %s)", answerKind(q), q.Pattern, q.Collection)
		return a
	}
	if a.table == nil {
		return nil
	}
	r, ok := opRange(q.Op, *q.Value)
	if !ok {
		return nil // e.g. != cannot be answered by one range probe
	}
	syn := a.table.Synopsis(a.column)
	qNodes, _ := syn.Count(a.paths)
	if qNodes < 0 {
		return nil // no synopsis: population equality cannot be established
	}
	pred := q.Predicate()
	for _, xi := range a.table.XMLIndexes(a.column) {
		if !core.Decide(xi.Index.Pattern, xi.Index.Type, pred).Eligible() {
			continue
		}
		// Containment (checked above) makes the query's matches a
		// subset of the index's; equal totals make them the same set,
		// so every index entry in range is a query hit and vice versa.
		if iNodes, _ := syn.Count(syn.Dict().Match(xi.Index.Pattern)); iNodes != qNodes {
			continue
		}
		a.index = xi.Index
		a.probe = xmlindex.Probe{Range: r, Paths: a.paths}
		a.label = fmt.Sprintf("%s(%s of %s %s %s)", xi.Name, answerKind(q), q.Pattern, q.Op.GeneralSymbol(), q.Value.Lexical())
		return a
	}
	return nil
}

// answer runs the plan's document-free source: fn:count is the number of
// nodes the source names, fn:exists their existence. ok=false — source
// disabled by its knob, no synopsis on the column, annotated documents
// present, probe bound does not cast — falls through to normal
// evaluation, which surfaces its ordinary errors; only guard violations
// abort.
func (e *Engine) answer(a *answerSource, g *guard.Guard, o ExecOptions, stats *Stats) (xdm.Sequence, bool, error) {
	t0, keys0 := stats.Trace.now(), stats.KeysVisited
	var nodes int64
	label := a.label
	if a.index == nil {
		if o.NoSynopsis || a.table == nil {
			return nil, false, nil
		}
		if nodes, _ = a.table.Synopsis(a.column).Count(a.paths); nodes < 0 {
			return nil, false, nil
		}
		stats.SynopsisAnswered = true
	} else {
		if o.NoIndexOnly || annotatedColumn(a.table, a.q.Collection) {
			return nil, false, nil
		}
		hits, cached, ok, err := indexProbe(a.index, a.probe, g, o, stats)
		if !ok {
			return nil, false, err // non-castable bound: evaluate normally
		}
		nodes = int64(len(hits.Nodes))
		stats.NodesDecoded += len(hits.Nodes)
		stats.IndexOnlyAnswered = true
		label = cachedLabel(label+" [index-only]", cached)
	}
	stats.IndexesUsed = append(stats.IndexesUsed, label)
	if stats.Trace != nil {
		note := fmt.Sprintf("%s: %d nodes", label, nodes)
		if a.index != nil {
			note = fmt.Sprintf("%s: %d keys, %d nodes", label, stats.KeysVisited-keys0, nodes)
		}
		stats.Trace.add("probe", note, t0)
	}
	// A free answer still answers to the guard: a canceled query aborts
	// instead of returning it.
	if err := g.Check(); err != nil {
		return nil, false, err
	}
	if a.q.Count {
		return xdm.Sequence{xdm.NewInteger(nodes)}, true, nil
	}
	return xdm.Sequence{xdm.NewBoolean(nodes > 0)}, true, nil
}

// explain renders the source's EXPLAIN line.
func (a *answerSource) explain() string {
	if a.index == nil {
		return fmt.Sprintf("structural-only: %s of %s over %s answered from the path synopsis (no documents touched)\n",
			answerKind(a.q), a.q.Pattern, a.q.Collection)
	}
	return fmt.Sprintf("index-only: %s over %s answered at node granularity (no documents touched)\n", a.label, a.q.Collection)
}

func answerKind(q *core.DocFreeQuery) string {
	if q.Count {
		return "count"
	}
	return "exists"
}

// annotatedColumn is the exactness gate shared by every use of index hits
// as nodes — index-only answers and node seeding. It reports whether the
// collection coll ("table.column") currently stores any schema-annotated document: typed values can
// make the evaluated comparison raise a dynamic error the tolerant index
// never recorded, and only untyped corpora compare exactly like the index
// (§3.1). It is checked per execution because it is a property of the
// data, not the schema version.
func annotatedColumn(tab *storage.Table, coll string) bool {
	_, column, _ := strings.Cut(coll, ".")
	return tab.HasAnnotatedDocs(column)
}
