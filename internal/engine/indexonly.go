package engine

import (
	"fmt"
	"strings"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
)

// indexOnlySpec marks a plan answerable from one node-granularity probe
// alone: fn:count/fn:exists over a value predicate (core.IndexOnlyQuery)
// with an eligible index whose match population provably equals the
// query path's. The remaining gate — no schema-annotated documents in
// the column — is data the catalog version does not cover, so it is
// checked per execution, not here.
type indexOnlySpec struct {
	q      *core.IndexOnlyQuery
	index  *xmlindex.Index
	table  *storage.Table
	column string
	probe  xmlindex.Probe
	label  string
}

// planIndexOnly screens an index-only candidate against the catalog:
// the first index that is Definition-1 eligible for the predicate AND
// whose pattern matches exactly the query pattern's node population
// (per the column synopsis) carries the answer. Pattern matching
// depends only on a node's rooted label path, so population equality is
// a property of the synopsis path set — and every path-set change bumps
// the catalog version, invalidating cached plans. nil means no index
// qualifies and the query evaluates normally.
func (e *Engine) planIndexOnly(iq *core.IndexOnlyQuery) *indexOnlySpec {
	dot := strings.IndexByte(iq.Collection, '.')
	if dot < 0 {
		return nil
	}
	tab, err := e.Catalog.Table(iq.Collection[:dot])
	if err != nil {
		return nil
	}
	column := iq.Collection[dot+1:]
	r, ok := opRange(iq.Op, iq.Value)
	if !ok {
		return nil // e.g. != cannot be answered by one range probe
	}
	syn := tab.Synopsis(column)
	qNodes, _ := syn.Match(iq.Pattern)
	if qNodes < 0 {
		return nil // no synopsis: population equality cannot be established
	}
	pred := iq.Predicate()
	for _, xi := range tab.XMLIndexes(column) {
		v := core.CheckIndex(xi.Name, xi.Index.Pattern, xi.Index.Type, pred)
		if !v.Eligible {
			continue
		}
		// Containment (checked above) makes the query's matches a
		// subset of the index's; equal totals make them the same set,
		// so every index entry in range is a query hit and vice versa.
		if iNodes, _ := syn.Match(xi.Index.Pattern); iNodes != qNodes {
			continue
		}
		kind := "exists"
		if iq.Count {
			kind = "count"
		}
		return &indexOnlySpec{
			q: iq, index: xi.Index, table: tab, column: column,
			probe: xmlindex.Probe{Range: r, QueryPattern: iq.Pattern},
			label: fmt.Sprintf("%s(%s of %s %s %s)", xi.Name, kind, iq.Pattern, iq.Op.GeneralSymbol(), iq.Value.Lexical()),
		}
	}
	return nil
}

// answerIndexOnly answers an index-only plan from a node-granularity
// probe: fn:count is the number of matched node references, fn:exists
// their existence. ok=false — annotated documents present, probe bound
// does not cast — falls through to normal evaluation; only guard
// violations abort.
func (e *Engine) answerIndexOnly(spec *indexOnlySpec, g *guard.Guard, o ExecOptions, stats *Stats) (xdm.Sequence, bool, error) {
	if spec.table.HasAnnotatedDocs(spec.column) {
		// Typed values can raise comparison errors the tolerant index
		// never recorded; only untyped corpora compare exactly like the
		// index (§3.1).
		return nil, false, nil
	}
	t0, keys0 := stats.Trace.now(), stats.KeysVisited
	list, cached, ok, err := indexProbe(spec.index.NodeList, spec.probe, g, o, stats)
	if !ok {
		return nil, false, err // non-castable bound: evaluate normally
	}
	nodes := len(list)
	stats.NodesDecoded += nodes
	stats.IndexOnlyAnswered = true
	label := cachedLabel(spec.label+" [index-only]", cached)
	stats.IndexesUsed = append(stats.IndexesUsed, label)
	stats.Trace.add("probe", fmt.Sprintf("%s: %d keys, %d nodes", label, stats.KeysVisited-keys0, nodes), t0)
	if spec.q.Count {
		return xdm.Sequence{xdm.NewInteger(int64(nodes))}, true, nil
	}
	return xdm.Sequence{xdm.NewBoolean(nodes > 0)}, true, nil
}
