package engine

import (
	"slices"
	"sort"
	"strings"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xquery"
)

// buildSeed converts one probe's node hits into evaluator seed sets:
// per stored document, the hit ordinals plus their ancestor closure,
// keyed by the document tree's id. When filtered, only hits in documents
// of survivors are seeded — the rest leapfrog past without a row lookup
// or an allocation. A document the table no longer holds contributes
// nothing — its tree is gone from the collection too, so pruning it is
// consistent with the document pre-filter. It also returns the number of
// hits seeded. nil (without error) means the column cannot be resolved
// and seeding is skipped.
func (e *Engine) buildSeed(g *guard.Guard, tab *storage.Table, coll string, nodes postings.NodeList, survivors postings.List, filtered bool) (*xquery.PathSeed, int, error) {
	dot := strings.IndexByte(coll, '.')
	if dot < 0 {
		return nil, 0, nil
	}
	ci, err := tab.ColumnIndex(coll[dot+1:])
	if err != nil {
		return nil, 0, nil
	}
	next := func(i int) int {
		if filtered {
			return nodes.NextInDocs(i, survivors)
		}
		return i
	}
	seed := &xquery.PathSeed{Hits: map[uint64][]uint32{}, Live: map[uint64][]uint32{}}
	seeded := 0
	for i := next(0); i < len(nodes); {
		doc := postings.NodeDoc(nodes[i])
		j := i
		for j < len(nodes) && postings.NodeDoc(nodes[j]) == doc {
			j++
		}
		if err := g.Step(); err != nil {
			return nil, 0, err
		}
		row, ok := tab.RowByID(doc)
		if ok {
			cell := row.Cells[ci]
			if !cell.Null && cell.Doc != nil {
				hits := make([]uint32, j-i)
				for k := i; k < j; k++ {
					hits[k-i] = postings.NodeOrd(nodes[k])
				}
				live, err := ancestorClosure(g, cell.Doc, hits)
				if err != nil {
					return nil, 0, err
				}
				seed.Hits[cell.Doc.TreeID] = hits
				seed.Live[cell.Doc.TreeID] = live
				seeded += len(hits)
			}
		}
		i = next(j)
	}
	return seed, seeded, nil
}

// ancestorClosure returns the sorted ordinals of the hits together with
// every ancestor on their root paths. Each hit is located by preorder
// descent: ordinals are preorder positions (attributes directly after
// their owner, before its children), so at each level the child whose
// ordinal is the largest one <= the target contains the target.
func ancestorClosure(g *guard.Guard, root *xdm.Node, hits []uint32) ([]uint32, error) {
	out := make([]uint32, 0, 2*len(hits))
	for _, h := range hits {
		if err := g.Step(); err != nil {
			return nil, err
		}
		n := root
		//xqvet:unbounded-ok descent depth is bounded by the document height; the per-hit guard step above meters the walk
		for n != nil {
			out = append(out, n.Ordinal)
			if n.Ordinal == h {
				break
			}
			n = childToward(n, h)
		}
	}
	slices.Sort(out)
	// Root paths of nearby hits share ancestors, so duplicates are the
	// common case.
	return slices.Compact(out), nil
}

// childToward returns the child of n whose subtree holds preorder
// ordinal h — the last child with Ordinal <= h — or n's attribute with
// that ordinal (attributes precede the first child in preorder). nil
// means h is not under n; the caller's chain simply ends, which can
// only under-prune, never over-prune.
func childToward(n *xdm.Node, h uint32) *xdm.Node {
	kids := n.Children
	idx := sort.Search(len(kids), func(i int) bool { return kids[i].Ordinal > h }) - 1
	if idx < 0 {
		for _, a := range n.Attrs {
			if a.Ordinal == h {
				return a
			}
		}
		return nil
	}
	return kids[idx]
}
