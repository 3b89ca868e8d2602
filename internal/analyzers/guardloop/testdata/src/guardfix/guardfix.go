// Package guardfix exercises the guardloop analyzer: unguarded walks
// over posting lists, storage rows, and B+Tree-style leaf chains are
// flagged, whether they range over the container or index it up to
// len(x); loops that consult the guard, and annotated loops, are not.
package guardfix

import (
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/storage"
)

type node struct {
	next *node
	keys [][]byte
}

func sumUnguarded(l postings.List) uint32 {
	var total uint32
	for _, id := range l { // want "posting list .* does not consult the guard"
		total += id
	}
	return total
}

func sumGuarded(g *guard.Guard, l postings.List) (uint32, error) {
	var total uint32
	for _, id := range l {
		if err := g.Step(); err != nil {
			return 0, err
		}
		total += id
	}
	return total, nil
}

func countRows(rows []storage.Row) int {
	n := 0
	for range rows { // want "storage rows .* does not consult the guard"
		n++
	}
	return n
}

func walkChain(n *node) int {
	total := 0
	for ; n != nil; n = n.next { // want "leaf-chain walk does not consult the guard"
		total += len(n.keys)
	}
	return total
}

func walkChainChecked(g *guard.Guard, n *node) (int, error) {
	total := 0
	for ; n != nil; n = n.next {
		if err := g.Check(); err != nil {
			return 0, err
		}
		total += len(n.keys)
	}
	return total, nil
}

// decodeUnguarded mirrors the ordinal-decode loop shape of the
// node-granularity probe path: per-entry doc/ordinal unpacking over a
// postings.NodeList.
func decodeUnguarded(nl postings.NodeList) (uint32, uint32) {
	var docs, ords uint32
	for _, ref := range nl { // want "node posting list .* does not consult the guard"
		docs += postings.NodeDoc(ref)
		ords += postings.NodeOrd(ref)
	}
	return docs, ords
}

func decodeGuarded(g *guard.Guard, nl postings.NodeList) (uint32, uint32, error) {
	var docs, ords uint32
	for _, ref := range nl {
		if err := g.Step(); err != nil {
			return 0, 0, err
		}
		docs += postings.NodeDoc(ref)
		ords += postings.NodeOrd(ref)
	}
	return docs, ords, nil
}

// An index loop bounded by len(x) walks x just as a range over it does.
func sumIndexed(l postings.List) uint32 {
	var total uint32
	for i := 0; i < len(l); i++ { // want "posting list .* does not consult the guard"
		total += l[i]
	}
	return total
}

func countNodesIndexed(nl postings.NodeList) int {
	n := 0
	for i := range len(nl) { // want "node posting list .* does not consult the guard"
		n += int(postings.NodeOrd(nl[i]))
	}
	return n
}

func countRowsIndexed(rows []storage.Row) int {
	n := 0
	for i := 0; len(rows) > i; i++ { // want "storage rows .* does not consult the guard"
		n += len(rows[i].Cells)
	}
	return n
}

func sumIndexedGuarded(g *guard.Guard, l postings.List) (uint32, error) {
	var total uint32
	for i := 0; i < len(l); i++ {
		if err := g.Step(); err != nil {
			return 0, err
		}
		total += l[i]
	}
	return total, nil
}

// A len bound over a plain slice is not a guarded container.
func sumPlainIndexed(xs []uint32) uint32 {
	var total uint32
	for i := range len(xs) {
		total += xs[i]
	}
	return total
}

func sumAnnotated(l postings.List) uint32 {
	var total uint32
	//xqvet:unbounded-ok fixture: deliberately unbounded kernel
	for _, id := range l {
		total += id
	}
	return total
}
