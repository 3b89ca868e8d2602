package engine

import (
	"fmt"
	"testing"

	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// newMultiLineitemDB builds a corpus where every document holds several
// lineitems with distinct prices, so node-granular pruning decisions are
// observable: a document can satisfy two comparisons through different
// nodes, and positional predicates see a multi-item intermediate
// sequence.
func newMultiLineitemDB(t *testing.T) *Engine {
	t.Helper()
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	docs := []string{
		`<order><lineitem price="10"/><lineitem price="3"/><lineitem price="2"/></order>`,
		`<order><lineitem price="1"/><lineitem price="7"/><lineitem price="8"/></order>`,
		`<order><lineitem price="4"/><lineitem price="4"/><lineitem price="9"/></order>`,
	}
	for i, d := range docs {
		mustSQL(t, e, fmt.Sprintf(`insert into orders values (%d, '%s')`, i, d))
	}
	createLiPrice(t, e)
	return e
}

// checkSeedSound runs q with and without indexes and requires identical
// serialized results — the invariant every seeding strategy must keep.
func checkSeedSound(t *testing.T, e *Engine, q string) {
	t.Helper()
	full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
	if err != nil {
		t.Fatalf("full: %v", err)
	}
	idx, istats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	if xdm.SerializeSequence(full) != xdm.SerializeSequence(idx) {
		t.Errorf("%s:\nfull: %s\nidx:  %s\nstats: %+v", q, xdm.SerializeSequence(full), xdm.SerializeSequence(idx), istats.IndexesUsed)
	}
}

// A positional predicate interleaved between two comparisons on the same
// step observes the intermediate sequence. Intersecting the two probes'
// hit lists into a shared seed would flip the first predicate's per-node
// outcome and renumber the positions, so the brackets — distinct
// conjunction scopes — must each seed their own hits.
func TestSeedPositionalInterleave(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkSeedSound(t, e, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order/lineitem[@price > 1][1][@price < 5]`)
	checkSeedSound(t, e, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order/lineitem[@price > 1][last()][@price < 9]`)
}

// Two brackets over the same pattern at different sites of one binding
// occurrence are existentially independent: a document may satisfy each
// through a different lineitem. Neither the seeds nor the document
// pre-filter may take their intersection.
func TestSeedCrossSiteBrackets(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkSeedSound(t, e, `for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $d/lineitem[@price > 5] return $d/lineitem[@price < 3]`)
}

// Between-range pairing must not merge comparisons that filter different
// step instances: "lineitem[@price > 5] and lineitem[@price < 3]" is
// satisfiable by two different lineitems even though no single price is
// both above 5 and below 3.
func TestSeedBetweenAcrossAndBranches(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkSeedSound(t, e, `for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $d/lineitem[@price > 5] and $d/lineitem[@price < 3] return $d`)
}

// Comparisons inside one bracket still intersect at node granularity —
// the tightening the scope gate must preserve.
func TestSeedSameBracketStillIntersects(t *testing.T) {
	e := newMultiLineitemDB(t)
	const q = `for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $d/lineitem[@price > 5 and @price < 9] return $d`
	checkSeedSound(t, e, q)
	_, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesSeeded == 0 {
		t.Fatal("same-bracket conjunction: expected node-granular seeds")
	}
}

// Node-granular seeding falls back to document granularity while any
// document in the column carries type annotations: the evaluator may
// raise a dynamic error on a typed node that the tolerant index never
// recorded, so seeded navigation must not skip it. Mirrors the
// index-only gate.
func TestSeedingGatedByAnnotatedDocs(t *testing.T) {
	e := newMultiLineitemDB(t)
	const q = `for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $d/lineitem[@price > 5 and @price < 9] return $d`

	_, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesSeeded == 0 {
		t.Fatal("untyped corpus: expected node-granular seeds")
	}

	doc, err := xmlparse.Parse(`<order><lineitem price="7"/></order>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlschema.New("v1").Declare("@price", xdm.Double).Validate(doc); err != nil {
		t.Fatal(err)
	}
	tab, err := e.Catalog.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	id, err := tab.Insert([]storage.Cell{{V: xdm.NewInteger(1000)}, {Doc: doc}})
	if err != nil {
		t.Fatal(err)
	}
	seq, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesSeeded != 0 {
		t.Fatal("annotated document present: node seeding must fall back to document granularity")
	}
	full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if xdm.SerializeSequence(seq) != xdm.SerializeSequence(full) {
		t.Fatalf("typed-corpus fallback diverged:\nfull: %s\nidx:  %s", xdm.SerializeSequence(full), xdm.SerializeSequence(seq))
	}

	// Deleting the annotated document restores node-granular seeding.
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	_, stats, err = e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesSeeded == 0 {
		t.Fatal("annotated document deleted: node seeding must return")
	}
}

// checkCombineFirstSound runs q indexed and compares it with both
// baselines seeding could diverge from: the full scan (UseIndexes off)
// and the document-granular pre-filter (NoNodeSeeds). It also fails
// unless exactly nodesSeeded hits were seeded.
func checkCombineFirstSound(t *testing.T, e *Engine, q string, nodesSeeded int) {
	t.Helper()
	idx, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	for _, o := range []ExecOptions{{}, {UseIndexes: true, NoNodeSeeds: true}} {
		base, _, err := e.ExecXQueryOpts(q, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if xdm.SerializeSequence(base) != xdm.SerializeSequence(idx) {
			t.Errorf("%s:\n%+v: %s\nseeded: %s", q, o, xdm.SerializeSequence(base), xdm.SerializeSequence(idx))
		}
	}
	if stats.NodesSeeded != nodesSeeded {
		t.Errorf("%s: NodesSeeded = %d, want %d (%v)", q, stats.NodesSeeded, nodesSeeded, stats.IndexesUsed)
	}
}

const ordersColl = `db2-fn:xmlcolumn('ORDERS.ORDDOC')`

// Seeds are filtered by what the resolver serves — the union across the
// collection's occurrences — not by one occurrence's intersection. The
// first occurrence keeps only order 0 (a price above 8 and one below 3);
// order 2 fails it but survives through the second occurrence, so the
// resolver hands order 2 to both bindings and its price-9 hit keeps its
// seed. Seeded: 10 and 9 (> 8), 2 (< 3; order 1's 1 is dropped) and
// order 2's two 4s (= 4).
func TestSeedSurvivorsAreTheCollectionUnion(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkCombineFirstSound(t, e, `(for $a in `+ordersColl+`/order where $a/lineitem[@price > 8] and $a/lineitem[@price < 3] return $a, `+
		`for $b in `+ordersColl+`/order where $b/lineitem[@price = 4] return $b)`, 5)
}

// An occurrence with no probe poisons the collection: every document is
// served, so every hit is seeded.
func TestSeedPoisonedCollectionSeedsEveryHit(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkCombineFirstSound(t, e, `(for $a in `+ordersColl+`/order where $a/lineitem[@price > 8] return $a, `+
		`for $b in `+ordersColl+`/order where $b/lineitem[@price != 4] return $b/lineitem[1])`, 2)
	checkCombineFirstSound(t, e, `(for $a in `+ordersColl+`/order where $a/lineitem[@price > 8] return $a, `+ordersColl+`/order/lineitem[1])`, 2)
}

// A conjunct the synopsis skips (no stored path under nosuch) empties its
// occurrence, so no document survives and the other conjunct's four hits
// seed nothing.
func TestSeedSynopsisSkipSeedsNothing(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkCombineFirstSound(t, e, `for $a in `+ordersColl+`/order where $a/lineitem[@price > 5] and $a/nosuch/lineitem/@price > 1 return $a`, 0)
}

// A node-scope group (bounds in one bracket intersect per node) is
// followed by the document-level intersection with a third probe. With
// "> 5 and > 7" the group keeps 10, 8 and 9 in all three orders; "< 3"
// keeps orders 0 and 1, so each group member seeds 10 and 8, and the
// third probe seeds 2 and 1. With ">= 4 and < 9" plus "> 3" the group
// keeps 7, 8 and order 2's two 4s, and "< 3" narrows the survivors to
// order 1: 7 and 8 per member, and 1.
func TestSeedNodeScopeGroupThenDocIntersection(t *testing.T) {
	e := newMultiLineitemDB(t)
	checkCombineFirstSound(t, e, `for $a in `+ordersColl+`/order where $a/lineitem[@price > 5 and @price > 7] and $a/lineitem[@price < 3] return $a`, 6)
	checkCombineFirstSound(t, e, `for $a in `+ordersColl+`/order where $a/lineitem[@price >= 4 and @price < 9 and @price > 3] and $a/lineitem[@price < 3] return $a`, 5)
}
