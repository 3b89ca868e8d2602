package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// Index-only answers: fn:count/fn:exists over a value predicate come
// straight from a node-granularity probe — no documents touched — and
// agree byte for byte with normal evaluation.
func TestIndexOnlyCountAndExists(t *testing.T) {
	e := newPaperDB(t, 60)
	createLiPrice(t, e)

	cases := []struct {
		query string
		want  string
	}{
		// Every third of 60 orders qualifies.
		{`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 100])`, "20"},
		{`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 1000])`, "0"},
		{`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])`, "true"},
		{`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 1000])`, "false"},
	}
	for _, c := range cases {
		seq, stats, err := e.ExecXQueryOpts(c.query, ExecOptions{UseIndexes: true})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if !stats.IndexOnlyAnswered {
			t.Fatalf("%s: not answered index-only", c.query)
		}
		if got := xdm.SerializeSequence(seq); got != c.want {
			t.Fatalf("%s = %s, want %s", c.query, got, c.want)
		}
		if stats.DocsScanned != 0 {
			t.Fatalf("%s: scanned %d documents", c.query, stats.DocsScanned)
		}
		if len(stats.IndexesUsed) != 1 || !strings.Contains(stats.IndexesUsed[0], "[index-only]") {
			t.Fatalf("%s: IndexesUsed = %v, want the [index-only] marker", c.query, stats.IndexesUsed)
		}

		// Normal evaluation agrees.
		base, bstats, err := e.ExecXQueryOpts(c.query, ExecOptions{UseIndexes: true, NoIndexOnly: true})
		if err != nil {
			t.Fatalf("%s baseline: %v", c.query, err)
		}
		if bstats.IndexOnlyAnswered {
			t.Fatalf("%s: NoIndexOnly run still answered index-only", c.query)
		}
		if xdm.SerializeSequence(base) != xdm.SerializeSequence(seq) {
			t.Fatalf("%s: index-only %s != evaluated %s", c.query, xdm.SerializeSequence(seq), xdm.SerializeSequence(base))
		}
	}
	if got := e.Metrics.Counter("engine.index_only_answers").Value(); got != int64(len(cases)) {
		t.Fatalf("engine.index_only_answers = %d, want %d", got, len(cases))
	}
}

// Typed (schema-annotated) documents can raise comparison errors the
// tolerant index never recorded, so their presence must disable the
// index-only shortcut at execution time — and re-enable it once the
// annotated document is gone.
func TestIndexOnlyGatedByAnnotatedDocs(t *testing.T) {
	e := newPaperDB(t, 30)
	createLiPrice(t, e)
	const q = `fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 100])`

	_, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IndexOnlyAnswered {
		t.Fatal("untyped corpus: expected an index-only answer")
	}

	// Insert one validated document: the shortcut must fall back even
	// though the cached plan still carries the index-only spec.
	doc, err := xmlparse.Parse(`<order><lineitem price="150"/></order>`)
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
	if stats.IndexOnlyAnswered {
		t.Fatal("annotated document present: index-only answer is unsound")
	}
	if got := xdm.SerializeSequence(seq); got != "11" { // 10 qualifying + the new doc
		t.Fatalf("fallback count = %s, want 11", got)
	}

	// Deleting the annotated document restores the shortcut.
	if err := tab.Delete(id); err != nil {
		t.Fatal(err)
	}
	seq, stats, err = e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IndexOnlyAnswered {
		t.Fatal("annotated document deleted: shortcut must return")
	}
	if got := xdm.SerializeSequence(seq); got != "10" {
		t.Fatalf("count = %s, want 10", got)
	}
}

func TestExplainMarksIndexOnly(t *testing.T) {
	e := newPaperDB(t, 10)
	createLiPrice(t, e)
	out, err := e.Explain(`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 100])`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "index-only:") || !strings.Contains(out, "answered at node granularity (no documents touched)") {
		t.Fatalf("EXPLAIN missing the index-only line:\n%s", out)
	}
}

// Probe-guided re-evaluation: the matched ordinals seed the operand
// path, results stay identical to the unseeded run, and the seeding is
// visible in Stats, labels, and EXPLAIN.
func TestSeededEvalMatchesUnseeded(t *testing.T) {
	e := newPaperDB(t, 90)
	createLiPrice(t, e)
	const q = `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`

	seq, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.NodesSeeded == 0 || stats.NodesDecoded == 0 {
		t.Fatalf("NodesSeeded = %d, NodesDecoded = %d, want > 0", stats.NodesSeeded, stats.NodesDecoded)
	}
	if len(stats.IndexesUsed) != 1 || !strings.Contains(stats.IndexesUsed[0], "[node-granular:") {
		t.Fatalf("IndexesUsed = %v, want the node-granular marker", stats.IndexesUsed)
	}

	unseeded, ustats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true, NoNodeSeeds: true})
	if err != nil {
		t.Fatal(err)
	}
	if ustats.NodesSeeded != 0 {
		t.Fatalf("NoNodeSeeds run seeded %d nodes", ustats.NodesSeeded)
	}
	if xdm.SerializeSequence(unseeded) != xdm.SerializeSequence(seq) {
		t.Fatal("seeded run diverged from doc-granular run")
	}
	full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if xdm.SerializeSequence(full) != xdm.SerializeSequence(seq) {
		t.Fatal("seeded run diverged from the full scan")
	}
	if got := e.Metrics.Counter("engine.nodes_seeded").Value(); got != int64(stats.NodesSeeded) {
		t.Fatalf("engine.nodes_seeded = %d, want %d", got, stats.NodesSeeded)
	}

	out, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "node-granular (seeds 1 path operand)") {
		t.Fatalf("EXPLAIN missing the seed annotation:\n%s", out)
	}
}

// Conjunctive value predicates on the same single-valued operand
// intersect at node granularity; the element form (possibly several
// price children per lineitem) must NOT intersect per node, only per
// document — a document can satisfy p>100 and p<200 via different nodes.
func TestSeededConjunctionStaysSound(t *testing.T) {
	e, q := twoProbeDB(t, 120)
	seq, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if xdm.SerializeSequence(full) != xdm.SerializeSequence(seq) {
		t.Fatal("seeded conjunction diverged from the full scan")
	}
	if stats.NodesSeeded == 0 {
		t.Fatal("conjunctive probes did not seed")
	}

	// The attribute form is single-valued per context node: the two
	// probes' hits intersect per node and both runs agree.
	mustSQL(t, e, `create table attord (ordid integer, orddoc XML)`)
	for i := 0; i < 120; i++ {
		mustSQL(t, e, insertAttOrder(i))
	}
	mustSQL(t, e, `CREATE INDEX att_price ON attord(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`)
	const aq = `db2-fn:xmlcolumn('ATTORD.ORDDOC')//lineitem[@price > 100 and @price < 200]`
	aseq, astats, err := e.ExecXQueryOpts(aq, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	afull, _, err := e.ExecXQueryOpts(aq, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if xdm.SerializeSequence(afull) != xdm.SerializeSequence(aseq) {
		t.Fatal("node-intersected conjunction diverged from the full scan")
	}
	if astats.NodesSeeded == 0 {
		t.Fatal("attribute conjunction did not seed")
	}
}

func insertAttOrder(i int) string {
	return fmt.Sprintf(`insert into attord values (%d, '<order><lineitem price="%d"/></order>')`,
		i, 10+i*3%400)
}
