package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
)

// newPaperDB builds the paper's schema with a generated order corpus:
// every third order has a lineitem price above 100.
func newPaperDB(t *testing.T, orders int) *Engine {
	t.Helper()
	e := New()
	for _, ddl := range []string{
		`create table customer (cid integer, cdoc XML)`,
		`create table orders (ordid integer, orddoc XML)`,
		`create table products (id varchar(13), name varchar(32))`,
	} {
		if _, _, err := e.ExecSQLOpts(ddl, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < orders; i++ {
		price := 10 + i%90 // 10..99: never above 100
		if i%3 == 0 {
			price = 110 + i%50 // qualifying
		}
		doc := fmt.Sprintf(
			`<order date="2002-01-01"><lineitem price="%d"><product><id>%d</id></product></lineitem><custid>%d</custid></order>`,
			price, i%7, i%5)
		sql := fmt.Sprintf(`insert into orders values (%d, '%s')`, i, doc)
		if _, _, err := e.ExecSQLOpts(sql, ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		doc := fmt.Sprintf(`<customer><id>%d</id><name>c%d</name></customer>`, i, i)
		if _, _, err := e.ExecSQLOpts(fmt.Sprintf(`insert into customer values (%d, '%s')`, i, doc), ExecOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func createLiPrice(t *testing.T, e *Engine) {
	t.Helper()
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
}

// assertEquivalent runs an XQuery with and without indexes and checks
// Definition 1: identical results.
func assertEquivalentXQ(t *testing.T, e *Engine, query string) (*Stats, *Stats) {
	t.Helper()
	full, fstats, err := e.ExecXQueryOpts(query, ExecOptions{})
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	idx, istats, err := e.ExecXQueryOpts(query, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	if xdm.SerializeSequence(full) != xdm.SerializeSequence(idx) {
		t.Fatalf("Definition 1 violated for %s:\nfull(%d items) != indexed(%d items)", query, len(full), len(idx))
	}
	return fstats, istats
}

func assertEquivalentSQL(t *testing.T, e *Engine, sql string) (*Stats, *Stats) {
	t.Helper()
	return assertEquivalentSQLOpts(t, e, sql, ExecOptions{})
}

// assertEquivalentSQLOpts compares a full scan with an indexed run under
// extra execution options (prepared plans, cache bypass, parallelism).
func assertEquivalentSQLOpts(t *testing.T, e *Engine, sql string, o ExecOptions) (*Stats, *Stats) {
	t.Helper()
	o.UseIndexes = false
	full, fstats, err := e.ExecSQLOpts(sql, o)
	if err != nil {
		t.Fatalf("full scan: %v", err)
	}
	o.UseIndexes = true
	idx, istats, err := e.ExecSQLOpts(sql, o)
	if err != nil {
		t.Fatalf("indexed: %v", err)
	}
	if len(full.Rows) != len(idx.Rows) {
		t.Fatalf("Definition 1 violated for %s: %d vs %d rows", sql, len(full.Rows), len(idx.Rows))
	}
	for i := range full.Rows {
		for j := range full.Rows[i] {
			if full.Rows[i][j].String() != idx.Rows[i][j].String() {
				t.Fatalf("row %d col %d differs: %s vs %s", i, j, full.Rows[i][j], idx.Rows[i][j])
			}
		}
	}
	return fstats, istats
}

func TestQuery1IndexedEquivalentAndFaster(t *testing.T) {
	e := newPaperDB(t, 300)
	createLiPrice(t, e)
	_, istats := assertEquivalentXQ(t, e,
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`)
	if len(istats.IndexesUsed) == 0 {
		t.Fatal("index not used")
	}
	if istats.DocsScanned >= istats.DocsTotal {
		t.Fatalf("no pre-filtering: %d of %d", istats.DocsScanned, istats.DocsTotal)
	}
	// Exactly the qualifying third survives.
	if istats.DocsScanned != 100 {
		t.Errorf("docs scanned = %d, want 100", istats.DocsScanned)
	}
}

func TestQuery7Indexed(t *testing.T) {
	e := newPaperDB(t, 120)
	createLiPrice(t, e)
	_, istats := assertEquivalentXQ(t, e,
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]`)
	if len(istats.IndexesUsed) == 0 {
		t.Fatal("index not used")
	}
}

func TestQuery8SQLIndexed(t *testing.T) {
	e := newPaperDB(t, 120)
	createLiPrice(t, e)
	fstats, istats := assertEquivalentSQL(t, e, `SELECT ordid, orddoc FROM orders
		WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`)
	if len(istats.IndexesUsed) == 0 {
		t.Fatal("index not used for Query 8")
	}
	if istats.RowsScanned >= fstats.RowsScanned {
		t.Fatalf("rows scanned not reduced: %d vs %d", istats.RowsScanned, fstats.RowsScanned)
	}
}

func TestQuery9NoIndexAllRows(t *testing.T) {
	e := newPaperDB(t, 60)
	createLiPrice(t, e)
	res, istats, err := e.ExecSQLOpts(`SELECT ordid FROM orders
		WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(istats.IndexesUsed) != 0 {
		t.Error("Query 9 must not use an index")
	}
	if len(res.Rows) != 60 {
		t.Errorf("Query 9 returns all rows (the pitfall): got %d of 60", len(res.Rows))
	}
}

func TestQuery11XMLTableIndexed(t *testing.T) {
	e := newPaperDB(t, 120)
	createLiPrice(t, e)
	_, istats := assertEquivalentSQL(t, e, `SELECT o.ordid, t.lineitem
		FROM orders o, XMLTable('$order//lineitem[@price > 100]'
			passing o.orddoc as "order"
			COLUMNS "lineitem" XML BY REF PATH '.') as t(lineitem)`)
	if len(istats.IndexesUsed) == 0 {
		t.Fatal("index not used for the XMLTable row-producer")
	}
}

func TestLetNotIndexedButEquivalent(t *testing.T) {
	e := newPaperDB(t, 60)
	createLiPrice(t, e)
	_, istats := assertEquivalentXQ(t, e, `for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
		let $item := $doc//lineitem[@price > 100]
		return <result>{$item}</result>`)
	if len(istats.IndexesUsed) != 0 {
		t.Error("Query 18 must not use an index")
	}
	if istats.DocsScanned != istats.DocsTotal {
		t.Error("Query 18 must scan everything")
	}
}

func TestWhereRescueIndexed(t *testing.T) {
	e := newPaperDB(t, 90)
	createLiPrice(t, e)
	_, istats := assertEquivalentXQ(t, e, `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		let $price := $ord/lineitem/@price
		where $price > 100
		return <result>{$ord/lineitem}</result>`)
	if len(istats.IndexesUsed) == 0 {
		t.Fatal("where-rescued let should use the index")
	}
}

func TestBetweenSingleProbe(t *testing.T) {
	e := newPaperDB(t, 150)
	createLiPrice(t, e)
	_, istats := assertEquivalentXQ(t, e,
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>100 and @price<135]]`)
	if len(istats.IndexesUsed) != 1 {
		t.Fatalf("between should be one probe, got %v", istats.IndexesUsed)
	}
	if !strings.Contains(istats.IndexesUsed[0], "between") {
		t.Errorf("probe label = %v", istats.IndexesUsed)
	}
	if istats.Probes != 1 {
		t.Errorf("probes = %d, want 1", istats.Probes)
	}
}

func TestGeneralRangePairTwoProbes(t *testing.T) {
	// The element form is existential: two probes, intersected at
	// document level (§3.10).
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	docs := []string{
		`<order><lineitem><price>120</price></lineitem></order>`,                  // truly between
		`<order><lineitem><price>250</price><price>50</price></lineitem></order>`, // existential trap
		`<order><lineitem><price>30</price></lineitem></order>`,                   // no
	}
	for i, d := range docs {
		mustSQL(t, e, fmt.Sprintf(`insert into orders values (%d, '%s')`, i, d))
	}
	mustSQL(t, e, `CREATE INDEX price_el ON orders(orddoc) USING XMLPATTERN '//price' AS double`)
	q := `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > 100 and price < 200]`
	res, istats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	// Both the in-range doc and the existential-trap doc qualify.
	if len(res) != 2 {
		t.Fatalf("rows = %d, want 2 (existential semantics)", len(res))
	}
	if istats.Probes != 2 {
		t.Errorf("probes = %d, want 2 (no between)", istats.Probes)
	}
	assertEquivalentXQ(t, e, q)
}

func TestTwoBindingsSameCollectionUnion(t *testing.T) {
	// Soundness: two independent bindings of the same collection must
	// not intersect their document filters.
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	mustSQL(t, e, `insert into orders values (1, '<order><a>1</a></order>'), (2, '<order><b>2</b></order>')`)
	mustSQL(t, e, `CREATE INDEX ia ON orders(orddoc) USING XMLPATTERN '//a' AS double`)
	mustSQL(t, e, `CREATE INDEX ib ON orders(orddoc) USING XMLPATTERN '//b' AS double`)
	q := `for $x in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[a = 1]
	      for $y in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[b = 2]
	      return <pair/>`
	res, _, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("union rule broken: got %d pairs, want 1", len(res))
	}
	assertEquivalentXQ(t, e, q)
}

func TestNamespaceQueriesEndToEnd(t *testing.T) {
	e := New()
	mustSQL(t, e, `create table customer (cid integer, cdoc XML)`)
	const cNS = "http://ournamespaces.com/customer"
	for i := 0; i < 30; i++ {
		nation := i % 3
		doc := fmt.Sprintf(`<c:customer xmlns:c="%s"><c:nation>%d</c:nation><c:id>%d</c:id></c:customer>`, cNS, nation, i)
		mustSQL(t, e, fmt.Sprintf(`insert into customer values (%d, '%s')`, i, doc))
	}
	// The namespace-less index is built but never eligible.
	mustSQL(t, e, `CREATE INDEX c_nation ON customer(cdoc) USING XMLPATTERN '//nation' AS double`)
	q := `declare namespace c="` + cNS + `";
		db2-fn:xmlcolumn('CUSTOMER.CDOC')/c:customer[c:nation = 1]`
	_, istats := assertEquivalentXQ(t, e, q)
	if len(istats.IndexesUsed) != 0 {
		t.Error("namespace-less index must not be used")
	}
	// The wildcard index is eligible.
	mustSQL(t, e, `CREATE INDEX c_nation_ns2 ON customer(cdoc) USING XMLPATTERN '//*:nation' AS double`)
	_, istats = assertEquivalentXQ(t, e, q)
	if len(istats.IndexesUsed) == 0 {
		t.Error("wildcard-namespace index should be used")
	}
	if istats.DocsScanned != 10 {
		t.Errorf("docs scanned = %d, want 10", istats.DocsScanned)
	}
}

func TestTextMisalignmentNotIndexed(t *testing.T) {
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	mustSQL(t, e, `insert into orders values
		(1, '<order><lineitem><price>99.50</price></lineitem></order>'),
		(2, '<order><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>')`)
	mustSQL(t, e, `CREATE INDEX PRICE_TEXT ON orders.orddoc USING XMLPATTERN '//price' AS varchar`)
	q := `for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/price/text() = "99.50"] return $ord`
	res, istats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(istats.IndexesUsed) != 0 {
		t.Error("misaligned text() index must not be used (it would miss doc 2)")
	}
	if len(res) != 2 {
		t.Errorf("rows = %d, want 2 (both first text nodes are 99.50)", len(res))
	}
	assertEquivalentXQ(t, e, q)
}

func TestExplainReport(t *testing.T) {
	e := newPaperDB(t, 10)
	createLiPrice(t, e)
	rep, err := e.Explain(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "ELIGIBLE") || !strings.Contains(rep, "li_price") {
		t.Errorf("report:\n%s", rep)
	}
	rep, err = e.Explain(`SELECT ordid FROM orders
		WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "Tip 3") {
		t.Errorf("report should mention Tip 3:\n%s", rep)
	}
}

func TestStructuralProbeViaVarcharIndex(t *testing.T) {
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	mustSQL(t, e, `insert into orders values
		(1, '<order><lineitem price="5"/></order>'),
		(2, '<order><note>n</note></order>')`)
	mustSQL(t, e, `CREATE INDEX li_v ON orders(orddoc) USING XMLPATTERN '//lineitem' AS varchar`)
	q := `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem]`
	_, istats := assertEquivalentXQ(t, e, q)
	if len(istats.IndexesUsed) == 0 {
		t.Error("structural predicate should use the varchar index")
	}
	if istats.DocsScanned != 1 {
		t.Errorf("docs scanned = %d, want 1", istats.DocsScanned)
	}
}

func mustSQL(t *testing.T, e *Engine, sql string) {
	t.Helper()
	if _, _, err := e.ExecSQLOpts(sql, ExecOptions{}); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

func TestFnCollectionAlias(t *testing.T) {
	e := newPaperDB(t, 60)
	createLiPrice(t, e)
	_, istats := assertEquivalentXQ(t, e,
		`fn:collection('ORDERS.ORDDOC')//order[lineitem/@price>100]`)
	if len(istats.IndexesUsed) == 0 {
		t.Fatal("fn:collection should be index-eligible like db2-fn:xmlcolumn")
	}
}

func TestSemiJoinPrefilter(t *testing.T) {
	// The paper's Query 13: `lineitem/product[id eq $pid]` with an XML
	// index on the id path runs as an index semi-join — one equality
	// probe per distinct product id instead of scanning every order.
	e := newPaperDB(t, 210) // product ids are i%7: 0..6
	mustSQL(t, e, `CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`)
	mustSQL(t, e, `insert into products values ('3', 'widget'), ('99', 'nothing')`)
	q := `SELECT p.name, o.ordid FROM products p, orders o
		WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`
	fstats, istats := assertEquivalentSQL(t, e, q)
	if len(istats.IndexesUsed) == 0 || !strings.Contains(istats.IndexesUsed[0], "semi-join") {
		t.Fatalf("semi-join not planned: %v", istats.IndexesUsed)
	}
	// Only orders whose product id ∈ {3, 99} survive the pre-filter:
	// ids cycle 0..6, so 1/7 of orders.
	if istats.DocsScanned >= istats.DocsTotal || istats.DocsScanned != 30 {
		t.Fatalf("semi-join docs scanned = %d of %d, want 30", istats.DocsScanned, istats.DocsTotal)
	}
	_ = fstats
}

func TestSemiJoinNotForRangeOps(t *testing.T) {
	e := newPaperDB(t, 30)
	createLiPrice(t, e)
	mustSQL(t, e, `create table limits (cap double)`)
	mustSQL(t, e, `insert into limits values (100)`)
	// A non-equality comparison with a scalar variable must not plan
	// equality semi-joins.
	q := `SELECT o.ordid FROM limits l, orders o
		WHERE XMLExists('$d//lineitem[@price/xs:double(.) gt $cap]' passing o.orddoc as "d", l.cap as "cap")`
	_, istats := assertEquivalentSQL(t, e, q)
	for _, u := range istats.IndexesUsed {
		if strings.Contains(u, "semi-join") {
			t.Fatalf("range op must not semi-join: %v", istats.IndexesUsed)
		}
	}
}
