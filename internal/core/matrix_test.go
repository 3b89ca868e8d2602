package core

import (
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xquery"
)

// paperIndex describes one of the paper's index definitions.
type paperIndex struct {
	name    string
	pattern string
	typ     xmlindex.Type
}

const (
	orderNS    = "http://ournamespaces.com/order"
	customerNS = "http://ournamespaces.com/customer"
)

// The paper's indexes. Note: the paper's own c_nation_ns1 example
// declares the *order* namespace, which would not match the customer
// documents it is meant to index — an apparent typo; we use the customer
// namespace, which is what "would do the trick" requires.
var paperIndexes = []paperIndex{
	{"li_price", "//lineitem/@price", xmlindex.Double},
	{"li_price_str", "//lineitem/@price", xmlindex.Varchar},
	{"o_custid", "//custid", xmlindex.Double},
	{"c_custid", "/customer/id", xmlindex.Double},
	{"c_nation", "//nation", xmlindex.Double},
	{"c_nation_ns1", `declare default element namespace "` + customerNS + `"; //nation`, xmlindex.Double},
	{"c_nation_ns2", "//*:nation", xmlindex.Double},
	{"li_price_ns", "//@price", xmlindex.Double},
	{"PRICE_TEXT", "//price", xmlindex.Varchar},
	{"prod_id", "//lineitem/product/id", xmlindex.Varchar},
}

func findIndex(t *testing.T, name string) (*pattern.Pattern, xmlindex.Type) {
	t.Helper()
	for _, pi := range paperIndexes {
		if pi.name == name {
			return pattern.MustParse(pi.pattern), pi.typ
		}
	}
	t.Fatalf("unknown paper index %s", name)
	return nil, 0
}

// eligibleFor reports whether any extracted predicate of a is eligible
// for the named index and targets the given collection.
func eligibleFor(t *testing.T, a *Analysis, index, collection string) bool {
	t.Helper()
	pat, typ := findIndex(t, index)
	for _, p := range a.Predicates {
		if !strings.EqualFold(p.Collection, collection) {
			continue
		}
		if Decide(pat, typ, p).Eligible() {
			return true
		}
	}
	return false
}

func analyzeXQ(t *testing.T, q string) *Analysis {
	t.Helper()
	m, err := xquery.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	return AnalyzeXQuery(m, nil, true, "")
}

// paperCatalog builds the paper's schema for SQL analysis.
func paperCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat := storage.NewCatalog()
	if _, err := cat.CreateTable("customer", []storage.Column{
		{Name: "cid", Type: storage.Integer}, {Name: "cdoc", Type: storage.XML}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("orders", []storage.Column{
		{Name: "ordid", Type: storage.Integer}, {Name: "orddoc", Type: storage.XML}}); err != nil {
		t.Fatal(err)
	}
	if _, err := cat.CreateTable("products", []storage.Column{
		{Name: "id", Type: storage.Varchar, Size: 13}, {Name: "name", Type: storage.Varchar, Size: 32}}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func analyzeSQLQ(t *testing.T, q string) *Analysis {
	t.Helper()
	stmt, err := sqlxml.Parse(q)
	if err != nil {
		t.Fatalf("parse %q: %v", q, err)
	}
	a, err := AnalyzeSQL(stmt, paperCatalog(t))
	if err != nil {
		t.Fatalf("analyze %q: %v", q, err)
	}
	return a
}

func hasTip(a *Analysis, tip int) bool {
	for _, w := range a.Warnings {
		if w.Tip == tip {
			return true
		}
	}
	return false
}

func TestQuery1Eligible(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 1 should be eligible for li_price: %+v", a.Predicates)
	}
}

func TestQuery2WildcardIneligible(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] return $i`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 2 must NOT be eligible for li_price (index more restrictive than query)")
	}
	// //@price is equally ineligible: @* admits attributes other than
	// price. Only a //@* index (paper §2.1's broad index) contains all
	// candidates.
	if eligibleFor(t, a, "li_price_ns", "orders.orddoc") {
		t.Error("Query 2 must NOT be eligible for //@price either")
	}
	broad := pattern.MustParse("//@*")
	found := false
	for _, p := range a.Predicates {
		if Decide(broad, xmlindex.Double, p).Eligible() {
			found = true
		}
	}
	if !found {
		t.Errorf("Query 2 should be eligible for a broad //@* double index: %+v", a.Predicates)
	}
}

func TestQuery3StringLiteral(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > "100"] return $i`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 3 must NOT match the double index (string comparison)")
	}
	if !eligibleFor(t, a, "li_price_str", "orders.orddoc") {
		t.Error("Query 3 should match a varchar index on the same pattern")
	}
}

func TestQuery4JoinWithCasts(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
		for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
		where $i/custid/xs:double(.) = $j/id/xs:double(.)
		return $i`)
	if !eligibleFor(t, a, "o_custid", "orders.orddoc") {
		t.Errorf("Query 4 should be eligible for o_custid: %+v", a.Predicates)
	}
	if !eligibleFor(t, a, "c_custid", "customer.cdoc") {
		t.Errorf("Query 4 should be eligible for c_custid: %+v", a.Predicates)
	}
}

func TestQuery4WithoutCasts(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
		for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
		where $i/custid = $j/id
		return $i`)
	if eligibleFor(t, a, "o_custid", "orders.orddoc") || eligibleFor(t, a, "c_custid", "customer.cdoc") {
		t.Error("castless join must not be eligible for double indexes")
	}
	if !hasTip(a, 1) {
		t.Error("castless join should raise Tip 1")
	}
}

func TestQuery5XMLQuerySelectList(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order") FROM orders`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 5 must NOT be eligible (select list never eliminates rows)")
	}
	if !hasTip(a, 2) {
		t.Errorf("Query 5 should raise Tip 2: %+v", a.Warnings)
	}
}

func TestQuery6WholeColumnValues(t *testing.T) {
	a := analyzeSQLQ(t, `VALUES (XMLQuery('db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]'))`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 6 should be eligible: %+v", a.Predicates)
	}
}

func TestQuery7StandaloneEligible(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 7 should be eligible: %+v", a.Predicates)
	}
}

func TestQuery8XMLExistsEligible(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT ordid, orddoc FROM orders
		WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 8 should be eligible: %+v", a.Predicates)
	}
}

func TestQuery9BooleanBody(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT ordid, orddoc FROM orders
		WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 9 must NOT be eligible (XMLExists over a boolean filters nothing)")
	}
	if !hasTip(a, 3) {
		t.Errorf("Query 9 should raise Tip 3: %+v", a.Warnings)
	}
}

func TestQuery10ExistsRescues(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT ordid,
		XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order")
		FROM orders
		WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 10's XMLExists predicate should be eligible")
	}
	if hasTip(a, 2) {
		t.Error("Query 10 should not raise Tip 2 (the WHERE already filters)")
	}
}

func TestQuery11RowProducerEligible(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT o.ordid, t.lineitem
		FROM orders o, XMLTable('$order//lineitem[@price > 100]'
			passing o.orddoc as "order"
			COLUMNS "lineitem" XML BY REF PATH '.') as t(lineitem)`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 11 row-producer should be eligible: %+v", a.Predicates)
	}
}

func TestQuery12ColumnPathIneligible(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT o.ordid, t.lineitem, t.price
		FROM orders o, XMLTable('$order//lineitem'
			passing o.orddoc as "order"
			COLUMNS "lineitem" XML BY REF PATH '.',
			        "price" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 12 must NOT be eligible (predicate in a column expression)")
	}
	if !hasTip(a, 4) {
		t.Errorf("Query 12 should raise Tip 4: %+v", a.Warnings)
	}
}

func TestQuery13XQueryJoin(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT p.name,
		XMLQuery('$order//lineitem' passing orddoc as "order")
		FROM products p, orders o
		WHERE XMLExists('$order//lineitem/product[id eq $pid]'
			passing o.orddoc as "order", p.id as "pid")`)
	if !eligibleFor(t, a, "prod_id", "orders.orddoc") {
		t.Errorf("Query 13 should be eligible for a varchar index on //lineitem/product/id: %+v", a.Predicates)
	}
}

func TestQuery14SQLSideJoin(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT p.name FROM products p, orders o
		WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id'
			passing o.orddoc as "order") as VARCHAR(13))`)
	if eligibleFor(t, a, "prod_id", "orders.orddoc") {
		t.Error("Query 14 must NOT be XML-index eligible (SQL comparison)")
	}
	found := false
	for _, rp := range a.RelPredicates {
		if rp.Table == "products" && strings.EqualFold(rp.Column, "id") {
			found = true
		}
	}
	if !found {
		t.Errorf("Query 14 should surface a relational index candidate on products.id: %+v", a.RelPredicates)
	}
	if !hasTip(a, 5) {
		t.Errorf("Query 14 should raise Tip 5: %+v", a.Warnings)
	}
}

func TestQuery15BothSidesCast(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT c.cid FROM orders o, customer c
		WHERE XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as "order") as DOUBLE)
		    = XMLCast(XMLQuery('$cust/customer/id' passing c.cdoc as "cust") as DOUBLE)`)
	if eligibleFor(t, a, "o_custid", "orders.orddoc") || eligibleFor(t, a, "c_custid", "customer.cdoc") {
		t.Error("Query 15 must NOT be eligible for any XML index")
	}
	if !hasTip(a, 6) {
		t.Errorf("Query 15 should raise Tip 6: %+v", a.Warnings)
	}
}

func TestQuery16XQueryJoinEligible(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT c.cid FROM orders o, customer c
		WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]'
			passing o.orddoc as "order", c.cdoc as "cust")`)
	if !eligibleFor(t, a, "o_custid", "orders.orddoc") {
		t.Errorf("Query 16 should be eligible for the custid index: %+v", a.Predicates)
	}
}

func TestQuery17ForEligible(t *testing.T) {
	a := analyzeXQ(t, `for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
		for $item in $doc//lineitem[@price > 100]
		return <result>{$item}</result>`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 17 should be eligible: %+v", a.Predicates)
	}
}

func TestQuery18LetIneligible(t *testing.T) {
	a := analyzeXQ(t, `for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
		let $item := $doc//lineitem[@price > 100]
		return <result>{$item}</result>`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 18 must NOT be eligible (let preserves empties)")
	}
}

func TestQuery19ConstructorIneligible(t *testing.T) {
	a := analyzeXQ(t, `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		return <result>{$ord/lineitem[@price > 100]}</result>`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 19 must NOT be eligible (constructor preserves empties)")
	}
	if !hasTip(a, 7) {
		t.Errorf("Query 19 should raise Tip 7: %+v", a.Warnings)
	}
}

func TestQuery20And21WhereRescue(t *testing.T) {
	for _, q := range []string{
		`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		 where $ord/lineitem/@price > 100
		 return <result>{$ord/lineitem}</result>`,
		`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		 let $price := $ord/lineitem/@price
		 where $price > 100
		 return <result>{$ord/lineitem}</result>`,
	} {
		a := analyzeXQ(t, q)
		if !eligibleFor(t, a, "li_price", "orders.orddoc") {
			t.Errorf("where-clause predicate should be eligible for:\n%s\npreds: %+v", q, a.Predicates)
		}
	}
}

func TestQuery22BindOutEligible(t *testing.T) {
	a := analyzeXQ(t, `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		return $ord/lineitem[@price > 100]`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 22 should be eligible (bind-out discards empties): %+v", a.Predicates)
	}
}

func TestQuery24Tip8(t *testing.T) {
	a := analyzeXQ(t, `for $ord in (for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
			return <my_order>{$o/*}</my_order>)
		return $ord/my_order`)
	if !hasTip(a, 8) {
		t.Errorf("Query 24 should raise Tip 8: %+v", a.Warnings)
	}
}

func TestQuery25Tip8(t *testing.T) {
	a := analyzeXQ(t, `let $order := <neworders>{db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid > 1001]}</neworders>
		return $order[//customer/name]`)
	if !hasTip(a, 8) {
		t.Errorf("Query 25 should raise Tip 8: %+v", a.Warnings)
	}
}

func TestQuery26Tip9(t *testing.T) {
	a := analyzeXQ(t, `let $view := (for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem
			return <item>{ $i/@quantity, $i/product/@price, <pid>{ $i/product/id/data(.) }</pid> }</item>)
		for $j in $view
		where $j/pid = '17'
		return $j/@price`)
	if !hasTip(a, 9) {
		t.Errorf("Query 26 should raise Tip 9 (predicate after construction): %+v", a.Warnings)
	}
}

func TestQuery27RewrittenEligible(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem
		where $i/product/id/data(.) = '17'
		return $i/product/@price`)
	if !eligibleFor(t, a, "prod_id", "orders.orddoc") {
		t.Errorf("Query 27 should be eligible for the id varchar index: %+v", a.Predicates)
	}
}

func TestQuery28Namespaces(t *testing.T) {
	q := `declare default element namespace "` + orderNS + `";
		declare namespace c="` + customerNS + `";
		for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/@price > 1000]
		for $cust in db2-fn:xmlcolumn("CUSTOMER.CDOC")/c:customer[c:nation = 1]
		where $ord/custid = $cust/c:id
		return $ord`
	a := analyzeXQ(t, q)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("Query 28 must NOT be eligible for li_price (namespace mismatch)")
	}
	if eligibleFor(t, a, "c_nation", "customer.cdoc") {
		t.Error("Query 28 must NOT be eligible for c_nation (namespace mismatch)")
	}
	if !eligibleFor(t, a, "c_nation_ns1", "customer.cdoc") {
		t.Errorf("Query 28 should be eligible for c_nation_ns1: %+v", a.Predicates)
	}
	if !eligibleFor(t, a, "c_nation_ns2", "customer.cdoc") {
		t.Error("Query 28 should be eligible for c_nation_ns2")
	}
	if !eligibleFor(t, a, "li_price_ns", "orders.orddoc") {
		t.Error("Query 28 should be eligible for li_price_ns (default ns does not apply to attributes)")
	}
}

func TestQuery29TextAlignment(t *testing.T) {
	a := analyzeXQ(t, `for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/price/text() = "99.50"] return $ord`)
	if eligibleFor(t, a, "PRICE_TEXT", "orders.orddoc") {
		t.Error("Query 29 must NOT be eligible for PRICE_TEXT (text() misalignment)")
	}
	// The diagnosis should carry the Tip 11 hint.
	pat, typ := findIndex(t, "PRICE_TEXT")
	hinted := false
	for _, p := range a.Predicates {
		for _, r := range Decide(pat, typ, p).Reasons(pat, typ, p) {
			if strings.Contains(r, "Tip 11") {
				hinted = true
			}
		}
	}
	if !hinted {
		t.Error("diagnosis should hint at text() misalignment (Tip 11)")
	}
}

func TestQuery30Between(t *testing.T) {
	a := analyzeXQ(t, `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')
		//order[lineitem[@price>100 and @price<135]] return $i`)
	if !eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Errorf("Query 30 should be eligible: %+v", a.Predicates)
	}
	paired := 0
	for _, p := range a.Predicates {
		if p.Between >= 0 {
			paired++
		}
	}
	if paired != 2 {
		t.Errorf("Query 30 should detect a between pair, got %d paired predicates", paired)
	}
}

func TestBetweenValueComparison(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price gt 100 and price lt 200]`)
	paired := 0
	for _, p := range a.Predicates {
		if p.Between >= 0 {
			paired++
		}
		if p.Value != nil && p.CompType != CompDouble {
			t.Errorf("value comparison with numeric literal should type as double: %+v", p)
		}
	}
	if paired != 2 {
		t.Errorf("value-comparison between should pair, got %d", paired)
	}
}

func TestBetweenGeneralNotPaired(t *testing.T) {
	// General comparisons on a possibly-repeating element are not a
	// between: two probes + intersection are required (§3.10).
	a := analyzeXQ(t, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > 100 and price < 200]`)
	for _, p := range a.Predicates {
		if p.Between >= 0 {
			t.Errorf("general element between must not pair: %+v", p)
		}
	}
}

func TestBetweenSelfAxis(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/price/data()[. > 100 and . < 200]`)
	paired := 0
	for _, p := range a.Predicates {
		if p.Between >= 0 {
			paired++
		}
	}
	if paired != 2 {
		t.Errorf("self-axis between should pair, got %d: %+v", paired, a.Predicates)
	}
}

func TestStructuralPredicateNeedsVarchar(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order/lineitem/@price`)
	if eligibleFor(t, a, "li_price", "orders.orddoc") {
		t.Error("a pure structural predicate must not use the double index (incomplete)")
	}
	if !eligibleFor(t, a, "li_price_str", "orders.orddoc") {
		t.Errorf("a varchar index answers structural predicates: %+v", a.Predicates)
	}
}
