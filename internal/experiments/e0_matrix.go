package experiments

import (
	"fmt"
	"strings"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xquery"
)

const (
	orderNS    = "http://ournamespaces.com/order"
	customerNS = "http://ournamespaces.com/customer"
)

// matrixIndexes are the paper's index definitions (§2.2, §3.7, §3.8),
// plus the varchar and product-id variants its prose discusses.
var matrixIndexes = []struct {
	name, pat string
	typ       xmlindex.Type
}{
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

// matrixCase is one (query, index) verdict the paper states.
type matrixCase struct {
	query    string // paper query number + variant
	text     string
	sql      bool
	index    string
	coll     string
	eligible bool // the paper's verdict
}

var matrixCases = []matrixCase{
	{"Q1", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`, false, "li_price", "orders.orddoc", true},
	{"Q2", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@*>100] return $i`, false, "li_price", "orders.orddoc", false},
	{"Q3", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > "100"] return $i`, false, "li_price", "orders.orddoc", false},
	{"Q3s", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > "100"] return $i`, false, "li_price_str", "orders.orddoc", true},
	{"Q4", `for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
		for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
		where $i/custid/xs:double(.) = $j/id/xs:double(.) return $i`, false, "o_custid", "orders.orddoc", true},
	{"Q4c", `for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
		for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
		where $i/custid/xs:double(.) = $j/id/xs:double(.) return $i`, false, "c_custid", "customer.cdoc", true},
	{"Q4x", `for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
		for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
		where $i/custid = $j/id return $i`, false, "o_custid", "orders.orddoc", false},
	{"Q5", `SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order") FROM orders`, true, "li_price", "orders.orddoc", false},
	{"Q6", `VALUES (XMLQuery('db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]'))`, true, "li_price", "orders.orddoc", true},
	{"Q7", `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]`, false, "li_price", "orders.orddoc", true},
	{"Q8", `SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`, true, "li_price", "orders.orddoc", true},
	{"Q9", `SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`, true, "li_price", "orders.orddoc", false},
	{"Q10", `SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order") FROM orders
		WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`, true, "li_price", "orders.orddoc", true},
	{"Q11", `SELECT o.ordid, t.lineitem FROM orders o, XMLTable('$order//lineitem[@price > 100]'
		passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.') as t(lineitem)`, true, "li_price", "orders.orddoc", true},
	{"Q12", `SELECT o.ordid, t.lineitem, t.price FROM orders o, XMLTable('$order//lineitem'
		passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.',
		"price" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)`, true, "li_price", "orders.orddoc", false},
	{"Q13", `SELECT p.name, XMLQuery('$order//lineitem' passing orddoc as "order") FROM products p, orders o
		WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`, true, "prod_id", "orders.orddoc", true},
	{"Q14", `SELECT p.name FROM products p, orders o
		WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id' passing o.orddoc as "order") as VARCHAR(13))`, true, "prod_id", "orders.orddoc", false},
	{"Q15", `SELECT c.cid FROM orders o, customer c
		WHERE XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as "order") as DOUBLE)
		= XMLCast(XMLQuery('$cust/customer/id' passing c.cdoc as "cust") as DOUBLE)`, true, "o_custid", "orders.orddoc", false},
	{"Q16", `SELECT c.cid FROM orders o, customer c
		WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]'
		passing o.orddoc as "order", c.cdoc as "cust")`, true, "o_custid", "orders.orddoc", true},
	{"Q17", `for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
		for $item in $doc//lineitem[@price > 100] return <result>{$item}</result>`, false, "li_price", "orders.orddoc", true},
	{"Q18", `for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
		let $item := $doc//lineitem[@price > 100] return <result>{$item}</result>`, false, "li_price", "orders.orddoc", false},
	{"Q19", `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		return <result>{$ord/lineitem[@price > 100]}</result>`, false, "li_price", "orders.orddoc", false},
	{"Q20", `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		where $ord/lineitem/@price > 100 return <result>{$ord/lineitem}</result>`, false, "li_price", "orders.orddoc", true},
	{"Q21", `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		let $price := $ord/lineitem/@price where $price > 100 return <result>{$ord/lineitem}</result>`, false, "li_price", "orders.orddoc", true},
	{"Q22", `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
		return $ord/lineitem[@price > 100]`, false, "li_price", "orders.orddoc", true},
	{"Q28o", `declare default element namespace "` + orderNS + `"; declare namespace c="` + customerNS + `";
		for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/@price > 1000]
		for $cust in db2-fn:xmlcolumn("CUSTOMER.CDOC")/c:customer[c:nation = 1] return $ord`, false, "li_price", "orders.orddoc", false},
	{"Q28c", `declare namespace c="` + customerNS + `";
		db2-fn:xmlcolumn("CUSTOMER.CDOC")/c:customer[c:nation = 1]`, false, "c_nation", "customer.cdoc", false},
	{"Q28c1", `declare namespace c="` + customerNS + `";
		db2-fn:xmlcolumn("CUSTOMER.CDOC")/c:customer[c:nation = 1]`, false, "c_nation_ns1", "customer.cdoc", true},
	{"Q28c2", `declare namespace c="` + customerNS + `";
		db2-fn:xmlcolumn("CUSTOMER.CDOC")/c:customer[c:nation = 1]`, false, "c_nation_ns2", "customer.cdoc", true},
	{"Q28p", `declare default element namespace "` + orderNS + `";
		db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/@price > 1000]`, false, "li_price_ns", "orders.orddoc", true},
	{"Q29", `for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/price/text() = "99.50"] return $ord`, false, "PRICE_TEXT", "orders.orddoc", false},
	{"Q30", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>100 and @price<135]] return $i`, false, "li_price", "orders.orddoc", true},
}

// matrixCatalog is the empty paper schema (analysis needs no data).
func matrixCatalog() (*storage.Catalog, error) {
	cat := storage.NewCatalog()
	tables := []struct {
		name string
		cols []storage.Column
	}{
		{"customer", []storage.Column{{Name: "cid", Type: storage.Integer}, {Name: "cdoc", Type: storage.XML}}},
		{"orders", []storage.Column{{Name: "ordid", Type: storage.Integer}, {Name: "orddoc", Type: storage.XML}}},
		{"products", []storage.Column{{Name: "id", Type: storage.Varchar, Size: 13}, {Name: "name", Type: storage.Varchar, Size: 32}}},
	}
	for _, t := range tables {
		if _, err := cat.CreateTable(t.name, t.cols); err != nil {
			return nil, err
		}
	}
	return cat, nil
}

// E0Matrix reproduces the paper's implicit master table: for every
// numbered query and paper index, the stated eligibility verdict vs the
// analyzer's decision.
func E0Matrix(Config) (*Table, error) {
	cat, err := matrixCatalog()
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E0", Title: "Eligibility matrix: paper verdict vs analyzer",
		PaperRef: "§2.2, §3.1–§3.10",
		Headers:  []string{"query", "index", "paper", "analyzer", "agrees"},
		Notes: []string{
			"c_nation_ns1 uses the customer namespace; the paper's own listing " +
				"declares the order namespace, which contradicts its stated verdict (typo in the paper).",
		},
	}
	for _, mc := range matrixCases {
		var analysis *core.Analysis
		if mc.sql {
			stmt, err := sqlxml.Parse(mc.text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mc.query, err)
			}
			analysis, err = core.AnalyzeSQL(stmt, cat)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mc.query, err)
			}
		} else {
			m, err := xquery.Parse(mc.text)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", mc.query, err)
			}
			analysis = core.AnalyzeXQuery(m, nil, true, "")
		}
		got := false
		for _, ix := range matrixIndexes {
			if ix.name != mc.index {
				continue
			}
			pat := pattern.MustParse(ix.pat)
			for _, p := range analysis.Predicates {
				if !strings.EqualFold(p.Collection, mc.coll) {
					continue
				}
				if core.Decide(pat, ix.typ, p).Eligible() {
					got = true
				}
			}
		}
		agrees := "yes"
		if got != mc.eligible {
			agrees = "NO"
		}
		t.Rows = append(t.Rows, []string{mc.query, mc.index, verdict(mc.eligible), verdict(got), agrees})
	}
	return t, nil
}

func verdict(b bool) string {
	if b {
		return "eligible"
	}
	return "ineligible"
}
