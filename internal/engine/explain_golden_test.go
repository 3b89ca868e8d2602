package engine

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/xdm"
)

// explainGoldenFile holds the EXPLAIN text the cases below must render,
// byte for byte: every rejection reason and hint, every type reason, the
// three ELIGIBLE forms, and the adhoc benchmark shapes against the
// benchmark's five indexes.
const explainGoldenFile = "testdata/explain.golden"

// goldenBenchIndexes are the benchmark corpus's index definitions.
var goldenBenchIndexes = []string{
	`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
	`create index li_price_str on orders(orddoc) using xmlpattern '//lineitem/@price' as varchar`,
	`create index prod_id on orders(orddoc) using xmlpattern '//lineitem/product/id' as varchar`,
	`create index o_custid on orders(orddoc) using xmlpattern '//custid' as double`,
	`create index c_custid on customer(cdoc) using xmlpattern '/customer/id' as double`,
}

// goldenAdhocShapes are the benchmark's constant-taking read templates
// with fixed constants.
var goldenAdhocShapes = []string{
	`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>120.50] return $i`,
	`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 120.50]`,
	`SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem[@price > 120.50]' passing orddoc as "order")`,
	`SELECT o.ordid, t.lineitem FROM orders o, XMLTable('$order//lineitem[@price > 120.50]' passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.') as t(lineitem)`,
	`for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC') for $item in $doc//lineitem[@price > 120.50] return <result>{$item}</result>`,
	`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $ord/lineitem/@price > 120.50 return <result>{$ord/lineitem}</result>`,
	`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return $ord/lineitem[@price > 120.50]`,
	`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem where $i/product/id/data(.) = '3' and $i/@price > 96.10 return $i/@quantity`,
	`db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>120.50 and @price<140.25]]`,
	`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 120.50])`,
	`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 120.50])`,
}

// goldenPitfalls pairs index definitions with a query so that, between
// them, the reports carry every reason EXPLAIN can give.
var goldenPitfalls = []struct {
	indexes []string
	query   string
}{
	// structure with each hint, and with none
	{[]string{`create index nation_v on orders(orddoc) using xmlpattern '//nation' as varchar`},
		`declare default element namespace "urn:geo"; db2-fn:xmlcolumn("ORDERS.ORDDOC")/customer[nation = "1"]`},
	{[]string{`create index price_el on orders(orddoc) using xmlpattern '//lineitem/price' as varchar`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/price/text() = "99.50"]`},
	{[]string{`create index li_any on orders(orddoc) using xmlpattern '//lineitem/*' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`},
	{[]string{`create index li_qty on orders(orddoc) using xmlpattern '//lineitem/@quantity' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`},
	// context: a predicate under a constructor does not filter
	{[]string{`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`},
		`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order return <result>{$ord/lineitem[@price > 100]}</result>`},
	// type: unknown, string vs double, numeric vs varchar
	{[]string{`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price/xs:double(.) = "100"]`},
	{[]string{`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price = "100"]`},
	{[]string{`create index li_price_str on orders(orddoc) using xmlpattern '//lineitem/@price' as varchar`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`},
	// type: date and timestamp against the wrong index type, and a
	// structural predicate against a non-varchar index
	{[]string{`create index o_date on orders(orddoc) using xmlpattern '/order/@date' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[@date/xs:date(.) ge xs:date("2002-01-01")]`},
	{[]string{`create index o_date on orders(orddoc) using xmlpattern '/order/@date' as date`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[@date/xs:dateTime(.) gt xs:dateTime("2002-01-01T00:00:00Z")]`},
	{[]string{`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price]`},
	// ELIGIBLE: chosen, selected first, and not chosen (an operator no
	// single range probe answers)
	{[]string{
		`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
		`create index any_price on orders(orddoc) using xmlpattern '//@price' as double`,
	}, `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`},
	{[]string{`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`},
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price != 100]`},
}

// shardsRE masks the one machine-dependent number in a report.
var shardsRE = regexp.MustCompile(`up to \d+ shards`)

// explainGoldenReport renders every golden case into one text.
func explainGoldenReport(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	explain := func(e *Engine, query string) {
		t.Helper()
		rep, err := e.Explain(query)
		if err != nil {
			t.Fatalf("explain %s: %v", query, err)
		}
		b.WriteString("=== " + query + "\n")
		b.WriteString(shardsRE.ReplaceAllString(rep, "up to N shards"))
	}
	withIndexes := func(ddl []string) *Engine {
		t.Helper()
		e := newPaperDB(t, 12)
		for _, d := range ddl {
			mustSQL(t, e, d)
		}
		return e
	}

	for _, c := range goldenPitfalls {
		explain(withIndexes(c.indexes), c.query)
	}
	bench := withIndexes(goldenBenchIndexes)
	for _, q := range goldenAdhocShapes {
		explain(bench, q)
	}

	// Two reasons no statement reaches: a non-filtering predicate that
	// carries no reason of its own, and a predicate whose path could not
	// be derived. The planner renders them from a hand-built analysis.
	v := xdm.NewDouble(100)
	a := &core.Analysis{Predicates: []core.Predicate{{
		Collection: "orders.orddoc", FromIndex: -1, Op: xdm.OpGt, Value: &v,
		CompType: core.CompDouble, Between: -1,
	}}}
	_, decisions, err := bench.planProbes(a)
	if err != nil {
		t.Fatal(err)
	}
	b.WriteString("=== hand-built analysis\n")
	renderDecisions(&b, decisions)
	return b.String()
}

// TestExplainGolden pins EXPLAIN's eligibility text: the decision is
// made while planning and the words are rendered only when EXPLAIN
// runs, and the two must keep telling the same story.
func TestExplainGolden(t *testing.T) {
	got := explainGoldenReport(t)
	want, err := os.ReadFile(explainGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", explainGoldenFile, i+1, g, w)
		}
	}
}
