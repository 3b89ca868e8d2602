package main

import (
	"fmt"
	"math/rand"
	"strings"

	"github.com/xqdb/xqdb/internal/workload"
)

type language uint8

const (
	langXQuery language = iota
	langSQL
)

func (l language) String() string {
	if l == langSQL {
		return "sql"
	}
	return "xquery"
}

// opClass groups templates for the class metrics: join_p50_ms reads the
// join class, read_* every class but the two writes, write_* the writes.
type opClass uint8

const (
	classRead opClass = iota
	classJoin
	classInsert
	classDelete
)

func (c opClass) write() bool { return c == classInsert || c == classDelete }

// constKind says which constants a template takes and how they are drawn.
type constKind uint8

const (
	// constNone: the statement has no constant.
	constNone constKind = iota
	// constGT: one price threshold inside the qualifying range.
	constGT
	// constBetween: a price interval inside the qualifying range.
	constBetween
	// constProduct: a product id and a price threshold just below the
	// qualifying range — two probes whose lists are intersected.
	constProduct
)

// template is one statement shape. Text holds fmt verbs for its
// constants: %[1]s the (lower) price bound, %[2]s the upper bound or the
// product id.
type template struct {
	Name  string
	Lang  language
	Class opClass
	Kind  constKind
	Text  string
	// Texts replaces Text for constNone templates that vary by path.
	Texts []string
	// Weight is the template's share of the analytic cycle.
	Weight int
	// WriteStable marks a read whose answer the orders that serve-rw
	// inserts cannot change, so it stays checkable while writes run.
	WriteStable bool
}

const ordersColl = `db2-fn:xmlcolumn('ORDERS.ORDDOC')`

// eligibleTemplates are the index-eligible shapes of the paper that
// point, adhoc and the read side of serve-rw draw from. Numbers are the
// paper's query numbers.
var eligibleTemplates = []template{
	{Name: "q1-order-filter", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: `for $i in ` + ordersColl + `//order[lineitem/@price>%[1]s] return $i`},
	{Name: "q7-standalone-path", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: ordersColl + `//lineitem[@price > %[1]s]`},
	{Name: "q8-xmlexists", Lang: langSQL, Kind: constGT, WriteStable: true,
		Text: `SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem[@price > %[1]s]' passing orddoc as "order")`},
	{Name: "q11-xmltable", Lang: langSQL, Class: classJoin, Kind: constGT, WriteStable: true,
		Text: `SELECT o.ordid, t.lineitem FROM orders o, XMLTable('$order//lineitem[@price > %[1]s]' passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.') as t(lineitem)`},
	{Name: "q17-for-for", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: `for $doc in ` + ordersColl + ` for $item in $doc//lineitem[@price > %[1]s] return <result>{$item}</result>`},
	{Name: "q20-where", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: `for $ord in ` + ordersColl + `/order where $ord/lineitem/@price > %[1]s return <result>{$ord/lineitem}</result>`},
	{Name: "q22-return-path", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: `for $ord in ` + ordersColl + `/order return $ord/lineitem[@price > %[1]s]`},
	{Name: "q27-two-probe", Lang: langXQuery, Kind: constProduct, WriteStable: true,
		Text: `for $i in ` + ordersColl + `/order/lineitem where $i/product/id/data(.) = '%[2]s' and $i/@price > %[1]s return $i/@quantity`},
	{Name: "q30-between", Lang: langXQuery, Kind: constBetween, WriteStable: true,
		Text: ordersColl + `//order[lineitem[@price>%[1]s and @price<%[2]s]]`},
	{Name: "count-index-only", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: `fn:count(` + ordersColl + `//lineitem/@price[. > %[1]s])`},
	{Name: "exists-index-only", Lang: langXQuery, Kind: constGT, WriteStable: true,
		Text: `fn:exists(` + ordersColl + `//lineitem[@price > %[1]s])`},
	// Answered from the path synopsis. It has no constant to vary, so it
	// is in the point pool only; inserts change its answer.
	{Name: "count-synopsis", Lang: langXQuery, Kind: constNone, Texts: []string{
		`fn:count(` + ordersColl + `//lineitem/product)`,
		`fn:count(` + ordersColl + `/order/lineitem)`,
		`fn:count(` + ordersColl + `//custid)`,
		`fn:count(` + ordersColl + `//product/id)`,
		`fn:count(` + ordersColl + `/order/@date)`,
		`fn:count(` + ordersColl + `//lineitem/@price)`,
		`fn:count(` + ordersColl + `//@quantity)`,
		`fn:count(` + ordersColl + `/order)`,
	}},
}

// analyticTemplates are the shapes the paper shows are not eligible, or
// that select nearly everything, plus the XMLExists value join. The
// weights are frozen: README.md records how they were derived.
var analyticTemplates = []template{
	{Name: "q3-string-compare", Lang: langXQuery, Weight: 5,
		Text: `for $i in ` + ordersColl + `//order[lineitem/@price > "100"] return $i`},
	{Name: "q5-select-xmlquery", Lang: langSQL, Weight: 5,
		Text: `SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order") FROM orders`},
	{Name: "q9-boolean-pitfall", Lang: langSQL, Weight: 4,
		Text: `SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`},
	{Name: "q12-xmltable-column", Lang: langSQL, Weight: 3,
		Text: `SELECT o.ordid, t.lineitem, t.price FROM orders o, XMLTable('$order//lineitem' passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.', "price" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)`},
	{Name: "q18-let", Lang: langXQuery, Weight: 5,
		Text: `for $doc in ` + ordersColl + ` let $item := $doc//lineitem[@price > 100] return <result>{$item}</result>`},
	{Name: "q19-constructor", Lang: langXQuery, Weight: 5,
		Text: `for $ord in ` + ordersColl + `/order return <result>{$ord/lineitem[@price > 100]}</result>`},
	{Name: "q26-constructed-view", Lang: langXQuery, Weight: 3,
		Text: `let $view := (for $i in ` + ordersColl + `/order/lineitem return <item>{ $i/@quantity, <pid>{ $i/product/id/data(.) }</pid> }</item>) for $j in $view where $j/pid = '17' return $j/@quantity`},
	{Name: "q13-xquery-join", Lang: langSQL, Weight: 3,
		Text: `SELECT p.name FROM products p, orders o WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`},
	{Name: "q16-sqlxml-join", Lang: langSQL, Class: classJoin, Weight: 1,
		Text: `SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`},
}

// writeTemplates are the two statements of serve-rw's write share (and
// of the write epilogue of the other workloads).
var writeTemplates = []template{
	{Name: "insert-order", Lang: langSQL, Class: classInsert},
	{Name: "delete-order", Lang: langSQL, Class: classDelete},
}

const (
	// poolPerTemplate constants per template make the point pool: 12 x 8
	// = 96 statements, under the plan cache (256) and each index's probe
	// cache (128).
	poolPerTemplate = 8
	// benchKeyBase is the first ordid and custid marker of an order the
	// benchmark inserts; the generators stay far below it.
	benchKeyBase = 1000000
)

// constants renders a template's statement for given constants.
func (t *template) render(lo, hi string) string {
	return fmt.Sprintf(t.Text, lo, hi)
}

func price(p float64, decimals int) string {
	return fmt.Sprintf("%.*f", decimals, p)
}

// minPrices is how many qualifying prices constant selection needs.
const minPrices = 4 + poolPerTemplate + betweenSpan

// betweenSpan is how many qualifying prices a between interval holds.
const betweenSpan = 6

// poolStatement renders constant j (0..poolPerTemplate-1) of a template
// for the point pool. Thresholds sit at fixed ranks of the qualifying
// prices, so statement j selects the same number of line items whatever
// the seed: between 2 and 9, under 0.1% of corpus-L's documents.
func poolStatement(t *template, c *corpus, j int) string {
	rank := 3 + j // prices above the threshold: 2, 3, ... 9
	switch t.Kind {
	case constNone:
		if len(t.Texts) > 0 {
			return t.Texts[j%len(t.Texts)]
		}
		return t.Text
	case constGT:
		return t.render(price(c.prices[rank-1], 2), "")
	case constBetween:
		// betweenSpan qualifying prices lie strictly between the bounds.
		return t.render(price(c.prices[rank+betweenSpan], 2), price(c.prices[rank-1], 2))
	case constProduct:
		return t.render(price(c.priceAtShare(productShareLo+float64(j)*(productShareHi-productShareLo)/poolPerTemplate), 2),
			c.steadyProducts[j%len(c.steadyProducts)])
	}
	panic("unknown constant kind")
}

// The price probe of the two-probe template selects between 1.5% and 3%
// of all line items: thresholds around 96-98, above every price of an
// order the benchmark inserts and below the qualifying range.
const (
	productShareLo = 0.015
	productShareHi = 0.030
)

// priceAtShare returns the price that the given share of all line items
// exceeds.
func (c *corpus) priceAtShare(share float64) float64 {
	return c.prices[int(share*float64(len(c.prices)))]
}

// freshStatement renders a template with constants drawn from r. A
// threshold is drawn by rank first — uniformly among the pool's ranks —
// and then uniformly, to six decimals, inside the gap between the two
// qualifying prices of that rank: every seed sees the same distribution
// of result sizes, and the gaps (one price unit wide on average) give
// well over 100 000 distinct statements per template, so neither the plan
// cache nor a probe cache sees one twice.
func freshStatement(t *template, c *corpus, r *rand.Rand) string {
	inGap := func(rank int) string { // above prices[rank], below prices[rank-1]
		lo, hi := c.prices[rank], c.prices[rank-1]
		return price(lo+(0.05+0.9*r.Float64())*(hi-lo), 6)
	}
	rank := 2 + r.Intn(poolPerTemplate)
	switch t.Kind {
	case constNone:
		return poolStatement(t, c, r.Intn(poolPerTemplate))
	case constGT:
		return t.render(inGap(rank), "")
	case constBetween:
		return t.render(inGap(rank+betweenSpan), inGap(rank))
	case constProduct:
		lo, hi := c.priceAtShare(productShareHi), c.priceAtShare(productShareLo)
		return t.render(price(lo+r.Float64()*(hi-lo), 6), c.steadyProducts[r.Intn(len(c.steadyProducts))])
	}
	panic("unknown constant kind")
}

// benchOrder generates the k-th order the benchmark inserts. It comes
// from the same generator as the corpus, with every price below 90 (so
// no read template's predicate selects it) and custid rewritten to the
// marker benchKeyBase+k, which the final check of serve-rw looks up
// through the o_custid index and by scan.
func benchOrder(seed int64, k int) string {
	doc := workload.Orders(workload.OrderSpec{N: 1, QualifyingPrice: 90, MaxLineitems: 1, Seed: seed + int64(k)})[0]
	i := strings.Index(doc, "<custid>")
	j := strings.Index(doc, "</custid>")
	return doc[:i+len("<custid>")] + fmt.Sprint(benchKeyBase+k) + doc[j:]
}

func insertStatement(seed int64, k int) string {
	return fmt.Sprintf(`insert into orders values (%d, '%s')`, benchKeyBase+k, benchOrder(seed, k))
}

func deleteStatement(k int) string {
	return fmt.Sprintf(`delete from orders where ordid = %d`, benchKeyBase+k)
}
