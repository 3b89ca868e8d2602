package experiments

import (
	"fmt"

	"github.com/xqdb/xqdb/internal/engine"
	"github.com/xqdb/xqdb/internal/workload"
)

// E1PredicateTypes reproduces §3.1 (Tip 1): index and predicate data
// types must match; casts communicate join types.
func E1PredicateTypes(cfg Config) (*Table, error) {
	n := cfg.docs()
	e, err := ordersEngine(n, true)
	if err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX li_price_str ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS varchar`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' AS double`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX c_custid ON customer(cdoc) USING XMLPATTERN '/customer/id' AS double`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if err := loadDocs(e, "customer", workload.Customers(50, "", 2)); err != nil {
		return nil, err
	}

	t := &Table{
		ID: "E1", Title: "Matching index and query predicate data types",
		PaperRef: "§3.1, Tip 1", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "Q1 numeric literal (double index)",
			`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`, false),
		compareRuns(e, "Q3 string literal (varchar index)",
			`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > "100"] return $i`, false),
		compareRuns(e, "Q4 join with xs:double casts",
			`for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
			 for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
			 where $i/custid/xs:double(.) = $j/id/xs:double(.)
			 return $i/custid`, false),
		compareRuns(e, "Q4 join without casts (no index)",
			`for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order
			 for $j in db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer
			 where $i/custid = $j/id
			 return $i/custid`, false),
	)
	t.Notes = append(t.Notes,
		"Q1 and Q3 return different rows on the same data: the numeric and string orderings disagree.",
		"the castless join compares untyped values as strings and cannot use any index (Tip 1).")
	return t, nil
}

// E2SQLXMLFunctions reproduces §3.2 (Tips 2-4): which SQL/XML function
// placements make indexes eligible, and the result shapes the paper
// prints for Queries 5-12.
func E2SQLXMLFunctions(cfg Config) (*Table, error) {
	n := cfg.docs()
	e, err := ordersEngine(n, true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E2", Title: "SQL/XML query functions: XMLQuery, XMLExists, XMLTable",
		PaperRef: "§3.2, Tips 2-4", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "Q5 XMLQuery in select list",
			`SELECT XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order") FROM orders`, true),
		compareRuns(e, "Q6 VALUES(XMLQuery(xmlcolumn...))",
			`VALUES (XMLQuery('db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]'))`, true),
		compareRuns(e, "Q7 stand-alone XQuery",
			`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100]`, false),
		compareRuns(e, "Q8 XMLExists in WHERE",
			`SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`, true),
		compareRuns(e, "Q9 XMLExists over boolean (pitfall)",
			`SELECT ordid, orddoc FROM orders WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`, true),
		compareRuns(e, "Q10 XMLQuery + XMLExists",
			`SELECT ordid, XMLQuery('$order//lineitem[@price > 100]' passing orddoc as "order") FROM orders
			 WHERE XMLExists('$order//lineitem[@price > 100]' passing orddoc as "order")`, true),
		compareRuns(e, "Q11 XMLTable row-producer",
			`SELECT o.ordid, t.lineitem FROM orders o, XMLTable('$order//lineitem[@price > 100]'
			 passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.') as t(lineitem)`, true),
		compareRuns(e, "Q12 XMLTable column predicate (pitfall)",
			`SELECT o.ordid, t.lineitem, t.price FROM orders o, XMLTable('$order//lineitem'
			 passing o.orddoc as "order" COLUMNS "lineitem" XML BY REF PATH '.',
			 "price" DECIMAL(6,3) PATH '@price[. > 100]') as t(lineitem, price)`, true),
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("row shapes match the paper: Q5 returns one row per order (%d), Q6 exactly one row, Q7/Q11 one row per qualifying lineitem, Q9/Q12 never eliminate rows.", n))
	return t, nil
}

// E3Joins reproduces §3.3 (Tips 5-6): joining XML values in SQL/XML.
func E3Joins(cfg Config) (*Table, error) {
	n := cfg.docs() / 4
	if n < 100 {
		n = 100
	}
	e, err := ordersEngine(n, true)
	if err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		`CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`,
		`CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' AS double`,
		`CREATE INDEX p_id ON products(id)`,
	} {
		if _, _, err := e.ExecSQLOpts(ddl, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	if err := loadDocs(e, "customer", workload.Customers(20, "", 3)); err != nil {
		return nil, err
	}
	for _, p := range workload.Products(50) {
		if _, _, err := e.ExecSQLOpts(fmt.Sprintf(`insert into products values ('%s', '%s')`, p[0], p[1]), engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}

	t := &Table{
		ID: "E3", Title: "Joining XML values in SQL/XML",
		PaperRef: "§3.3, Tips 5-6", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "Q13 join in XQuery (XML index)",
			`SELECT p.name FROM products p, orders o
			 WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`, true),
		compareRuns(e, "Q16 XML-to-XML join in XQuery",
			`SELECT c.cid FROM orders o, customer c
			 WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]'
			 passing o.orddoc as "order", c.cdoc as "cust")`, true),
		compareRuns(e, "Q15 XML-to-XML join in SQL (no index)",
			`SELECT c.cid FROM orders o, customer c
			 WHERE XMLCast(XMLQuery('$order/order/custid' passing o.orddoc as "order") as DOUBLE)
			     = XMLCast(XMLQuery('$cust/customer/id' passing c.cdoc as "cust") as DOUBLE)`, true),
		compareRuns(e, "relational point query (p_id index)",
			`SELECT name FROM products WHERE id = '3'`, true),
	)

	// The Query 14 hazards, demonstrated on a crafted order.
	hazard := engine.New()
	for _, ddl := range []string{
		`create table orders (ordid integer, orddoc XML)`,
		`create table products (id varchar(13), name varchar(32))`,
	} {
		if _, _, err := hazard.ExecSQLOpts(ddl, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	if _, _, err := hazard.ExecSQLOpts(`insert into products values ('17', 'widget')`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := hazard.ExecSQLOpts(`insert into orders values
		(1, '<order><lineitem><product><id>17</id></product></lineitem><lineitem><product><id>18</id></product></lineitem></order>')`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	_, _, err14 := hazard.ExecSQLOpts(`SELECT p.name FROM products p, orders o
		WHERE p.id = XMLCast(XMLQuery('$order//lineitem/product/id' passing o.orddoc as "order") as VARCHAR(13))`, engine.ExecOptions{})
	q13res, _, err13 := hazard.ExecSQLOpts(`SELECT p.name FROM products p, orders o
		WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`, engine.ExecOptions{})
	if err13 != nil {
		return nil, err13
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("Query 14 on a two-lineitem order: %s (Query 13 succeeds with %d row)", errStr(err14), len(q13res.Rows)),
		"SQL string comparison ignores trailing blanks; XQuery's does not — the two join formulations are not equivalent on padded data.")
	return t, nil
}

// E4LetClauses reproduces §3.4 (Tip 7): for vs let, where-clause rescue,
// and constructors in return clauses.
func E4LetClauses(cfg Config) (*Table, error) {
	n := cfg.docs()
	e, err := ordersEngine(n, true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E4", Title: "XQuery let-clauses and empty-sequence preservation",
		PaperRef: "§3.4, Tip 7", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "Q17 for-for (index)",
			`for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
			 for $item in $doc//lineitem[@price > 100]
			 return <result>{$item}</result>`, false),
		compareRuns(e, "Q18 for-let (no index)",
			`for $doc in db2-fn:xmlcolumn('ORDERS.ORDDOC')
			 let $item := $doc//lineitem[@price > 100]
			 return <result>{$item}</result>`, false),
		compareRuns(e, "Q19 constructor in return (no index)",
			`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
			 return <result>{$ord/lineitem[@price > 100]}</result>`, false),
		compareRuns(e, "Q20 where on path (index)",
			`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
			 where $ord/lineitem/@price > 100
			 return <result>{$ord/lineitem}</result>`, false),
		compareRuns(e, "Q21 let + where rescue (index)",
			`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
			 let $price := $ord/lineitem/@price
			 where $price > 100
			 return <result>{$ord/lineitem}</result>`, false),
		compareRuns(e, "Q22 bare path in return (index)",
			`for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
			 return $ord/lineitem[@price > 100]`, false),
	)
	t.Notes = append(t.Notes,
		"Q17 returns one <result> per qualifying lineitem; Q18/Q19 one per document (empty for non-qualifying) — the semantic difference that blocks the index.")
	return t, nil
}

// E5DocumentNodes reproduces §3.5 (Tip 8): document vs element nodes.
func E5DocumentNodes(cfg Config) (*Table, error) {
	e, err := ordersEngine(50, true)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E5", Title: "Document versus element nodes",
		PaperRef: "§3.5, Tip 8",
		Headers:  []string{"query", "outcome", "expected"},
	}
	q23 := timeXQ(e, `db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem`, true)
	t.Rows = append(t.Rows, []string{"Q23 /order from document nodes",
		fmt.Sprintf("%d lineitems", q23.rows), "matches top-level orders"})

	q24 := timeXQ(e, `for $ord in (for $o in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
			return <my_order>{$o/*}</my_order>)
		return $ord/my_order`, true)
	t.Rows = append(t.Rows, []string{"Q24 child step under constructed element",
		fmt.Sprintf("%d rows", q24.rows), "0 rows (no extra level)"})

	q25 := timeXQ(e, `let $order := <neworders>{db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[custid > 1001]}</neworders>
		return $order[//customer/name]`, true)
	outcome := "no error (!)"
	if q25.err != nil {
		outcome = "type error: " + errStr(q25.err)
	}
	t.Rows = append(t.Rows, []string{"Q25 absolute path under constructed element", outcome, "type error (treat as document-node())"})
	return t, nil
}

// E6Construction reproduces §3.6 (Tip 9): node construction blocks
// predicate pushdown, and the five enumerated transformation hazards.
func E6Construction(cfg Config) (*Table, error) {
	n := cfg.docs()
	e, err := ordersEngine(n, true)
	if err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E6", Title: "Node construction and predicate pushdown",
		PaperRef: "§3.6, Tip 9", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "Q26 predicate on constructed view (no index)",
			`let $view := (for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem
				return <item>{ $i/@quantity, <pid>{ $i/product/id/data(.) }</pid> }</item>)
			 for $j in $view
			 where $j/pid = '17'
			 return $j/@quantity`, false),
		compareRuns(e, "Q27 predicate before construction (index)",
			`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem
			 where $i/product/id/data(.) = '17'
			 return $i/@quantity`, false),
	)

	// The five hazards on crafted documents.
	h := engine.New()
	if _, _, err := h.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := h.ExecSQLOpts(`insert into orders values
		(1, '<order><lineitem quantity="1"><product><id>p1</id><id>p2</id></product></lineitem></order>'),
		(2, '<order><lineitem quantity="2"><product price="10"/><product price="20"/></lineitem></order>')`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	viewQuery := func(pid string) string {
		return `let $view := (for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem[product/id]
			return <item><pid>{ $i/product/id/data(.) }</pid></item>)
		return $view[pid = '` + pid + `']`
	}
	baseQuery := func(pid string) string {
		return `db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem[product/id/data(.) = '` + pid + `']`
	}
	v1 := timeXQ(h, viewQuery("p1 p2"), false)
	b1 := timeXQ(h, baseQuery("p1 p2"), false)
	v2 := timeXQ(h, viewQuery("p2"), false)
	b2 := timeXQ(h, baseQuery("p2"), false)
	t.Notes = append(t.Notes,
		fmt.Sprintf("hazard 3 (concatenation): view='p1 p2' finds %d, base finds %d; view='p2' finds %d, base finds %d — the rewrite is not semantics-preserving.",
			v1.rows, b1.rows, v2.rows, b2.rows))

	dup := timeXQ(h, `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem[product/@price]
		return <item>{ $i/product/@price }</item>`, false)
	t.Notes = append(t.Notes,
		fmt.Sprintf("hazard 4 (duplicate attributes): constructing with two @price products raises: %s", errStr(dup.err)))

	exc := timeXQ(h, `let $view := (for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem
			return <item>{$i/@quantity}</item>)
		return $view/@quantity except db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem/@quantity`, false)
	t.Notes = append(t.Notes,
		fmt.Sprintf("hazard 5 (node identity): view attributes except base attributes keeps %d nodes (identities differ after copying).", exc.rows))

	big := int64(1) << 53
	rounding := timeXQ(h, fmt.Sprintf(`if (xs:double(%d + 1) = xs:double(%d)) then 1 else ()`, big, big), false)
	note := "distinct"
	if rounding.rows == 1 {
		note = "equal under double conversion"
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("hazard 2 (rounding): 2^53+1 vs 2^53 are %s — conversions collide where exact integer comparison would not.", note))
	return t, nil
}
