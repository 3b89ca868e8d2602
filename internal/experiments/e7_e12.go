package experiments

import (
	"fmt"

	"github.com/xqdb/xqdb/internal/engine"
	"github.com/xqdb/xqdb/internal/workload"
)

// E7Namespaces reproduces §3.7 (Tip 10): namespace alignment between
// data, queries and indexes.
func E7Namespaces(cfg Config) (*Table, error) {
	n := cfg.docs()
	e := engine.New()
	for _, ddl := range []string{
		`create table customer (cid integer, cdoc XML)`,
		`create table orders (ordid integer, orddoc XML)`,
	} {
		if _, _, err := e.ExecSQLOpts(ddl, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	if err := loadDocs(e, "customer", workload.Customers(n, customerNS, 7)); err != nil {
		return nil, err
	}
	spec := workload.DefaultOrders(n / 2)
	spec.Namespace = orderNS
	if err := loadOrders(e, workload.Orders(spec)); err != nil {
		return nil, err
	}

	custQuery := `declare namespace c="` + customerNS + `";
		db2-fn:xmlcolumn('CUSTOMER.CDOC')/c:customer[c:nation = 1]`
	orderQuery := `declare default element namespace "` + orderNS + `";
		db2-fn:xmlcolumn('ORDERS.ORDDOC')/order[lineitem/@price > 100]`

	t := &Table{
		ID: "E7", Title: "XQuery namespaces and index definitions",
		PaperRef: "§3.7, Tip 10 (Query 28)", Headers: runHeaders,
	}
	// Round 1: only the namespace-less indexes exist — nothing eligible.
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX c_nation ON customer(cdoc) USING XMLPATTERN '//nation' AS double`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "c:nation with c_nation (no ns)", custQuery, false),
		compareRuns(e, "order price with li_price (no ns)", orderQuery, false),
	)
	// Round 2: the paper's fixed definitions.
	for _, ddl := range []string{
		`CREATE INDEX c_nation_ns1 ON customer(cdoc) USING XMLPATTERN 'declare default element namespace "` + customerNS + `"; //nation' AS double`,
		`CREATE INDEX c_nation_ns2 ON customer(cdoc) USING XMLPATTERN '//*:nation' AS double`,
		`CREATE INDEX li_price_ns ON orders(orddoc) USING XMLPATTERN '//@price' AS double`,
	} {
		if _, _, err := e.ExecSQLOpts(ddl, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "c:nation with ns1/ns2 present", custQuery, false),
		compareRuns(e, "order price with //@price present", orderQuery, false),
	)
	t.Notes = append(t.Notes,
		"default element namespaces never apply to attributes: //@price (no declarations) matches the namespaced documents while //lineitem/@price does not.")
	return t, nil
}

// E8TextNodes reproduces §3.8 (Tip 11): /text() alignment between query
// and index.
func E8TextNodes(cfg Config) (*Table, error) {
	n := cfg.docs()
	e := engine.New()
	if _, _, err := e.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if err := loadOrders(e, workload.TextPrices(n, 0.2, 9)); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX PRICE_TEXT ON orders.orddoc USING XMLPATTERN '//price' AS varchar`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX PRICE_TEXT_ALIGNED ON orders.orddoc USING XMLPATTERN '//price/text()' AS varchar`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E8", Title: "Querying and indexing XML text nodes",
		PaperRef: "§3.8, Tip 11 (Query 29)", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "Q29 text() step (aligned index only)",
			`for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/price/text() = "99.50"] return $ord`, false),
		compareRuns(e, "element-value predicate (//price index)",
			`for $ord in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order[lineitem/price = "99.50"] return $ord`, false),
	)
	t.Notes = append(t.Notes,
		"20% of the documents have <price>X<currency>USD</currency></price>: their element string value is \"XUSD\" while the first text node is \"X\" — using the //price index for the text() query would return wrong results, so the analyzer rejects it (Tip 11).")
	return t, nil
}

// E9Attributes reproduces §3.9 (Tip 12): attribute nodes are reachable
// only through attribute axes; //* and //node() index no attributes.
func E9Attributes(cfg Config) (*Table, error) {
	n := cfg.docs()
	e, err := ordersEngine(n, false)
	if err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		`CREATE INDEX all_elems ON orders(orddoc) USING XMLPATTERN '//*' AS double`,
		`CREATE INDEX all_nodes ON orders(orddoc) USING XMLPATTERN '//node()' AS double`,
	} {
		if _, _, err := e.ExecSQLOpts(ddl, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	q := `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]`
	wildcard := `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@* > 100]`
	t := &Table{
		ID: "E9", Title: "Attributes and elements in index patterns",
		PaperRef: "§3.9, Tip 12", Headers: runHeaders,
	}
	t.Rows = append(t.Rows, compareRuns(e, "@price with //* and //node() only", q, false))
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX all_attrs ON orders(orddoc) USING XMLPATTERN '//@*' AS double`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "@price with //@* present", q, false),
		compareRuns(e, "Q2 @* wildcard with //@*", wildcard, false),
	)
	t.Notes = append(t.Notes,
		"//node() expands to /descendant-or-self::node()/child::node(): the child axis never reaches attributes, so those broad indexes contain none (Tip 12).")
	return t, nil
}

// E10Between reproduces §3.10: between predicates — one range scan for
// provably-singleton forms, two scans plus ANDing otherwise.
func E10Between(cfg Config) (*Table, error) {
	n := cfg.docs()
	e := engine.New()
	if _, _, err := e.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	if err := loadOrders(e, workload.MultiPriceOrders(n, 100, 200, 11)); err != nil {
		return nil, err
	}
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX price_el ON orders(orddoc) USING XMLPATTERN '//price' AS double`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E10", Title: "Between predicates",
		PaperRef: "§3.10 (Query 30)",
		Headers:  []string{"form", "probes", "rows", "docs scanned", "full scan", "indexed", "speedup", "equiv"},
	}
	addForm := func(name, q string) error {
		full := timeXQ(e, q, false)
		idx := timeXQ(e, q, true)
		if full.err != nil || idx.err != nil {
			t.Rows = append(t.Rows, []string{name, "-", "error: " + errStr(full.err, idx.err), "", "", "", "", ""})
			return nil
		}
		match := "ok"
		if full.rows != idx.rows {
			match = "MISMATCH"
		}
		t.Rows = append(t.Rows, []string{
			name, fmt.Sprint(idx.stats.Probes), fmt.Sprint(idx.rows),
			fmt.Sprintf("%d/%d", idx.stats.DocsScanned, idx.stats.DocsTotal),
			fmtDur(full.elapsed), fmtDur(idx.elapsed), speedup(full.elapsed, idx.elapsed), match,
		})
		return nil
	}
	if err := addForm("general comparisons (existential)",
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > 100 and price < 200]`); err != nil {
		return nil, err
	}
	if err := addForm("self axis + data() (between)",
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price/data()[. > 100 and . < 200]]`); err != nil {
		return nil, err
	}
	if err := addForm("value comparisons (between; fails on multi-price)",
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[xs:double(price) gt 100 and xs:double(price) lt 200]`); err != nil {
		return nil, err
	}

	// The attribute form on the attribute corpus.
	ea, err := ordersEngine(n, true)
	if err != nil {
		return nil, err
	}
	q30 := `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem[@price>100 and @price<135]]`
	full := timeXQ(ea, q30, false)
	idx := timeXQ(ea, q30, true)
	match := "ok"
	if full.rows != idx.rows {
		match = "MISMATCH"
	}
	t.Rows = append(t.Rows, []string{
		"Q30 attribute form (between)", fmt.Sprint(idx.stats.Probes), fmt.Sprint(idx.rows),
		fmt.Sprintf("%d/%d", idx.stats.DocsScanned, idx.stats.DocsTotal),
		fmtDur(full.elapsed), fmtDur(idx.elapsed), speedup(full.elapsed, idx.elapsed), match,
	})
	t.Notes = append(t.Notes,
		"the existential form returns more rows than the between forms: lineitems whose prices straddle the range qualify without any price inside it.",
		"value comparisons fail at runtime on lineitems with multiple prices, exactly as the paper warns.")
	return t, nil
}

// E11TolerantIndexes reproduces §2.1: tolerant type casts and schema
// evolution (US/Canadian postal codes), plus broad //@* indexes.
func E11TolerantIndexes(cfg Config) (*Table, error) {
	n := cfg.docs()
	e := engine.New()
	if _, _, err := e.ExecSQLOpts(`create table addresses (id integer, doc XML)`, engine.ExecOptions{}); err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		`CREATE INDEX zip_d ON addresses(doc) USING XMLPATTERN '//zip' AS double`,
		`CREATE INDEX zip_s ON addresses(doc) USING XMLPATTERN '//zip' AS varchar`,
	} {
		if _, _, err := e.ExecSQLOpts(ddl, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	docs := workload.PostalAddresses(n, 0.3, 13)
	if err := loadDocs(e, "addresses", docs); err != nil {
		return nil, err
	}
	t := &Table{
		ID: "E11", Title: "Tolerant indexes and schema evolution",
		PaperRef: "§2.1", Headers: runHeaders,
	}
	t.Rows = append(t.Rows,
		compareRuns(e, "numeric zip range (double index)",
			`db2-fn:xmlcolumn('ADDRESSES.DOC')//address[zip > 90000]`, false),
		compareRuns(e, "string zip equality (varchar index)",
			`db2-fn:xmlcolumn('ADDRESSES.DOC')//address[zip = "`+zipOf(docs)+`"]`, false),
	)
	t.Notes = append(t.Notes,
		fmt.Sprintf("all %d documents inserted despite ~30%% non-numeric Canadian codes: the double index skips them instead of rejecting the documents.", n),
		"both a numeric and a string index coexist on the same data during the migration window, as §2.1 requires.")
	return t, nil
}

// zipOf picks a deterministic Canadian zip from the corpus for the
// equality probe.
func zipOf(docs []string) string {
	for _, d := range docs {
		start := indexOf(d, "<zip>") + 5
		end := indexOf(d, "</zip>")
		z := d[start:end]
		if len(z) > 0 && z[0] >= 'A' {
			return z
		}
	}
	return "K1A 0B1"
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// E12Scaling reproduces the paper's motivating context: collections of
// many small documents, where the win of document pre-filtering grows
// with collection size and shrinks as selectivity approaches 1.
func E12Scaling(cfg Config) (*Table, error) {
	t := &Table{
		ID: "E12", Title: "Index pre-filtering vs collection scan: scaling",
		PaperRef: "§1, §2.2 (Definition 1)",
		Headers:  []string{"corpus", "selectivity", "rows", "docs scanned", "full scan", "indexed", "speedup", "equiv"},
	}
	base := cfg.docs()
	query := `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100]`

	for _, size := range []int{base / 4, base / 2, base, base * 2} {
		e := engine.New()
		if _, _, err := e.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, engine.ExecOptions{}); err != nil {
			return nil, err
		}
		spec := workload.DefaultOrders(size)
		spec.Selectivity = 0.05
		if err := loadOrders(e, workload.Orders(spec)); err != nil {
			return nil, err
		}
		if _, _, err := e.ExecSQLOpts(`CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`, engine.ExecOptions{}); err != nil {
			return nil, err
		}
		row := compareRuns(e, fmt.Sprintf("%d docs", size), query, false)
		// insert the selectivity column
		t.Rows = append(t.Rows, []string{row[0], "0.05", row[2], row[3], row[4], row[5], row[6], row[7]})
	}
	for _, sel := range []float64{0.01, 0.10, 0.33, 0.90} {
		e := engine.New()
		if _, _, err := e.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, engine.ExecOptions{}); err != nil {
			return nil, err
		}
		spec := workload.DefaultOrders(base)
		spec.Selectivity = sel
		if err := loadOrders(e, workload.Orders(spec)); err != nil {
			return nil, err
		}
		if _, _, err := e.ExecSQLOpts(`CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`, engine.ExecOptions{}); err != nil {
			return nil, err
		}
		row := compareRuns(e, fmt.Sprintf("%d docs", base), query, false)
		t.Rows = append(t.Rows, []string{row[0], fmt.Sprintf("%.2f", sel), row[2], row[3], row[4], row[5], row[6], row[7]})
	}
	t.Notes = append(t.Notes,
		"speedup grows with corpus size at fixed selectivity and degrades toward 1x as selectivity approaches 1 — the pre-filter saves nothing when every document qualifies.")
	return t, nil
}
