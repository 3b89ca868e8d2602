package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/workload"
	"github.com/xqdb/xqdb/internal/xdm"
)

// TestDefinition1OnRandomQueries is the systems-level safety property:
// for a family of randomly generated queries over a random corpus, the
// indexed run must return exactly the full-scan result — any divergence
// means an unsound eligibility decision or a broken probe.
func TestDefinition1OnRandomQueries(t *testing.T) {
	r := rand.New(rand.NewSource(1117))
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	spec := workload.DefaultOrders(300)
	spec.Selectivity = 0.4
	spec.StringPriceFraction = 0.1
	for i, doc := range workload.Orders(spec) {
		mustSQL(t, e, fmt.Sprintf(`insert into orders values (%d, '%s')`, i, doc))
	}
	for _, ddl := range []string{
		`CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`,
		`CREATE INDEX li_price_s ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS varchar`,
		`CREATE INDEX all_attrs ON orders(orddoc) USING XMLPATTERN '//@*' AS double`,
		`CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`,
		`CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '//custid' AS double`,
	} {
		mustSQL(t, e, ddl)
	}

	paths := []string{
		"//order", "/order", "//lineitem", "//order/lineitem",
	}
	preds := func() string {
		v := r.Intn(250)
		switch r.Intn(8) {
		case 0:
			return fmt.Sprintf("[@price > %d]", v)
		case 1:
			return fmt.Sprintf("[@price < %d]", v)
		case 2:
			return fmt.Sprintf("[@price = %d]", v)
		case 3:
			return fmt.Sprintf("[@price > %d and @price < %d]", v, v+50)
		case 4:
			return fmt.Sprintf(`[product/id = "%d"]`, r.Intn(500))
		case 5:
			return fmt.Sprintf("[@quantity >= %d]", 1+r.Intn(9))
		case 6:
			return fmt.Sprintf("[.//product/id = \"%d\" or @price > %d]", r.Intn(500), v)
		default:
			return "[@price]"
		}
	}
	shapes := []func(path, pred string) string{
		func(p, pr string) string {
			return fmt.Sprintf(`db2-fn:xmlcolumn('ORDERS.ORDDOC')%s%s`, p, pr)
		},
		func(p, pr string) string {
			return fmt.Sprintf(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')%s%s return $i`, p, pr)
		},
		func(p, pr string) string {
			return fmt.Sprintf(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')%s where $i/lineitem%s return <r>{$i/custid}</r>`, p, pr)
		},
		func(p, pr string) string {
			return fmt.Sprintf(`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')%s%s)`, p, pr)
		},
	}
	for trial := 0; trial < 120; trial++ {
		path := paths[r.Intn(len(paths))]
		pred := preds()
		q := shapes[r.Intn(len(shapes))](path, pred)
		full, _, err1 := e.ExecXQueryOpts(q, ExecOptions{})
		idx, _, err2 := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("error divergence for %s:\n  full: %v\n  idx:  %v", q, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if xdm.SerializeSequence(full) != xdm.SerializeSequence(idx) {
			t.Fatalf("Definition 1 violated for %s: %d vs %d items", q, len(full), len(idx))
		}
	}
}

// TestDefinition1OnRandomSQL does the same through the SQL/XML surface.
func TestDefinition1OnRandomSQL(t *testing.T) {
	r := rand.New(rand.NewSource(1128))
	e := newPaperDB(t, 200)
	createLiPrice(t, e)
	mustSQL(t, e, `CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`)
	templates := []func() string{
		func() string {
			return fmt.Sprintf(`SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > %d]' passing orddoc as "o")`, r.Intn(200))
		},
		func() string {
			return fmt.Sprintf(`SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[product/id = "%d"]' passing orddoc as "o")`, r.Intn(7))
		},
		func() string {
			return fmt.Sprintf(`SELECT o.ordid, t.price FROM orders o,
				XMLTable('$o//lineitem[@price > %d]' passing o.orddoc as "o"
				COLUMNS "price" DOUBLE PATH '@price') as t(price)`, r.Intn(200))
		},
		func() string {
			return fmt.Sprintf(`SELECT ordid FROM orders
				WHERE XMLExists('$o//lineitem[@price > %d]' passing orddoc as "o")
				  AND XMLExists('$o/order[custid = %d]' passing orddoc as "o")`, r.Intn(150), r.Intn(5))
		},
	}
	for trial := 0; trial < 60; trial++ {
		q := templates[r.Intn(len(templates))]()
		full, _, err1 := e.ExecSQLOpts(q, ExecOptions{})
		idx, _, err2 := e.ExecSQLOpts(q, ExecOptions{UseIndexes: true})
		if err1 != nil || err2 != nil {
			t.Fatalf("error for %s: %v %v", q, err1, err2)
		}
		if len(full.Rows) != len(idx.Rows) {
			t.Fatalf("Definition 1 violated for %s: %d vs %d rows", q, len(full.Rows), len(idx.Rows))
		}
		for i := range full.Rows {
			for j := range full.Rows[i] {
				if full.Rows[i][j].String() != idx.Rows[i][j].String() {
					t.Fatalf("cell divergence for %s at (%d,%d)", q, i, j)
				}
			}
		}
	}
}

// TestConcurrentReaders checks that parallel queries over a loaded
// database are race-free (run with -race) and produce stable results.
func TestConcurrentReaders(t *testing.T) {
	e := newPaperDB(t, 150)
	createLiPrice(t, e)
	want, _, err := e.ExecXQueryOpts(`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])`, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				useIdx := (id+k)%2 == 0
				got, _, err := e.ExecXQueryOpts(`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])`, ExecOptions{UseIndexes: useIdx})
				if err != nil {
					errs <- err
					return
				}
				if xdm.SerializeSequence(got) != xdm.SerializeSequence(want) {
					errs <- fmt.Errorf("goroutine %d: result drift", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
