package xqdb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

const preparedQ1 = `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 20]`

func TestPreparedStatementFlow(t *testing.T) {
	db := loadedDB(t, 40)

	stmt, err := db.PrepareXQuery(preparedQ1)
	if err != nil {
		t.Fatal(err)
	}
	if stmt.Text() != preparedQ1 {
		t.Fatalf("Text() = %q", stmt.Text())
	}
	plain, _, err := db.QueryXQuery(preparedQ1)
	if err != nil {
		t.Fatal(err)
	}
	prepped, stats, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(prepped.Rows()) != fmt.Sprint(plain.Rows()) {
		t.Fatal("prepared execution returned different rows than unprepared")
	}
	if len(stats.IndexesUsed) == 0 {
		t.Fatalf("prepared execution skipped the index: %+v", stats)
	}

	sqlStmt, err := db.Prepare(`select ordid from orders where xmlexists('$d//lineitem[@price > 20]' passing orddoc as "d")`)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := sqlStmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() == 0 {
		t.Fatal("prepared SQL returned no rows")
	}

	if _, err := db.PrepareXQuery(`for $x in`); err == nil {
		t.Fatal("PrepareXQuery must surface parse errors")
	}
	if _, err := db.Prepare(`SELEC nope`); err == nil {
		t.Fatal("Prepare must surface parse errors")
	}
}

// The §3.1 pitfall as a public-API cache fixture: with only the varchar
// index the numeric predicate is ineligible; CREATE INDEX mid-session must
// invalidate the prepared plan and flip eligibility on the next Exec.
func TestPreparedPlanSeesMidSessionDDL(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	for i := 0; i < 10; i++ {
		db.MustExecSQL(fmt.Sprintf(
			`insert into orders values (%d, '<order><lineitem price="%d"/></order>')`, i, 90+i*5))
	}
	db.MustExecSQL(`create index li_price_str on orders(orddoc) using xmlpattern '//lineitem/@price' as varchar`)

	stmt, err := db.PrepareXQuery(preparedQ1)
	if err != nil {
		t.Fatal(err)
	}
	res1, stats, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IndexesUsed) != 0 {
		t.Fatalf("varchar index must not serve the numeric predicate: %v", stats.IndexesUsed)
	}

	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	res2, stats, err := stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IndexesUsed) == 0 {
		t.Fatal("prepared plan did not replan after CREATE INDEX")
	}
	if fmt.Sprint(res2.Rows()) != fmt.Sprint(res1.Rows()) {
		t.Fatal("eligibility flip changed the result")
	}

	db.MustExecSQL(`drop index li_price`)
	_, stats, err = stmt.Exec()
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IndexesUsed) != 0 {
		t.Fatalf("prepared plan still probing a dropped index: %v", stats.IndexesUsed)
	}
}

// Prepared executions racing DDL and fresh Prepare calls must be safe
// under -race and must never return wrong results — at worst they replan.
func TestPreparedDDLStress(t *testing.T) {
	db := loadedDB(t, 48)
	const countQ = `select ordid from orders where xmlexists('$d//lineitem[@price > 20]' passing orddoc as "d")`
	want := db.MustExecSQL(countQ).Len()

	stmt, err := db.PrepareXQuery(preparedQ1)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// DDL writer: cycle the double index so prepared plans keep going
	// stale mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 25; i++ {
			db.MustExecSQL(`drop index li_price`)
			db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
		}
	}()

	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				var err error
				switch (r + i) % 3 {
				case 0:
					_, _, err = stmt.Exec()
				case 1:
					_, err = db.PrepareXQuery(preparedQ1)
				default:
					var res *Result
					res, _, err = stmt.ExecOpts(QueryOptions{Parallelism: 4})
					if err == nil && len(res.Rows()) == 0 {
						err = fmt.Errorf("prepared query lost its result mid-DDL")
					}
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()

	if got := db.MustExecSQL(countQ).Len(); got != want {
		t.Fatalf("stress changed the data: count %d -> %d", want, got)
	}
}

// The Parallelism knob must never change results: par=8 output is
// byte-identical to par=1 for XQuery and SQL alike, indexed or not.
func TestParallelismKnobDeterminism(t *testing.T) {
	db := loadedDB(t, 64)
	xqueries := []string{
		preparedQ1,
		`for $d in db2-fn:xmlcolumn("ORDERS.ORDDOC") return <n>{count($d//lineitem)}</n>`,
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//product/id`,
	}
	sqls := []string{
		`select ordid from orders where xmlexists('$d//lineitem[@price > 30]' passing orddoc as "d")`,
		`select ordid, xmlquery('$d//product/id' passing orddoc as "d") from orders`,
		`select ordid from orders where xmlexists('$d//lineitem' passing orddoc as "d") order by ordid desc`,
	}
	for _, useIdx := range []bool{false, true} {
		db.UseIndexes = useIdx
		for _, q := range xqueries {
			serial, _, err := db.QueryXQueryOpts(q, QueryOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			par, _, err := db.QueryXQueryOpts(q, QueryOptions{Parallelism: 8})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if fmt.Sprint(serial.Rows()) != fmt.Sprint(par.Rows()) {
				t.Fatalf("parallel XQuery differs from serial (useIndexes=%v): %s", useIdx, q)
			}
		}
		for _, q := range sqls {
			serial, _, err := db.ExecSQLOpts(q, QueryOptions{Parallelism: 1})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			par, pstats, err := db.ExecSQLOpts(q, QueryOptions{Parallelism: 8})
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if fmt.Sprint(serial.Rows()) != fmt.Sprint(par.Rows()) {
				t.Fatalf("parallel SQL differs from serial (useIndexes=%v): %s", useIdx, q)
			}
			if !useIdx && pstats.ParallelShards < 2 {
				t.Fatalf("SQL scan did not shard (got %d shards): %s", pstats.ParallelShards, q)
			}
		}
	}
}

// fn:position and fn:last in a filter step count across every document
// of the collection, so document shards must not split them: each shape
// answers the same at Parallelism 4 as serially.
func TestParallelPositionalFilterSteps(t *testing.T) {
	db := loadedDB(t, 64)
	for _, q := range []string{
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")/position()`,
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")/order/last()`,
		`for $x in db2-fn:xmlcolumn("ORDERS.ORDDOC")/position() return $x`,
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")/order/lineitem[last()]/@price`,
	} {
		serial, _, err := db.QueryXQueryOpts(q, QueryOptions{Parallelism: 1})
		if err != nil {
			t.Fatalf("%s serial: %v", q, err)
		}
		par, _, err := db.QueryXQueryOpts(q, QueryOptions{Parallelism: 4})
		if err != nil {
			t.Fatalf("%s parallel: %v", q, err)
		}
		if got, want := fmt.Sprint(par.Rows()), fmt.Sprint(serial.Rows()); got != want {
			t.Errorf("%s: Parallelism 4 gives %.80s…, serial %.80s…", q, got, want)
		}
	}
	first, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")/position()`, QueryOptions{Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	if first.Len() != 64 || first.Cell(63, 0) != "64" {
		t.Fatalf("/position() over 64 documents: %d items, last %q; want 1..64", first.Len(), first.Cell(first.Len()-1, 0))
	}
}

// Cancellation must reach the parallel workers through the shared guard.
func TestParallelCancellation(t *testing.T) {
	db := loadedDB(t, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := db.QueryXQueryOpts(heavyQuery, QueryOptions{Context: ctx, Parallelism: 8})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrCanceled {
		t.Fatalf("parallel XQuery: got %v, want canceled QueryError", err)
	}
	_, _, err = db.ExecSQLOpts(
		`select ordid from orders where xmlexists('$d//deepest' passing orddoc as "d")`,
		QueryOptions{Context: ctx, Parallelism: 8})
	if !errors.As(err, &qe) || qe.Kind != ErrCanceled {
		t.Fatalf("parallel SQL: got %v, want canceled QueryError", err)
	}
}
