package xqdb

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
)

// TestPrefilteredQueryFiresCollectionFault: a fault injected at a
// column's storage.collection site fails a pre-filtered query with that
// error, exactly as it fails an unfiltered one — the pre-filtered
// accessor is not a way around the fault hooks.
func TestPrefilteredQueryFiresCollectionFault(t *testing.T) {
	defer guard.SetFaultHook(nil)
	const q = `db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]`
	db := loadedDB(t, 120)
	_, stats, err := db.QueryXQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IndexesUsed) == 0 || stats.DocsScanned >= stats.DocsTotal {
		t.Fatalf("query is not pre-filtered: %s", stats.Summary())
	}
	boom := errors.New("injected collection fault")
	guard.SetFaultHook(func(site string) error {
		if site == "storage.collection:orders.orddoc" {
			return boom
		}
		return nil
	})
	for _, useIdx := range []bool{true, false} {
		db.UseIndexes = useIdx
		if _, _, err := db.QueryXQuery(q); !errors.Is(err, boom) {
			t.Fatalf("UseIndexes=%v: err = %v, want the injected fault", useIdx, err)
		}
	}
}

// TestMaxEvalStepsCountsRowsVisited pins what a SQL guard step is: one
// row visited. A selective pre-filtered SELECT visits only the rows the
// index admits, so a step budget far below the table size suffices; the
// same statement as a full scan visits every row and trips the limit.
func TestMaxEvalStepsCountsRowsVisited(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	const rows, batch = 10000, 500
	for lo := 0; lo < rows; lo += batch {
		var b strings.Builder
		b.WriteString(`insert into orders values `)
		for i := lo; i < lo+batch; i++ {
			price := i % 100
			if i%(rows/5) == 0 {
				price = 1000
			}
			if i > lo {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, `(%d, '<order><lineitem price="%d"/></order>')`, i, price)
		}
		db.MustExecSQL(b.String())
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	const q = `select ordid from orders where XMLExists('$o//lineitem[@price > 500]' passing orddoc as "o")`
	opts := QueryOptions{MaxEvalSteps: 100}

	res, stats, err := db.ExecSQLOpts(q, opts)
	if err != nil {
		t.Fatalf("pre-filtered SELECT under a 100-step budget: %v", err)
	}
	if res.Len() != 5 || stats.RowsScanned != 5 {
		t.Fatalf("got %d rows from %d scanned, want 5 from 5", res.Len(), stats.RowsScanned)
	}

	db.UseIndexes = false
	_, _, err = db.ExecSQLOpts(q, opts)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
		t.Fatalf("full scan under a 100-step budget: err = %v, want ErrLimitExceeded", err)
	}
}
