package engine

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

// TestPrefilterOverNonMonotoneRowIDs: after ReserveIDs + Insert +
// BulkAppend + Delete have made row order disagree with both row-id order
// and document (TreeID) order, the by-ID pre-filtered XQuery and SQL
// paths still return exactly what the unindexed scan returns, byte for
// byte, serially and sharded.
func TestPrefilterOverNonMonotoneRowIDs(t *testing.T) {
	e := New()
	if _, _, err := e.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	createLiPrice(t, e)
	tab, err := e.Catalog.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	for round := 0; round < 4; round++ {
		// The load's ids are reserved and its documents parsed first...
		first := tab.ReserveIDs(60)
		rows := make([]storage.Row, 60)
		for i := range rows {
			doc, err := xmlparse.Parse(fmt.Sprintf(`<order><lineitem price="%d"/></order>`, 50+k%100))
			if err != nil {
				t.Fatal(err)
			}
			rows[i] = storage.Row{ID: first + uint32(i), Cells: []storage.Cell{{V: xdm.NewInteger(int64(k))}, {Doc: doc}}}
			k++
		}
		// ...then qualifying Inserts take later ids and TreeIDs but land
		// in earlier rows.
		for i := 0; i < 5; i++ {
			sql := fmt.Sprintf(`insert into orders values (%d, '<order><lineitem price="%d"/></order>')`, k, 150+k)
			if _, _, err := e.ExecSQLOpts(sql, ExecOptions{}); err != nil {
				t.Fatal(err)
			}
			k++
		}
		if err := tab.BulkAppend(rows, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		for _, ord := range []int{k - 3, k - 40, k - 62} {
			if _, _, err := e.ExecSQLOpts(fmt.Sprintf(`delete from orders where ordid = %d`, ord), ExecOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	for _, q := range []string{
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 120]`,
		// Iteration follows the collection's row order, not document order.
		`for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') where $d//lineitem/@price > 120 return $d//lineitem`,
	} {
		_, istats := assertEquivalentXQ(t, e, q)
		if len(istats.IndexesUsed) == 0 || istats.DocsScanned >= istats.DocsTotal {
			t.Fatalf("XQuery not pre-filtered: %s: %s", q, istats.Summary())
		}
	}
	for _, par := range []int{1, 4} {
		fstats, istats := assertEquivalentSQLOpts(t, e, `SELECT ordid, orddoc FROM orders
			WHERE XMLExists('$o//lineitem[@price > 120]' passing orddoc as "o")`, ExecOptions{Parallelism: par})
		if len(istats.IndexesUsed) == 0 || istats.RowsScanned >= fstats.RowsScanned {
			t.Fatalf("SQL not pre-filtered (par=%d): %s", par, istats.Summary())
		}
	}
}

// selectiveTable builds an engine whose orders table has n rows, of which
// exactly five carry a lineitem price above 500, with li_price indexed.
// It returns the engine and the ids of the five rows.
func selectiveTable(t *testing.T, n int) (*Engine, postings.List) {
	t.Helper()
	e := New()
	if _, _, err := e.ExecSQLOpts(`create table orders (ordid integer, orddoc XML)`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	tab, err := e.Catalog.Table("orders")
	if err != nil {
		t.Fatal(err)
	}
	var hits postings.List
	for i := 0; i < n; i++ {
		price := i % 100
		if i%(n/5) == 0 {
			price = 1000
		}
		id, err := tab.Insert([]storage.Cell{
			{V: xdm.NewInteger(int64(i))},
			{V: xdm.NewString(fmt.Sprintf(`<order><lineitem price="%d"/></order>`, price))},
		})
		if err != nil {
			t.Fatal(err)
		}
		if price == 1000 {
			hits = append(hits, id)
		}
	}
	createLiPrice(t, e)
	return e, hits
}

// cost is one call's allocation count, bytes allocated and fastest
// time, after a warm-up call has filled the caches.
type cost struct {
	allocs float64
	bytes  uint64
	ns     int64
}

func perCall(f func()) cost {
	f()
	c := cost{allocs: testing.AllocsPerRun(20, f)}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 20
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	c.bytes = (after.TotalAlloc - before.TotalAlloc) / runs
	// The fastest of several batches filters scheduler noise out of the
	// time. Only the CollectionFiltered check reads it: a row scan there
	// allocates nothing, so only time would show one.
	for b := 0; b < 15; b++ {
		start := time.Now()
		for i := 0; i < 50; i++ {
			f()
		}
		if ns := time.Since(start).Nanoseconds() / 50; c.ns == 0 || ns < c.ns {
			c.ns = ns
		}
	}
	return c
}

// TestSelectiveReadCostIndependentOfTableSize guards against a returning
// O(table) term on the pre-filtered read path: a read that keeps five
// rows must allocate the same whether the table has 1 000 or 10 000
// rows, within a small constant, and CollectionFiltered must not take
// longer either.
func TestSelectiveReadCostIndependentOfTableSize(t *testing.T) {
	const xq = `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 500]`
	const sql = `SELECT ordid FROM orders WHERE XMLExists('$o//lineitem[@price > 500]' passing orddoc as "o")`
	measure := func(n int) map[string]cost {
		e, hits := selectiveTable(t, n)
		o := ExecOptions{UseIndexes: true, Parallelism: 1}
		return map[string]cost{
			"CollectionFiltered": perCall(func() {
				docs, err := e.Catalog.CollectionFiltered("ORDERS.ORDDOC", hits)
				if err != nil || len(docs) != 5 {
					t.Fatalf("CollectionFiltered: %d docs, %v", len(docs), err)
				}
			}),
			"xquery": perCall(func() {
				seq, _, err := e.ExecXQueryOpts(xq, o)
				if err != nil || len(seq) != 5 {
					t.Fatalf("xquery: %d items, %v", len(seq), err)
				}
			}),
			"sql": perCall(func() {
				res, _, err := e.ExecSQLOpts(sql, o)
				if err != nil || len(res.Rows) != 5 {
					t.Fatalf("sql: %v", err)
				}
			}),
		}
	}
	small, large := measure(1000), measure(10000)
	for _, name := range []string{"CollectionFiltered", "xquery", "sql"} {
		s, l := small[name], large[name]
		t.Logf("%s: 1k rows %.0f allocs / %d B / %d ns, 10k rows %.0f allocs / %d B / %d ns",
			name, s.allocs, s.bytes, s.ns, l.allocs, l.bytes, l.ns)
		if l.allocs > s.allocs+4 || l.bytes > s.bytes+1024 {
			t.Errorf("%s allocates with table size: 1k rows %.0f allocs / %d B, 10k rows %.0f allocs / %d B",
				name, s.allocs, s.bytes, l.allocs, l.bytes)
		}
	}
	// A row scan is 10x slower on the 10x table; by-ID access is flat.
	if s, l := small["CollectionFiltered"], large["CollectionFiltered"]; l.ns > 4*s.ns+1000 {
		t.Errorf("CollectionFiltered time grows with table size: %d ns at 1k rows, %d ns at 10k rows", s.ns, l.ns)
	}
}
