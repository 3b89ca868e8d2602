package xqdb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"github.com/xqdb/xqdb/internal/guard"
)

// loadedDB builds a database with n order documents, each carrying several
// lineitems, plus a price index — the //-heavy workload the guardrail
// acceptance criterion runs against.
func loadedDB(t testing.TB, n int) *DB {
	t.Helper()
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	for i := 0; i < n; i++ {
		var b strings.Builder
		b.WriteString("<order>")
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&b, `<lineitem price="%d"><product><id>P%d</id><deep><deeper><deepest>x</deepest></deeper></deep></product></lineitem>`, (i+j)%200, j)
		}
		b.WriteString("</order>")
		db.MustExecSQL(fmt.Sprintf(`insert into orders values (%d, '%s')`, i, b.String()))
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	return db
}

const heavyQuery = `for $d in db2-fn:xmlcolumn("ORDERS.ORDDOC")
	for $l in $d//lineitem
	where some $x in $d//deepest satisfies $l/@price >= 0
	return $l/product/id`

func TestTimeoutReturnsQueryError(t *testing.T) {
	db := loadedDB(t, 300)
	start := time.Now()
	_, _, err := db.QueryXQueryOpts(heavyQuery, QueryOptions{Timeout: time.Millisecond})
	elapsed := time.Since(start)
	var qe *QueryError
	if !errors.As(err, &qe) {
		t.Fatalf("want *QueryError, got %v", err)
	}
	if qe.Kind != ErrTimeout {
		t.Fatalf("kind = %s, want timeout", qe.Kind)
	}
	if !strings.Contains(qe.Query, "lineitem") {
		t.Fatalf("QueryError should carry the query text, got %q", qe.Query)
	}
	// "Promptly": far below the unguarded runtime; generous bound for CI.
	if elapsed > 2*time.Second {
		t.Fatalf("1ms timeout took %v to fire", elapsed)
	}
	// The DB is not corrupted: the same query without limits still works.
	res, _, err := db.QueryXQuery(heavyQuery)
	if err != nil {
		t.Fatalf("query after timeout: %v", err)
	}
	if res.Len() == 0 {
		t.Fatal("query after timeout returned no rows")
	}
}

func TestCancellation(t *testing.T) {
	db := loadedDB(t, 200)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: the guard must notice before any work
	_, _, err := db.QueryXQueryOpts(heavyQuery, QueryOptions{Context: ctx})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrCanceled {
		t.Fatalf("want canceled QueryError, got %v", err)
	}
}

// TestCancelMidQueryThenVerify is the cancellation property test: cancel
// mid-query at random points, then verify the DB still answers correctly
// (filtered and unfiltered runs agree).
func TestCancelMidQueryThenVerify(t *testing.T) {
	db := loadedDB(t, 150)
	for _, delay := range []time.Duration{0, 50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		go func() {
			time.Sleep(delay)
			cancel()
			close(done)
		}()
		_, _, err := db.QueryXQueryOpts(heavyQuery, QueryOptions{Context: ctx})
		<-done
		if err != nil {
			var qe *QueryError
			if !errors.As(err, &qe) {
				t.Fatalf("delay %v: non-QueryError failure %v", delay, err)
			}
			if qe.Kind != ErrCanceled && qe.Kind != ErrTimeout {
				t.Fatalf("delay %v: kind = %s", delay, qe.Kind)
			}
		}
	}
	assertFilteredAgrees(t, db)
}

// assertFilteredAgrees runs the reference query with and without index
// pre-filtering and requires identical results — the consistency check
// chaos and cancellation tests rely on.
func assertFilteredAgrees(t *testing.T, db *DB) {
	t.Helper()
	q := `db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]`
	db.UseIndexes = true
	withIdx, stats, err := db.QueryXQuery(q)
	if err != nil {
		t.Fatalf("indexed run: %v", err)
	}
	if len(stats.IndexesUsed) == 0 {
		t.Fatal("indexed run used no index")
	}
	db.UseIndexes = false
	without, _, err := db.QueryXQuery(q)
	db.UseIndexes = true
	if err != nil {
		t.Fatalf("full-scan run: %v", err)
	}
	a, b := withIdx.Rows(), without.Rows()
	if len(a) != len(b) {
		t.Fatalf("filtered %d rows vs unfiltered %d rows", len(a), len(b))
	}
	for i := range a {
		if a[i][0] != b[i][0] {
			t.Fatalf("row %d: filtered %q vs unfiltered %q", i, a[i][0], b[i][0])
		}
	}
}

func TestMaxResultItems(t *testing.T) {
	db := loadedDB(t, 50)
	_, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem`, QueryOptions{MaxResultItems: 10})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
		t.Fatalf("want limit QueryError, got %v", err)
	}
	// SQL result rows are capped too.
	_, _, err = db.ExecSQLOpts(`select ordid from orders`, QueryOptions{MaxResultItems: 10})
	if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
		t.Fatalf("want limit QueryError for SQL, got %v", err)
	}
	// Within the limit both succeed.
	if _, _, err := db.ExecSQLOpts(`select ordid from orders`, QueryOptions{MaxResultItems: 100}); err != nil {
		t.Fatalf("within limit: %v", err)
	}
}

func TestMaxEvalSteps(t *testing.T) {
	db := Open()
	_, _, err := db.QueryXQueryOpts(`count(1 to 10000000)`, QueryOptions{MaxEvalSteps: 1000})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
		t.Fatalf("want limit QueryError, got %v", err)
	}
	// The same query bounded generously completes.
	if _, _, err := db.QueryXQueryOpts(`count(1 to 100)`, QueryOptions{MaxEvalSteps: 100000}); err != nil {
		t.Fatalf("generous bound: %v", err)
	}
}

// TestMaxEvalStepsQ16HashJoin pins the step cost of a Query 16-shaped
// join: the hash join spends O(outer + inner + candidates) steps, so a
// budget the row-pair nested loop exceeds now suffices — with indexes on
// and off alike.
func TestMaxEvalStepsQ16HashJoin(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`create table customer (cid integer, cdoc xml)`)
	for i := 0; i < 200; i++ {
		db.MustExecSQL(fmt.Sprintf(`insert into orders values (%d, '<order><custid>%d</custid></order>')`, i, i%20))
	}
	for i := 0; i < 20; i++ {
		db.MustExecSQL(fmt.Sprintf(`insert into customer values (%d, '<customer><id>%d</id></customer>')`, i, i))
	}
	db.MustExecSQL(`create index o_custid on orders(orddoc) using xmlpattern '/order/custid' as double`)
	const q16 = `SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`
	// The same join with a second predicate the hash-join recognizer
	// rejects: it runs as the nested loop.
	nested := strings.Replace(q16, `xs:double(.)]'`, `xs:double(.)][1]'`, 1)
	opts := QueryOptions{MaxEvalSteps: 20000}
	for _, useIndexes := range []bool{true, false} {
		db.UseIndexes = useIndexes
		res, _, err := db.ExecSQLOpts(q16, opts)
		if err != nil || res.Len() != 200 {
			t.Fatalf("indexes=%v: hash join within %d steps: err=%v", useIndexes, opts.MaxEvalSteps, err)
		}
		_, _, err = db.ExecSQLOpts(nested, opts)
		var qe *QueryError
		if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
			t.Fatalf("indexes=%v: nested loop within %d steps: want a limit QueryError, got %v", useIndexes, opts.MaxEvalSteps, err)
		}
	}
}

// TestMaxEvalStepsDescendantStep pins the step cost of a fused `//x[cmp]`
// step: one guard step per context node instead of a child step per node
// of the document, so a budget that the two-step evaluation exceeds
// (about 5 500 steps here) now suffices, with indexes on and off alike.
func TestMaxEvalStepsDescendantStep(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table t (id integer, doc xml)`)
	for i := 0; i < 20; i++ {
		var b strings.Builder
		b.WriteString("<r>")
		for j := 0; j < 30; j++ {
			fmt.Fprintf(&b, `<g><h><k>text</k></h><item p="%d"/></g>`, j)
		}
		b.WriteString("</r>")
		db.MustExecSQL(fmt.Sprintf(`insert into t values (%d, '%s')`, i, b.String()))
	}
	db.MustExecSQL(`create index t_p on t(doc) using xmlpattern '//item/@p' as double`)
	const q = `db2-fn:xmlcolumn("T.DOC")//item[@p > 5]`
	opts := QueryOptions{MaxEvalSteps: 4000}
	for _, useIndexes := range []bool{true, false} {
		db.UseIndexes = useIndexes
		res, _, err := db.QueryXQueryOpts(q, opts)
		if err != nil || res.Len() != 20*24 {
			t.Fatalf("indexes=%v: fused // step within %d steps: err=%v", useIndexes, opts.MaxEvalSteps, err)
		}
	}
}

func TestParseLimits(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table t (a integer)`)
	db.MustExecSQL(`insert into t values (1)`)
	deep := strings.Repeat("<a>", 100) + "x" + strings.Repeat("</a>", 100)
	_, _, err := db.ExecSQLOpts(fmt.Sprintf(`select xmlparse(document '%s') from t`, deep), QueryOptions{MaxParseDepth: 10})
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
		t.Fatalf("want limit QueryError for deep XMLPARSE, got %v", err)
	}
	_, _, err = db.ExecSQLOpts(`select xmlparse(document '<a><b/></a>') from t`, QueryOptions{MaxParseDepth: 10})
	if err != nil {
		t.Fatalf("shallow document rejected: %v", err)
	}
	_, _, err = db.ExecSQLOpts(`select xmlparse(document '<a>big</a>') from t`, QueryOptions{MaxDocBytes: 4})
	if !errors.As(err, &qe) || qe.Kind != ErrLimitExceeded {
		t.Fatalf("want limit QueryError for oversized document, got %v", err)
	}
}

// TestPanicContainment injects a panic at a storage fault point and
// checks it surfaces as QueryError{Kind: Internal} instead of crashing.
func TestPanicContainment(t *testing.T) {
	defer guard.SetFaultHook(nil)
	db := loadedDB(t, 5)
	guard.SetFaultHook(func(site string) error {
		if strings.HasPrefix(site, "storage.collection:") {
			panic("injected evaluator panic")
		}
		return nil
	})
	_, _, err := db.QueryXQuery(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem`)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrInternal {
		t.Fatalf("want internal QueryError, got %v", err)
	}
	if !strings.Contains(qe.Error(), "panic") {
		t.Fatalf("error should mention the panic: %v", qe)
	}
	guard.SetFaultHook(nil)
	// The DB survives: queries and writes keep working.
	if _, _, err := db.QueryXQuery(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]`); err != nil {
		t.Fatalf("query after contained panic: %v", err)
	}
	db.MustExecSQL(`insert into orders values (999, '<order><lineitem price="150"/></order>')`)
	assertFilteredAgrees(t, db)
}

// TestPanicContainmentInProbe panics inside an index probe. Probes run on
// the query goroutine, so the query boundary contains the panic; the
// probe's locks must be released on the way out, or the insert below
// would block.
func TestPanicContainmentInProbe(t *testing.T) {
	defer guard.SetFaultHook(nil)
	db := loadedDB(t, 5)
	guard.SetFaultHook(func(site string) error {
		if strings.HasPrefix(site, "xmlindex.scan:") {
			panic("injected probe panic")
		}
		return nil
	})
	_, _, err := db.QueryXQuery(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]`)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrInternal || !strings.Contains(qe.Error(), "injected probe panic") {
		t.Fatalf("want an internal QueryError naming the panic, got %v", err)
	}
	guard.SetFaultHook(nil)
	db.MustExecSQL(`insert into orders values (999, '<order><lineitem price="150"/></order>')`)
	assertFilteredAgrees(t, db)
}

// TestPanicContainmentInRowShards panics inside a SQL row shard, off the
// query goroutine, where the query boundary's recover cannot reach: the
// panic must still surface as QueryError{Kind: Internal}, and the DB must
// keep answering.
func TestPanicContainmentInRowShards(t *testing.T) {
	defer guard.SetFaultHook(nil)
	db := loadedDB(t, 64)
	db.MustExecSQL(`create table customer (cid integer, cdoc xml)`)
	db.MustExecSQL(`insert into customer values (1, '<customer><id>P3</id></customer>')`)
	const q = `select ordid from orders where xmlexists('db2-fn:xmlcolumn("CUSTOMER.CDOC")/customer[id = $d//product/id]' passing orddoc as "d")`
	opts := QueryOptions{Parallelism: 4}
	res, stats, err := db.ExecSQLOpts(q, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 64 || stats.ParallelShards != 4 {
		t.Fatalf("unfaulted run: %d rows over %d shards; want 64 rows over 4", res.Len(), stats.ParallelShards)
	}
	guard.SetFaultHook(func(site string) error {
		if site == "storage.collection:customer.cdoc" {
			panic("injected row-shard panic")
		}
		return nil
	})
	_, _, err = db.ExecSQLOpts(q, opts)
	var qe *QueryError
	if !errors.As(err, &qe) || qe.Kind != ErrInternal || !strings.Contains(qe.Error(), "panic") {
		t.Fatalf("want an internal QueryError naming the panic, got %v", err)
	}
	guard.SetFaultHook(nil)
	if res, _, err := db.ExecSQLOpts(q, opts); err != nil || res.Len() != 64 {
		t.Fatalf("query after contained panic: %v", err)
	}
}

func TestZeroOptionsBehaveLikePlainCalls(t *testing.T) {
	db := loadedDB(t, 10)
	a, _, err := db.QueryXQuery(heavyQuery)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := db.QueryXQueryOpts(heavyQuery, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() {
		t.Fatalf("plain %d rows vs zero-options %d rows", a.Len(), b.Len())
	}
}

func TestQueryErrorFormatting(t *testing.T) {
	qe := &QueryError{Kind: ErrTimeout, Query: "//a", Err: &guard.Violation{Kind: guard.Timeout, Msg: "deadline"}}
	if !strings.Contains(qe.Error(), "timeout") || !strings.Contains(qe.Error(), "//a") {
		t.Fatalf("Error() = %q", qe.Error())
	}
	if qe.Unwrap() == nil {
		t.Fatal("Unwrap lost the cause")
	}
	if ErrorKind(99).String() != "unknown" {
		t.Fatal("out-of-range kind should print unknown")
	}
}

// TestCanceledBeatsTimeoutDeterministically pins the public half of the
// guard's tie-break contract: a query submitted with a canceled context
// AND an already-expired wall-clock timeout must always classify as
// ErrCanceled — the client hung up, and misreporting that as ErrTimeout
// would send the server layer down the wrong status-code path.
func TestCanceledBeatsTimeoutDeterministically(t *testing.T) {
	db := loadedDB(t, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 50; i++ {
		_, _, err := db.QueryXQueryOpts(heavyQuery, QueryOptions{
			Context: ctx,
			Timeout: time.Nanosecond,
		})
		var qe *QueryError
		if !errors.As(err, &qe) {
			t.Fatalf("run %d: want *QueryError, got %v", i, err)
		}
		if qe.Kind != ErrCanceled {
			t.Fatalf("run %d: Kind = %v, want ErrCanceled", i, qe.Kind)
		}
	}
}
