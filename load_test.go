package xqdb

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/workload"
)

// writeOrdersDir materializes a generated orders corpus as .xml files.
func writeOrdersDir(t testing.TB, n int) string {
	t.Helper()
	dir := t.TempDir()
	for i, doc := range workload.Orders(workload.DefaultOrders(n)) {
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("order-%05d.xml", i)), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// atLeastProcs raises GOMAXPROCS to procs for the rest of the test, so
// its loads run that many shards on any host: a load of at least
// guard.ShardFloor files shards at GOMAXPROCS.
func atLeastProcs(t *testing.T, procs int) {
	if old := runtime.GOMAXPROCS(0); old < procs {
		runtime.GOMAXPROCS(procs)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// loadQueries is the probe battery the equivalence tests run on both
// sides: indexed range probes, structural navigation, and aggregation.
var loadQueries = []string{
	`db2-fn:xmlcolumn("ORDERS.DOC")//lineitem[@price > 100]`,
	`db2-fn:xmlcolumn("ORDERS.DOC")//lineitem[@price = 16.34]`,
	`db2-fn:xmlcolumn("ORDERS.DOC")/order/custid`,
	`count(db2-fn:xmlcolumn("ORDERS.DOC")//lineitem)`,
}

// TestBulkLoadQueryEquivalence is the acceptance property test: every
// query over a bulk-loaded database returns results byte-identical to
// the same corpus loaded through per-row InsertValidated.
func TestBulkLoadQueryEquivalence(t *testing.T) {
	const n = 80
	dir := writeOrdersDir(t, n)

	setup := func(db *DB) {
		db.MustExecSQL(`create table orders (id integer, doc xml)`)
		db.MustExecSQL(`create index li_price on orders(doc) using xmlpattern '//lineitem/@price' as double`)
		db.MustExecSQL(`create index custid on orders(doc) using xmlpattern '/order/custid' as varchar`)
	}

	atLeastProcs(t, 4) // 80 files load in 4 shards
	bulk := Open()
	setup(bulk)
	if got, err := bulk.LoadXMLDir("orders", dir); err != nil || got != n {
		t.Fatalf("bulk load: %d, %v", got, err)
	}

	perRow := Open()
	setup(perRow)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := perRow.InsertValidated("orders", int64(i), string(data), nil); err != nil {
			t.Fatal(err)
		}
	}

	for _, q := range loadQueries {
		want, wstats, err := perRow.QueryXQuery(q)
		if err != nil {
			t.Fatalf("%s (per-row): %v", q, err)
		}
		got, gstats, err := bulk.QueryXQuery(q)
		if err != nil {
			t.Fatalf("%s (bulk): %v", q, err)
		}
		if !reflect.DeepEqual(got.Rows(), want.Rows()) {
			t.Fatalf("%s diverged:\nbulk   %v\nperRow %v", q, got.Rows(), want.Rows())
		}
		// Same plans on both sides: the bulk-built indexes must be just
		// as eligible as incrementally built ones.
		if !reflect.DeepEqual(gstats.IndexesUsed, wstats.IndexesUsed) {
			t.Fatalf("%s used different indexes: bulk %v, perRow %v", q, gstats.IndexesUsed, wstats.IndexesUsed)
		}
	}
}

// TestLoadXMLDirOptsLimitsMidStream: per-file parse limits hold while
// streaming; an oversized file aborts the load, names the file, and
// rolls back completely.
func TestLoadXMLDirOptsLimitsMidStream(t *testing.T) {
	dir := writeOrdersDir(t, 3)
	var big strings.Builder
	big.WriteString("<order>")
	for i := 0; i < 1<<15; i++ {
		big.WriteString("<lineitem price='1'/>")
	}
	big.WriteString("</order>")
	if err := os.WriteFile(filepath.Join(dir, "zz-huge.xml"), []byte(big.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open()
	db.MustExecSQL(`create table orders (id integer, doc xml)`)
	n, err := db.LoadXMLDirOpts("orders", dir, LoadOptions{MaxDocBytes: 4096})
	if err == nil || !strings.Contains(err.Error(), "zz-huge.xml") {
		t.Fatalf("err = %v, want it to name zz-huge.xml", err)
	}
	if n != 0 {
		t.Fatalf("failed load reported %d rows", n)
	}
	if res := db.MustExecSQL(`select id from orders`); res.Len() != 0 {
		t.Fatalf("table has %d rows after rolled-back load", res.Len())
	}
	// The same corpus without the cap loads fine.
	if _, err := db.LoadXMLDirOpts("orders", dir, LoadOptions{}); err != nil {
		t.Fatalf("uncapped load: %v", err)
	}
}

// TestLoadXMLDirOptsCancel: a pre-canceled context aborts atomically.
func TestLoadXMLDirOptsCancel(t *testing.T) {
	dir := writeOrdersDir(t, 10)
	db := Open()
	db.MustExecSQL(`create table orders (id integer, doc xml)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.LoadXMLDirOpts("orders", dir, LoadOptions{Context: ctx}); err == nil {
		t.Fatal("canceled load succeeded")
	}
	if res := db.MustExecSQL(`select id from orders`); res.Len() != 0 {
		t.Fatalf("canceled load left %d rows", res.Len())
	}
}

// TestLoadXMLDirOptsSchema: schema validation runs inside the pipeline;
// annotations land before indexing, and a failing document fails the
// whole load.
func TestLoadXMLDirOptsSchema(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "a.xml"), []byte(`<order><lineitem price="1e2"/></order>`), 0o644); err != nil {
		t.Fatal(err)
	}
	db := Open()
	db.MustExecSQL(`create table orders (id integer, doc xml)`)
	db.MustExecSQL(`create index li_price on orders(doc) using xmlpattern '//lineitem/@price' as double`)
	sch := NewSchema("v1")
	if err := sch.Declare("@price", "double"); err != nil {
		t.Fatal(err)
	}
	if n, err := db.LoadXMLDirOpts("orders", dir, LoadOptions{Schema: sch}); err != nil || n != 1 {
		t.Fatalf("validated load: %d, %v", n, err)
	}
	// The annotation-driven cast indexed the scientific-notation price.
	res, _, err := db.QueryXQuery(`db2-fn:xmlcolumn("ORDERS.DOC")//lineitem[@price = 100]`)
	if err != nil || res.Len() != 1 {
		t.Fatalf("annotated probe: %v rows=%d", err, res.Len())
	}

	bad := NewSchema("v2")
	if err := bad.Declare("custid", "integer"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b.xml"), []byte(`<order><custid>not-a-number</custid></order>`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadXMLDirOpts("orders", dir, LoadOptions{Schema: bad}); err == nil || !strings.Contains(err.Error(), "b.xml") {
		t.Fatalf("invalid doc: err = %v, want it to name b.xml", err)
	}
}

// TestConcurrentLoadAndQueries runs bulk loads against in-flight indexed
// queries (the -race acceptance test): queries must never observe a
// torn state — every result reflects either the pre-load or post-load
// corpus, and no probe errors.
func TestConcurrentLoadAndQueries(t *testing.T) {
	dir := writeOrdersDir(t, 30)
	// Each load of the 30 files runs at least 2 shards.
	atLeastProcs(t, 2)
	defer func(n int) { guard.ShardFloor = n }(guard.ShardFloor)
	guard.ShardFloor = 2
	db := Open()
	db.MustExecSQL(`create table orders (id integer, doc xml)`)
	db.MustExecSQL(`create index li_price on orders(doc) using xmlpattern '//lineitem/@price' as double`)
	// A resident corpus so queries always have rows to chew on.
	if _, err := db.LoadXMLDir("orders", dir); err != nil {
		t.Fatal(err)
	}
	base, _, err := db.QueryXQuery(loadQueries[0])
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for q := 0; q < 3; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := db.QueryXQuery(loadQueries[0])
				if err != nil {
					t.Errorf("query during load: %v", err)
					return
				}
				// Loads only add multiples of the base corpus, so the
				// row count is always a multiple of the base count.
				if base.Len() == 0 || res.Len()%base.Len() != 0 {
					t.Errorf("torn read: %d rows, base %d", res.Len(), base.Len())
					return
				}
			}
		}()
	}
	for i := 0; i < 3; i++ {
		if _, err := db.LoadXMLDir("orders", dir); err != nil {
			t.Fatalf("load %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestInsertValidatedChecksShapeFirst: a wrong-shaped table fails before
// the document is parsed, so even an unparseable document reports the
// table error.
func TestInsertValidatedChecksShapeFirst(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table flat (a integer, b integer)`)
	err := db.InsertValidated("flat", 1, "<not even xml", nil)
	if err == nil || !strings.Contains(err.Error(), "(key, xml) table") {
		t.Fatalf("err = %v, want the table-shape error, not a parse error", err)
	}
}
