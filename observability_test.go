package xqdb

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExplainPitfalls drives one query into each pitfall class the paper
// catalogs and checks that Explain names the rejected index and states
// the rejection reason in the paper's terms — structure, type, or
// context — rather than just declaring the index unused.
func TestExplainPitfalls(t *testing.T) {
	cases := []struct {
		name  string
		index string
		query string
		// wantReasons must all appear in the report, alongside the index
		// name and "not eligible".
		wantReasons []string
	}{
		{
			name:  "type mismatch string vs double",
			index: `create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
			query: `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price = "100"]`,
			wantReasons: []string{
				"type: string comparison cannot use a double index",
			},
		},
		{
			name:  "pattern containment failure",
			index: `create index cust_id on orders(orddoc) using xmlpattern '/order/custid' as double`,
			query: `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`,
			wantReasons: []string{
				"structure: index pattern",
				"does not contain query path",
			},
		},
		{
			name:  "namespace mismatch (Tip 10)",
			index: `create index nation_v on orders(orddoc) using xmlpattern '//nation' as varchar`,
			query: `declare default element namespace "urn:geo";
				db2-fn:xmlcolumn("ORDERS.ORDDOC")/customer[nation = "1"]`,
			wantReasons: []string{
				"namespace mismatch — Tip 10",
			},
		},
		{
			name:  "text() misalignment (Tip 11)",
			index: `create index price_el on orders(orddoc) using xmlpattern '//lineitem/price' as varchar`,
			query: `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/price/text() = "99.50"]`,
			wantReasons: []string{
				"/text() steps are not aligned — Tip 11",
			},
		},
		{
			name:  "attribute axis mismatch (Tip 12)",
			index: `create index li_any on orders(orddoc) using xmlpattern '//lineitem/*' as double`,
			query: `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`,
			wantReasons: []string{
				"reaches no attribute nodes — Tip 12",
			},
		},
		{
			name:  "non-filtering constructor context (Tip 7)",
			index: `create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
			query: `for $ord in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order
				return <result>{$ord/lineitem[@price > 100]}</result>`,
			wantReasons: []string{
				"context:",
				"warning (Tip 7",
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db := Open()
			db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
			db.MustExecSQL(tc.index)
			rep, err := db.Explain(tc.query)
			if err != nil {
				t.Fatal(err)
			}
			idxName := strings.Fields(tc.index)[2]
			if !strings.Contains(rep, "index "+idxName) {
				t.Errorf("report should name the rejected index %s:\n%s", idxName, rep)
			}
			if !strings.Contains(rep, "not eligible") {
				t.Errorf("report should mark the index not eligible:\n%s", rep)
			}
			for _, want := range tc.wantReasons {
				if !strings.Contains(rep, want) {
					t.Errorf("report missing reason %q:\n%s", want, rep)
				}
			}
		})
	}
}

// TestExplainChosenIndex is the positive counterpart: an eligible index
// shows up as chosen, and the summary reports the probe.
func TestExplainChosenIndex(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	rep, err := db.Explain(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"ELIGIBLE (chosen:", "li_price", "probes=1", "cache=bypass", "partitionable: yes"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

// TestExplainSQLStatement runs EXPLAIN as a SQL statement: it must
// return the report as a one-row result without executing the inner
// statement.
func TestExplainSQLStatement(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`insert into orders values (1, '<order><lineitem price="150"/></order>')`)
	res, _, err := db.ExecSQL(`explain select ordid from orders
		where XMLExists('$o//lineitem[@price > 100]' passing orddoc as "o")`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("EXPLAIN result shape: cols=%v rows=%d", res.Columns, res.Len())
	}
	rep := res.Cell(0, 0)
	if !strings.Contains(rep, "plan: language=sql") {
		t.Errorf("EXPLAIN should render the plan report:\n%s", rep)
	}
	// EXPLAIN DDL must not execute the DDL.
	if _, _, err := db.ExecSQL(`explain create table t2 (a integer, d xml)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Prepare(`select a from t2`); err == nil {
		t.Error("EXPLAIN CREATE TABLE must not create the table")
	}
	// Nested EXPLAIN is a parse error.
	if _, _, err := db.ExecSQL(`explain explain select ordid from orders`); err == nil ||
		!strings.Contains(err.Error(), "EXPLAIN cannot be nested") {
		t.Errorf("nested EXPLAIN: %v", err)
	}
}

// TestStmtExplainCache checks the prepared path's cache line: Prepare
// warms the cache (hit), a schema change invalidates it (miss), and the
// explain itself re-warms it (hit).
func TestStmtExplainCache(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	stmt, err := db.Prepare(`select ordid from orders`)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := stmt.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "cache=hit") {
		t.Errorf("after Prepare the plan should be cached:\n%s", rep)
	}
	db.MustExecSQL(`create table other (a integer, d xml)`)
	if rep, _ = stmt.Explain(); !strings.Contains(rep, "cache=miss") {
		t.Errorf("schema change should invalidate the cached plan:\n%s", rep)
	}
	if rep, _ = stmt.Explain(); !strings.Contains(rep, "cache=hit") {
		t.Errorf("explain should have re-cached the plan:\n%s", rep)
	}
}

// TestTraceSpans checks the opt-in span trace on both languages, and
// that untraced queries carry no trace.
func TestTraceSpans(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`insert into orders values (1, '<order><lineitem price="150"/></order>')`)
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)

	_, stats, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`,
		QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace == nil {
		t.Fatal("Trace requested but Stats.Trace is nil")
	}
	names := map[string]bool{}
	for _, s := range stats.Trace.Spans {
		names[s.Name] = true
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
	}
	for _, want := range []string{"plan", "probe", "eval"} {
		if !names[want] {
			t.Errorf("XQuery trace missing %q span; spans=%v", want, names)
		}
	}
	if rendered := stats.Trace.Render(); !strings.Contains(rendered, "probe") {
		t.Errorf("Render output:\n%s", rendered)
	}

	_, stats, err = db.ExecSQLOpts(`select ordid from orders`, QueryOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	names = map[string]bool{}
	for _, s := range stats.Trace.Spans {
		names[s.Name] = true
	}
	if !names["plan"] || !names["scan"] {
		t.Errorf("SQL trace missing plan/scan spans; spans=%v", names)
	}

	if _, stats, err = db.ExecSQL(`select ordid from orders`); err != nil {
		t.Fatal(err)
	} else if stats.Trace != nil {
		t.Error("untraced query should carry no trace")
	}
}

// TestProbeSpansInPlanOrder runs a two-probe query under Trace: probes
// run one at a time in plan order, so their spans follow IndexesUsed and
// never overlap — overlapping spans would be counted twice against the
// query's wall clock.
func TestProbeSpansInPlanOrder(t *testing.T) {
	db := loadedDB(t, 64)
	db.MustExecSQL(`create index prod_id on orders(orddoc) using xmlpattern '//lineitem/product/id' as varchar`)
	for i := 0; i < 20; i++ {
		q := fmt.Sprintf(`for $i in db2-fn:xmlcolumn("ORDERS.ORDDOC")/order/lineitem where $i/product/id/data(.) = 'P%d' and $i/@price > %d return $i/@quantity`, i%8, i)
		_, stats, err := db.QueryXQueryOpts(q, QueryOptions{Trace: true, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		probes := stats.Trace.Spans[:0:0]
		for _, s := range stats.Trace.Spans {
			if s.Name == "probe" {
				probes = append(probes, s)
			}
		}
		if len(probes) != 2 || len(stats.IndexesUsed) != 2 {
			t.Fatalf("%s: %d probe spans, indexes %v; want two probes", q, len(probes), stats.IndexesUsed)
		}
		for k, s := range probes {
			if !strings.HasPrefix(s.Note, stats.IndexesUsed[k]+":") {
				t.Fatalf("probe span %d is %q; want plan order %v", k, s.Note, stats.IndexesUsed)
			}
		}
		if end := probes[0].Start + probes[0].Dur; probes[1].Start < end {
			t.Fatalf("probe spans overlap: %+v ends at %v, %+v starts at %v", probes[0], end, probes[1], probes[1].Start)
		}
	}
}

// TestSlowQueryHook: a threshold of 1ns marks every query slow, firing
// the callback (with forced tracing) and the queries.slow counter.
func TestSlowQueryHook(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`insert into orders values (1, '<order/>')`)
	var got []SlowQuery
	opts := QueryOptions{
		SlowThreshold: time.Nanosecond,
		OnSlow:        func(sq SlowQuery) { got = append(got, sq) },
	}
	if _, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")/order`, opts); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("OnSlow calls = %d", len(got))
	}
	sq := got[0]
	if sq.Language != "xquery" || sq.Duration <= 0 || sq.Err != nil {
		t.Errorf("slow query record: %+v", sq)
	}
	if sq.Stats == nil || sq.Stats.Trace == nil {
		t.Error("OnSlow should force tracing so the report shows where time went")
	}
	if n := db.MetricsSnapshot().Counters["queries.slow"]; n != 1 {
		t.Errorf("queries.slow = %d", n)
	}
	// A failing query still fires the hook, with the pre-wrapping error.
	if _, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("MISSING.D")/x`, opts); err == nil {
		t.Fatal("query on missing collection should fail")
	}
	if len(got) != 2 || got[1].Err == nil {
		t.Fatalf("failing slow query should fire the hook with its error: %+v", got)
	}
}

// TestSlowQueryHookParallelExecution pins the hook contract under
// document-at-a-time parallelism: one query fanned across workers fires
// OnSlow exactly once, with stats merged from every shard — not once per
// worker, and not a partial shard's view. The concurrent half runs many
// such queries at once so -race can see the callback and stat-merge
// paths contending.
func TestSlowQueryHookParallelExecution(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	// Enough documents to clear guard.ShardFloor, the sharding
	// floor, so Parallelism actually fans out.
	const docs = 64
	for i := 0; i < docs; i++ {
		db.MustExecSQL(fmt.Sprintf(
			`insert into orders values (%d, '<order><lineitem price="%d"/></order>')`, i, 100+i))
	}

	var (
		mu  sync.Mutex
		got []SlowQuery
	)
	opts := QueryOptions{
		Parallelism:   4,
		SlowThreshold: time.Nanosecond,
		OnSlow: func(sq SlowQuery) {
			mu.Lock()
			got = append(got, sq)
			mu.Unlock()
		},
	}
	res, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price >= 100]`, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != docs {
		t.Fatalf("results = %d, want %d", res.Len(), docs)
	}
	if len(got) != 1 {
		t.Fatalf("OnSlow fired %d times for one parallel query, want exactly 1", len(got))
	}
	sq := got[0]
	if sq.Stats == nil {
		t.Fatal("slow query carries no stats")
	}
	if sq.Stats.ParallelShards < 2 {
		t.Errorf("ParallelShards = %d; query did not actually fan out", sq.Stats.ParallelShards)
	}
	// Merged stats must account for the whole corpus, not one shard.
	if sq.Stats.DocsScanned != docs {
		t.Errorf("DocsScanned = %d, want %d (stats not merged across shards)", sq.Stats.DocsScanned, docs)
	}

	// Concurrent parallel queries: every one fires once, counter matches.
	base := db.MetricsSnapshot().Counters["queries.slow"]
	const concurrent = 16
	var fired atomic.Int64
	copts := opts
	copts.OnSlow = func(SlowQuery) { fired.Add(1) }
	var wg sync.WaitGroup
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price >= 100]`, copts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if n := fired.Load(); n != concurrent {
		t.Errorf("OnSlow fired %d times for %d concurrent queries", n, concurrent)
	}
	if n := db.MetricsSnapshot().Counters["queries.slow"] - base; n != concurrent {
		t.Errorf("queries.slow advanced by %d, want %d", n, concurrent)
	}
}

// TestMetricsMixedWorkload drives successful, erroring, and guard-tripped
// queries and checks the registry tells them apart.
func TestMetricsMixedWorkload(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`insert into orders values
		(1, '<order><lineitem price="150"/></order>'),
		(2, '<order><lineitem price="50"/></order>')`)
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)

	if _, _, err := db.QueryXQuery(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`); err != nil {
		t.Fatal(err)
	}
	// Guard trip: canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order`, QueryOptions{Context: ctx}); err == nil {
		t.Fatal("canceled query should fail")
	}
	// Guard trip: step limit.
	if _, _, err := db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order`, QueryOptions{MaxEvalSteps: 1}); err == nil {
		t.Fatal("step-limited query should fail")
	}

	snap := db.MetricsSnapshot()
	// queries.total also counts the setup DDL/DML, so only the targeted
	// counters get exact expectations.
	checks := map[string]int64{
		"queries.xquery":       3,
		"queries.errors":       2,
		"guard.trips.canceled": 1,
		"guard.trips.limit":    1,
	}
	if snap.Counters["queries.total"] < 3 {
		t.Errorf("queries.total = %d", snap.Counters["queries.total"])
	}
	for name, want := range checks {
		if snap.Counters[name] != want {
			t.Errorf("%s = %d, want %d", name, snap.Counters[name], want)
		}
	}
	if snap.Counters["xmlindex.probes"] == 0 {
		t.Error("indexed query should count a probe")
	}
	if snap.Histograms["query.latency"].Count == 0 {
		t.Error("latency histogram empty")
	}
	if data, err := db.MetricsJSON(); err != nil || !strings.Contains(string(data), "queries.total") {
		t.Errorf("MetricsJSON: %v\n%s", err, data)
	}
}

// Every index's probe cache holds 128 entries: k probes past that
// evict k, and the entry gauge stays at the size.
func TestProbeCacheEvictsPastDefaultSize(t *testing.T) {
	const size, k = 128, 5
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`insert into orders values (1, '<order><lineitem price="150"/></order>')`)
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	for i := 0; i < size+k; i++ {
		q := fmt.Sprintf(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > %d]`, i)
		if _, _, err := db.QueryXQuery(q); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.MetricsSnapshot()
	if got := snap.Gauges["probecache.entries"]; got != size {
		t.Fatalf("probecache.entries = %d, want the size %d", got, size)
	}
	if got := snap.Counters["probecache.evictions"]; got != k {
		t.Fatalf("probecache.evictions = %d, want %d", got, k)
	}
}

// dropGauges are the gauges an index or a table counts while it exists.
var dropGauges = []string{"xmlindex.entries", "probecache.entries", "synopsis.paths"}

// gaugeValues reads the named gauges (an absent gauge reads 0).
func gaugeValues(db *DB, names []string) []int64 {
	g := db.MetricsSnapshot().Gauges
	out := make([]int64, len(names))
	for i, n := range names {
		out[i] = g[n]
	}
	return out
}

const dropProbe = `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`

// createProbed creates the orders table (unless it exists), the li_price
// index, and warms one probe-cache entry.
func createProbed(t *testing.T, db *DB, table bool) {
	t.Helper()
	if table {
		db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
		db.MustExecSQL(`insert into orders values (1, '<order><lineitem price="150"/></order>')`)
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	if _, _, err := db.QueryXQuery(dropProbe); err != nil {
		t.Fatal(err)
	}
	if got := gaugeValues(db, dropGauges); got[0] != 1 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("after create and probe: %v = %v, want [1 1 3]", dropGauges, got)
	}
}

// DROP INDEX and DROP TABLE take what the dropped index and the table's
// synopsis still count off the gauges.
func TestDropReturnsGauges(t *testing.T) {
	db := Open()
	before := gaugeValues(db, dropGauges)
	createProbed(t, db, true)
	db.MustExecSQL(`drop index li_price`)
	if got := gaugeValues(db, dropGauges[:2]); !slices.Equal(got, before[:2]) {
		t.Fatalf("after DROP INDEX: %v = %v, want %v", dropGauges[:2], got, before[:2])
	}
	createProbed(t, db, false)
	db.MustExecSQL(`drop table orders`)
	if got := gaugeValues(db, dropGauges); !slices.Equal(got, before) {
		t.Fatalf("after DROP TABLE: %v = %v, want %v", dropGauges, got, before)
	}
}

// DROP INDEX and DROP TABLE empty the plan cache: a cached plan left
// there until its key came up again would keep the dropped index, its
// B+Tree and the table reachable.
func TestDropClearsPlanCache(t *testing.T) {
	db := Open()
	createProbed(t, db, true)
	for _, q := range []string{dropProbe, `db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 120]`} {
		stmt, err := db.PrepareXQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := stmt.Exec(); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.MetricsSnapshot().Gauges["plancache.size"]; n != 2 {
		t.Fatalf("plancache.size = %d after two prepared probes, want 2", n)
	}
	db.MustExecSQL(`drop index li_price`)
	db.MustExecSQL(`drop table orders`)
	if n := db.MetricsSnapshot().Gauges["plancache.size"]; n != 0 {
		t.Fatalf("plancache.size = %d after the drops, want 0", n)
	}
}

// A prepared probe loop racing DROP INDEX and DROP TABLE, each probe
// through a plan fetched before the drop, leaves no counted entry.
func TestDropReturnsGaugesUnderProbes(t *testing.T) {
	db := Open()
	before := gaugeValues(db, dropGauges)
	var stmt *Stmt
	race := func(drop string) {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// After DROP TABLE the query fails; that is fine here.
					_, _, _ = stmt.Exec()
				}
			}()
		}
		for range 50 {
			if _, _, err := stmt.Exec(); err != nil {
				t.Error(err)
			}
		}
		db.MustExecSQL(drop)
		for range 50 {
			_, _, _ = stmt.Exec()
		}
		close(stop)
		wg.Wait()
	}
	createProbed(t, db, true)
	stmt, err := db.PrepareXQuery(dropProbe)
	if err != nil {
		t.Fatal(err)
	}
	race(`drop index li_price`)
	if got := gaugeValues(db, dropGauges[:2]); !slices.Equal(got, before[:2]) {
		t.Fatalf("after DROP INDEX: %v = %v, want %v", dropGauges[:2], got, before[:2])
	}
	createProbed(t, db, false)
	race(`drop table orders`)
	if got := gaugeValues(db, dropGauges); !slices.Equal(got, before) {
		t.Fatalf("after DROP TABLE: %v = %v, want %v", dropGauges, got, before)
	}
}

// TestMetricsSnapshotConcurrency hammers the registry from query
// goroutines while snapshotting concurrently; run under -race this
// checks the registry's synchronization discipline.
func TestMetricsSnapshotConcurrency(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	db.MustExecSQL(`insert into orders values (1, '<order><lineitem price="150"/></order>')`)
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	stmt, err := db.PrepareXQuery(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				switch {
				case j%5 == 0:
					ctx, cancel := context.WithCancel(context.Background())
					cancel()
					_, _, _ = db.QueryXQueryOpts(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order`, QueryOptions{Context: ctx})
				case i%2 == 0:
					if _, _, err := stmt.Exec(); err != nil {
						t.Error(err)
					}
				default:
					if _, _, err := db.ExecSQL(`select ordid from orders`); err != nil {
						t.Error(err)
					}
				}
			}
		}(i)
	}
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				snap := db.MetricsSnapshot()
				if snap.Counters == nil {
					t.Error("nil counters in snapshot")
				}
			}
		}()
	}
	wg.Wait()
	snap := db.MetricsSnapshot()
	if snap.Counters["queries.total"] < 100 {
		t.Errorf("queries.total = %d, want >= 100", snap.Counters["queries.total"])
	}
	if snap.Counters["plancache.hits"] == 0 {
		t.Error("prepared executions should hit the plan cache")
	}
	if snap.Counters["guard.trips.canceled"] == 0 {
		t.Error("canceled queries should trip the guard counter")
	}
}
