package engine

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
)

const planQ1 = `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]`

// A prepared plan must notice mid-session DDL: dropping the index it
// probes has to flip the next execution back to a full scan (with
// identical results), and re-creating the index flips it forward again.
func TestPlanCacheInvalidationOnDDL(t *testing.T) {
	e := newPaperDB(t, 30)
	createLiPrice(t, e)
	if err := e.Prepare(planQ1, LangXQuery, true); err != nil {
		t.Fatal(err)
	}
	if n := e.plans.Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after Prepare, want 1", n)
	}

	exec := func() (xdm.Sequence, *Stats) {
		t.Helper()
		seq, stats, err := e.ExecXQueryOpts(planQ1, ExecOptions{UseIndexes: true, Prepared: true})
		if err != nil {
			t.Fatal(err)
		}
		return seq, stats
	}

	indexed, istats := exec()
	if len(istats.IndexesUsed) == 0 {
		t.Fatalf("prepared execution did not use the index: %+v", istats)
	}

	mustSQL(t, e, `drop index li_price`)
	afterDrop, dstats := exec()
	if len(dstats.IndexesUsed) != 0 {
		t.Fatalf("index still used after DROP INDEX: %v", dstats.IndexesUsed)
	}
	if xdm.SerializeSequence(afterDrop) != xdm.SerializeSequence(indexed) {
		t.Fatal("results changed after DROP INDEX invalidated the plan")
	}

	createLiPrice(t, e)
	_, rstats := exec()
	if len(rstats.IndexesUsed) == 0 {
		t.Fatalf("index not used after re-CREATE INDEX: %+v", rstats)
	}
	// Replanning replaces the stale entry in place.
	if n := e.plans.Len(); n != 1 {
		t.Fatalf("plan cache holds %d entries after replan, want 1", n)
	}
}

// The paper's §3.1 pitfall as a cache fixture: with only a varchar index
// the numeric predicate is ineligible; creating the double index must be
// picked up by the already-prepared plan.
func TestPlanCacheEligibilityFlip(t *testing.T) {
	e := newPaperDB(t, 30)
	mustSQL(t, e, `CREATE INDEX li_price_str ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS varchar`)
	if err := e.Prepare(planQ1, LangXQuery, true); err != nil {
		t.Fatal(err)
	}
	_, stats, err := e.ExecXQueryOpts(planQ1, ExecOptions{UseIndexes: true, Prepared: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IndexesUsed) != 0 {
		t.Fatalf("varchar index must not serve a numeric predicate: %v", stats.IndexesUsed)
	}
	createLiPrice(t, e)
	_, stats, err = e.ExecXQueryOpts(planQ1, ExecOptions{UseIndexes: true, Prepared: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.IndexesUsed) == 0 {
		t.Fatal("prepared plan did not pick up the new double index")
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	e := New()
	for i := 0; i < planCacheSize+20; i++ {
		if err := e.Prepare(fmt.Sprintf("%d", i), LangXQuery, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.plans.Len(); n != planCacheSize {
		t.Fatalf("plan cache holds %d entries, want the cap %d", n, planCacheSize)
	}
}

func TestPrepareSurfacesParseErrors(t *testing.T) {
	e := New()
	if err := e.Prepare(`for $x in`, LangXQuery, false); err == nil {
		t.Fatal("Prepare of a malformed query must fail")
	}
	if err := e.Prepare(`SELEC nope`, LangSQL, false); err == nil {
		t.Fatal("Prepare of malformed SQL must fail")
	}
	if n := e.plans.Len(); n != 0 {
		t.Fatalf("failed Prepare cached %d plans", n)
	}
}

// A join table of exactly defaultSemiJoinCap rows still probes one
// value at a time; one more row flips the probe's direction to one
// structural probe over the pattern's paths, and results must be
// unchanged either way. The extra row arrives after the plan is cached:
// a products row changes no path set, so the prepared plan, still a
// semi-join, meets it at execution. EXPLAIN shows the same direction as
// execution on both sides of the cap.
func TestSemiJoinCapBoundary(t *testing.T) {
	q := `SELECT p.name, o.ordid FROM products p, orders o
		WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`
	e := newPaperDB(t, 7)
	mustSQL(t, e, `CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`)
	var b strings.Builder
	b.WriteString(`insert into products values `)
	for i := range defaultSemiJoinCap {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "('%d', 'p%d')", i, i)
	}
	mustSQL(t, e, b.String())
	if err := e.Prepare(q, LangSQL, true); err != nil {
		t.Fatal(err)
	}
	prepared := ExecOptions{Prepared: true}

	// Exactly at the cap.
	_, istats := assertEquivalentSQLOpts(t, e, q, prepared)
	if len(istats.IndexesUsed) == 0 || !strings.Contains(istats.IndexesUsed[0], "semi-join") {
		t.Fatalf("at the cap the semi-join must run: %v", istats.IndexesUsed)
	}
	explainProbe := func() string {
		t.Helper()
		rep, err := e.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(rep, "\n") {
			if strings.HasPrefix(line, "probe ") {
				return line
			}
		}
		t.Fatalf("EXPLAIN shows no probe:\n%s", rep)
		return ""
	}
	if line := explainProbe(); !strings.Contains(line, "semi-join") || !strings.Contains(line, "probe cache: per-value") {
		t.Fatalf("at the cap EXPLAIN must show the semi-join: %s", line)
	}

	// One past the cap, through the same cached plan.
	mustSQL(t, e, fmt.Sprintf(`insert into products values ('%d', 'one more')`, defaultSemiJoinCap))
	_, istats = assertEquivalentSQLOpts(t, e, q, prepared)
	if istats.PlanCache != "hit" {
		t.Fatalf("the insert must leave the prepared plan cached: plan cache %s", istats.PlanCache)
	}
	for _, u := range istats.IndexesUsed {
		if strings.Contains(u, "semi-join") {
			t.Fatalf("past the cap the semi-join must bail: %v", istats.IndexesUsed)
		}
	}
	// The cached plan flips to one structural probe at execution.
	if len(istats.IndexesUsed) == 0 || !strings.Contains(istats.IndexesUsed[0], "structural //lineitem/product/id; direction flipped") {
		t.Fatalf("past the cap the probe must flip direction: %v", istats.IndexesUsed)
	}
	line := explainProbe()
	if !strings.Contains(line, "structural //lineitem/product/id; direction flipped") || strings.Contains(line, "semi-join") {
		t.Fatalf("past the cap EXPLAIN must show the flipped probe: %s", line)
	}
	if !strings.Contains(line, "probe cache: hit") && !strings.Contains(line, "probe cache: cold") {
		t.Fatalf("past the cap EXPLAIN must report the structural probe's cache state: %s", line)
	}
}

// A prepared plan decides its query pattern's paths when it is built. A
// document that brings a new path the pattern matches must still be
// found when the plan runs again, as a full scan finds it.
func TestPreparedPlanSeesNewMatchingPath(t *testing.T) {
	e := newPaperDB(t, 30)
	createLiPrice(t, e)
	if err := e.Prepare(planQ1, LangXQuery, true); err != nil {
		t.Fatal(err)
	}
	run := func(useIndexes bool) (string, *Stats) {
		t.Helper()
		seq, stats, err := e.ExecXQueryOpts(planQ1, ExecOptions{UseIndexes: useIndexes, Prepared: true})
		if err != nil {
			t.Fatal(err)
		}
		return xdm.SerializeSequence(seq), stats
	}
	run(true)
	mustSQL(t, e, `insert into orders values (900, '<batch><order><lineitem price="500"/></order></batch>')`)
	got, stats := run(true)
	want, _ := run(false)
	if len(stats.IndexesUsed) == 0 {
		t.Fatalf("the re-run must use the index: %+v", stats)
	}
	if got != want || !strings.Contains(got, `price="500"`) {
		t.Fatalf("indexed re-run differs from the full scan:\n%s\nwant\n%s", got, want)
	}
}

// Semi-join value gathering walks the whole join table, so it must
// answer to the query's guard: a canceled context aborts the walk with a
// violation instead of completing it (or silently degrading the probe).
// Regression test for the one unguarded row loop xqvet's guardloop
// analyzer found on the query path.
func TestSemiJoinValuesGuarded(t *testing.T) {
	e := newPaperDB(t, 1)
	// Enough distinct rows that the guard's periodic check (every 256
	// steps) fires mid-walk.
	for i := 0; i < 300; i += 10 {
		vals := make([]string, 0, 10)
		for j := i; j < i+10; j++ {
			vals = append(vals, fmt.Sprintf("('%d', 'p%d')", j, j))
		}
		mustSQL(t, e, `insert into products values `+strings.Join(vals, ", "))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := guard.New(ctx, 0, guard.Limits{})
	values, ok, err := e.semiJoinValues(g, &semiJoinSpec{table: "products", column: "id"})
	if err == nil {
		t.Fatalf("canceled guard did not abort the gather: values=%d ok=%v", len(values), ok)
	}
	if _, isViolation := guard.AsViolation(err); !isViolation {
		t.Fatalf("gather abort is not a guard violation: %v", err)
	}
}

// Semi-join values are gathered at execution time, so a cached plan must
// see join-table rows inserted after Prepare.
func TestSemiJoinValuesFreshPerExecution(t *testing.T) {
	e := newPaperDB(t, 70)
	mustSQL(t, e, `CREATE INDEX prod_id ON orders(orddoc) USING XMLPATTERN '//lineitem/product/id' AS varchar`)
	mustSQL(t, e, `insert into products values ('3', 'widget')`)
	q := `SELECT p.name, o.ordid FROM products p, orders o
		WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`
	if err := e.Prepare(q, LangSQL, true); err != nil {
		t.Fatal(err)
	}
	res1, _, err := e.ExecSQLOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	mustSQL(t, e, `insert into products values ('5', 'gadget')`)
	res2, stats2, err := e.ExecSQLOpts(q, ExecOptions{UseIndexes: true, Prepared: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Rows) <= len(res1.Rows) {
		t.Fatalf("cached plan served stale semi-join values: %d rows before insert, %d after",
			len(res1.Rows), len(res2.Rows))
	}
	if len(stats2.IndexesUsed) == 0 || !strings.Contains(stats2.IndexesUsed[0], "2 values") {
		t.Fatalf("semi-join label should count both values: %v", stats2.IndexesUsed)
	}
}

// Parallel document-at-a-time execution must be byte-identical to the
// serial order at any worker count, with and without index pre-filtering.
func TestParallelExecutionDeterminism(t *testing.T) {
	defer func(n int) { guard.ShardFloor = n }(guard.ShardFloor)
	guard.ShardFloor = 8

	e := newPaperDB(t, 64)
	createLiPrice(t, e)
	queries := []string{
		planQ1,
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order where $i/lineitem/@price > 100 return <hit>{$i/custid}</hit>`,
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')`,
	}
	for _, q := range queries {
		for _, useIdx := range []bool{false, true} {
			serial, _, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: useIdx, Parallelism: 1})
			if err != nil {
				t.Fatalf("%s serial: %v", q, err)
			}
			par, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: useIdx, Parallelism: 8})
			if err != nil {
				t.Fatalf("%s parallel: %v", q, err)
			}
			if xdm.SerializeSequence(serial) != xdm.SerializeSequence(par) {
				t.Fatalf("parallel result differs from serial for %s (useIndexes=%v)", q, useIdx)
			}
			if !useIdx && stats.ParallelShards < 2 {
				t.Fatalf("expected sharded execution for %s, got %d shards", q, stats.ParallelShards)
			}
		}
	}
}

// Below the size floor the engine must fall back to serial execution.
func TestParallelSmallCollectionFallsBack(t *testing.T) {
	e := newPaperDB(t, 8) // below guard.ShardFloor
	seq, stats, err := e.ExecXQueryOpts(planQ1, ExecOptions{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ParallelShards > 1 {
		t.Fatalf("sharded a %d-doc collection: %d shards", 8, stats.ParallelShards)
	}
	if len(seq) == 0 {
		t.Fatal("fallback lost the result")
	}
}
