package engine

import (
	"context"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
)

// skipQuery probes //archived/lineitem/@price — eligible against the
// li_price index by containment, but no paperDB document contains an
// archived element, so the synopsis short-circuits the probe.
const skipQuery = `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//archived/lineitem[@price > 100] return $i`

func TestSynopsisShortCircuitSkipsProbe(t *testing.T) {
	e := newPaperDB(t, 60)
	createLiPrice(t, e)

	seq, stats, err := e.ExecXQueryOpts(skipQuery, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 0 {
		t.Fatalf("impossible pattern returned %d items", len(seq))
	}
	if stats.SynopsisSkips != 1 {
		t.Fatalf("SynopsisSkips = %d, want 1", stats.SynopsisSkips)
	}
	if len(stats.IndexesUsed) != 1 || !strings.Contains(stats.IndexesUsed[0], "[skipped: no matching path in synopsis]") {
		t.Fatalf("IndexesUsed = %v, want the skip marker", stats.IndexesUsed)
	}
	if stats.KeysVisited != 0 || stats.DocsScanned != 0 {
		t.Fatalf("skipped probe still did work: %d keys, %d docs scanned", stats.KeysVisited, stats.DocsScanned)
	}
	if len(stats.Estimates) != 1 || !stats.Estimates[0].Skipped || stats.Estimates[0].Docs != 0 {
		t.Fatalf("Estimates = %+v, want one skipped estimate of 0 docs", stats.Estimates)
	}
	if got := e.Metrics.Counter("synopsis.shortcircuits").Value(); got != 1 {
		t.Fatalf("synopsis.shortcircuits = %d, want 1", got)
	}

	// The NoSynopsis baseline runs the probe for real and agrees.
	seq2, stats2, err := e.ExecXQueryOpts(skipQuery, ExecOptions{UseIndexes: true, NoSynopsis: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq2) != 0 || stats2.SynopsisSkips != 0 {
		t.Fatalf("NoSynopsis run: %d items, %d skips", len(seq2), stats2.SynopsisSkips)
	}
	if stats2.Probes == 0 {
		t.Fatal("NoSynopsis run did not probe the index")
	}

	assertEquivalentXQ(t, e, skipQuery)
}

// A short-circuited probe costs nothing, but it still answers to the
// guard: a canceled query aborts instead of returning a fast empty set.
// The same holds for every document-free answer source.
func TestSkippedProbeRespectsCancellation(t *testing.T) {
	e := newPaperDB(t, 10)
	createLiPrice(t, e)
	for _, q := range []string{
		skipQuery,
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)`,                 // synopsis answer
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 100])`, // index-only answer
	} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		g := guard.New(ctx, 0, guard.Limits{})
		seq, _, err := e.ExecXQueryOpts(q, ExecOptions{Guard: g, UseIndexes: true})
		if err == nil || seq != nil {
			t.Fatalf("%s: canceled query returned %v, err %v", q, seq, err)
		}
		v, ok := guard.AsViolation(err)
		if !ok || v.Kind != guard.Canceled {
			t.Fatalf("%s: error = %v, want a Canceled violation", q, err)
		}
	}
}

func TestExplainShowsSkipAndEstimates(t *testing.T) {
	e := newPaperDB(t, 40)
	createLiPrice(t, e)

	out, err := e.Explain(skipQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "skipped — no matching path in synopsis") {
		t.Fatalf("EXPLAIN missing the synopsis skip reason:\n%s", out)
	}
	if !strings.Contains(out, "probe cache:") {
		t.Fatalf("EXPLAIN lost the probe cache state:\n%s", out)
	}

	out, err = e.Explain(`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100] return $i`)
	if err != nil {
		t.Fatal(err)
	}
	// Every paperDB order has a lineitem/@price: est=40 docs.
	if !strings.Contains(out, "est=40 docs (40 nodes)") {
		t.Fatalf("EXPLAIN missing the selectivity estimate:\n%s", out)
	}
}

// Probe order is ranked by the synopsis estimate: the rarest pattern
// probes first, and the estimates surface in Stats in ranked order.
func TestProbeRankingOrdersBySelectivity(t *testing.T) {
	e := New()
	mustSQL(t, e, `create table t (k integer, doc xml)`)
	for i := 0; i < 20; i++ {
		b := `<r><a v="1"/>`
		if i < 2 {
			b += `<b v="1"/>` // rare: 2 of 20 documents
		}
		b += `</r>`
		mustSQL(t, e, `insert into t values (`+itoa(i)+`, '`+b+`')`)
	}
	mustSQL(t, e, `CREATE INDEX ia ON t(doc) USING XMLPATTERN '//a/@v' AS double`)
	mustSQL(t, e, `CREATE INDEX ib ON t(doc) USING XMLPATTERN '//b/@v' AS double`)

	q := `for $r in db2-fn:xmlcolumn('T.DOC')/r where $r/a/@v >= 0 and $r/b/@v >= 0 return $r`
	_, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Estimates) != 2 {
		t.Fatalf("Estimates = %+v, want 2 entries", stats.Estimates)
	}
	if stats.Estimates[0].Docs > stats.Estimates[1].Docs {
		t.Fatalf("probes not ranked ascending by estimate: %+v", stats.Estimates)
	}
	if !strings.Contains(stats.IndexesUsed[0], "ib(") {
		t.Fatalf("rare pattern did not probe first: IndexesUsed = %v", stats.IndexesUsed)
	}
	if stats.Estimates[0].Docs != 2 || stats.Estimates[1].Docs != 20 {
		t.Fatalf("estimates = %+v, want 2 docs then 20 docs", stats.Estimates)
	}
	assertEquivalentXQ(t, e, q)
}

func itoa(i int) string { return xdm.NewInteger(int64(i)).Lexical() }

// A cached plan's skip decision is only sound against the path set it was
// planned on; inserts and deletes that change the set must invalidate it.
func TestSkipDecisionInvalidatedByPathSetChange(t *testing.T) {
	e := newPaperDB(t, 20)
	createLiPrice(t, e)

	run := func() (int, *Stats) {
		seq, stats, err := e.ExecXQueryOpts(skipQuery, ExecOptions{UseIndexes: true, Prepared: true})
		if err != nil {
			t.Fatal(err)
		}
		return len(seq), stats
	}
	if n, stats := run(); n != 0 || stats.SynopsisSkips != 1 {
		t.Fatalf("before insert: %d items, %d skips", n, stats.SynopsisSkips)
	}

	// The insert creates //archived/... paths: the version bump must
	// drop the cached plan, or the stale skip would hide the new row.
	mustSQL(t, e, `insert into orders values (1000, '<order><archived><lineitem price="150"/></archived></order>')`)
	n, stats := run()
	if n != 1 {
		t.Fatalf("after insert: %d items, want 1 (stale skip decision served?)", n)
	}
	if stats.SynopsisSkips != 0 {
		t.Fatalf("after insert: %d skips, want 0", stats.SynopsisSkips)
	}

	// Deleting the only archived order empties the path set again.
	mustSQL(t, e, `delete from orders where ordid = 1000`)
	if n, stats := run(); n != 0 || stats.SynopsisSkips != 1 {
		t.Fatalf("after delete: %d items, %d skips", n, stats.SynopsisSkips)
	}
}

func TestStructuralOnlyAnsweredFromSynopsis(t *testing.T) {
	e := newPaperDB(t, 30)

	cases := []struct {
		query string
		want  string
	}{
		{`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)`, "30"},
		{`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price)`, "30"},
		{`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//archived)`, "0"},
		{`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//custid)`, "true"},
		{`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//archived)`, "false"},
	}
	for _, c := range cases {
		seq, stats, err := e.ExecXQueryOpts(c.query, ExecOptions{UseIndexes: true})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		if !stats.SynopsisAnswered {
			t.Fatalf("%s: not answered from the synopsis", c.query)
		}
		if got := xdm.SerializeSequence(seq); got != c.want {
			t.Fatalf("%s = %s, want %s", c.query, got, c.want)
		}
		if stats.DocsScanned != 0 || stats.Probes != 0 {
			t.Fatalf("%s touched data: %d docs scanned, %d probes", c.query, stats.DocsScanned, stats.Probes)
		}
		if len(stats.IndexesUsed) == 0 || !strings.HasPrefix(stats.IndexesUsed[0], "synopsis(") {
			t.Fatalf("%s: IndexesUsed = %v", c.query, stats.IndexesUsed)
		}

		// The evaluated baseline agrees item for item.
		base, bstats, err := e.ExecXQueryOpts(c.query, ExecOptions{UseIndexes: true, NoSynopsis: true})
		if err != nil {
			t.Fatalf("%s baseline: %v", c.query, err)
		}
		if bstats.SynopsisAnswered {
			t.Fatalf("%s: NoSynopsis run still answered from the synopsis", c.query)
		}
		if xdm.SerializeSequence(base) != xdm.SerializeSequence(seq) {
			t.Fatalf("%s: synopsis answer %s != evaluated %s", c.query, xdm.SerializeSequence(seq), xdm.SerializeSequence(base))
		}
	}
}

// Value predicates, parent steps, and unknown collections are beyond the
// synopsis: those queries must fall through to normal evaluation.
func TestStructuralOnlyFallsThrough(t *testing.T) {
	e := newPaperDB(t, 10)
	for _, q := range []string{
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])`,
		`fn:count(db2-fn:xmlcolumn('NOPE.DOC')//lineitem)`,
	} {
		seq, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
		if stats != nil && stats.SynopsisAnswered {
			t.Fatalf("%s: answered from the synopsis, must evaluate", q)
		}
		if strings.Contains(q, "NOPE") {
			continue // resolution outcome is the evaluator's business
		}
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(seq) != 1 {
			t.Fatalf("%s: %d items", q, len(seq))
		}
	}
}

func TestExplainMarksStructuralOnly(t *testing.T) {
	e := newPaperDB(t, 10)
	out, err := e.Explain(`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "structural-only: count of //lineitem over orders.orddoc answered from the path synopsis") {
		t.Fatalf("EXPLAIN missing the structural-only line:\n%s", out)
	}
}

// Ranking and short-circuiting change probe order and probe work — never
// results. Sweep a matrix of option combinations over the same query set
// and require byte-identical output.
func TestSynopsisEquivalenceProperty(t *testing.T) {
	e := newPaperDB(t, 90)
	createLiPrice(t, e)
	mustSQL(t, e, `CREATE INDEX cust_id ON orders(orddoc) USING XMLPATTERN '/order/custid' AS double`)

	queries := []string{
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`,
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $i/lineitem/@price > 100 and $i/custid = 3 return $i/lineitem/product/id`,
		skipQuery,
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)`,
		`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//archived)`,
	}
	opts := []ExecOptions{
		{UseIndexes: false},
		{UseIndexes: true},
		{UseIndexes: true, NoSynopsis: true},
		{UseIndexes: true, Parallelism: 4},
		{UseIndexes: true, NoSynopsis: true, NoProbeCache: true, Parallelism: 4},
	}
	for _, q := range queries {
		var want string
		for i, o := range opts {
			seq, _, err := e.ExecXQueryOpts(q, o)
			if err != nil {
				t.Fatalf("%s under %+v: %v", q, o, err)
			}
			got := xdm.SerializeSequence(seq)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("%s: options %+v changed the result\nwant %s\ngot  %s", q, o, want, got)
			}
		}
	}
}
