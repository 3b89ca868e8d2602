package engine

import (
	"fmt"
	"strings"
	"testing"
)

const q16 = `SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`

// TestQ16HashJoinIndexEquivalence runs Query 16 with indexes on (an
// eligible custid index) and off, serially and sharded: the hash join
// returns the same rows either way and reports itself in Stats, the
// trace and EXPLAIN.
func TestQ16HashJoinIndexEquivalence(t *testing.T) {
	e := newPaperDB(t, 120)
	if _, _, err := e.ExecSQLOpts(`CREATE INDEX o_custid ON orders(orddoc) USING XMLPATTERN '/order/custid' AS double`, ExecOptions{}); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, useIndexes := range []bool{false, true} {
		for _, par := range []int{1, 4} {
			res, stats, err := e.ExecSQLOpts(q16, ExecOptions{UseIndexes: useIndexes, Parallelism: par, Trace: true})
			if err != nil {
				t.Fatal(err)
			}
			got := fmt.Sprint(res.Rows)
			if want == "" {
				want = got
				if len(res.Rows) != 120 {
					t.Fatalf("rows = %d, want one per order", len(res.Rows))
				}
			}
			if got != want {
				t.Fatalf("indexes=%v par=%d: rows differ\n got %s\nwant %s", useIndexes, par, got, want)
			}
			if !stats.HashJoin || stats.JoinCandidates != 120 {
				t.Errorf("indexes=%v par=%d: HashJoin=%v candidates=%d", useIndexes, par, stats.HashJoin, stats.JoinCandidates)
			}
			if sum := stats.Summary(); !strings.Contains(sum, "; hash join 120 candidates") {
				t.Errorf("summary %q does not name the hash join", sum)
			}
			if stats.RowsScanned != 125 {
				t.Errorf("rows scanned = %d, want each base row once (125)", stats.RowsScanned)
			}
			if tr := stats.Trace.Render(); !strings.Contains(tr, "hash join 120 candidates") {
				t.Errorf("scan span does not name the hash join:\n%s", tr)
			}
		}
	}
	plan, err := e.Explain(q16)
	if err != nil {
		t.Fatal(err)
	}
	const line = "join: hash on custid/xs:double(.) = $cust/customer/id/xs:double(.) (nested-loop fallback on non-double keys or key errors)"
	if !strings.Contains(plan, line) {
		t.Errorf("EXPLAIN lacks %q:\n%s", line, plan)
	}
	plan, err = e.Explain(`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid = $cust/customer/id][1]' passing o.orddoc as "order", c.cdoc as "cust")`)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "join: hash") {
		t.Errorf("EXPLAIN names a hash join for a statement the recognizer rejects:\n%s", plan)
	}
}
