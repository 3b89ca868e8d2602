package engine

import (
	"fmt"
	"testing"
)

// TestBuildPlanAllocsPerRejectedIndex bounds what one more structurally
// rejected index costs a plan-cache miss. Every candidate index is
// decided for every predicate, but the reasons a rejection would print
// are rendered only by EXPLAIN, so an index the predicate cannot use
// must stay cheap to reject.
func TestBuildPlanAllocsPerRejectedIndex(t *testing.T) {
	e := newPaperDB(t, 10)
	createLiPrice(t, e)
	c := 0
	measure := func() float64 {
		return testing.AllocsPerRun(50, func() {
			c++
			q := fmt.Sprintf(`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > %d.5]`, 100+c%997)
			if _, err := e.buildPlan(q, LangXQuery, true); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := measure()
	extra := 0
	for _, k := range []int{1, 4} {
		for ; extra < k; extra++ {
			mustSQL(t, e, fmt.Sprintf(`create index other%d on orders(orddoc) using xmlpattern '//other%d/id' as double`, extra, extra))
		}
		per := (measure() - base) / float64(k)
		t.Logf("%d extra rejected indexes: %.1f allocs each", k, per)
		if per > 30 {
			t.Errorf("%d extra rejected indexes cost %.1f allocs each, want at most 30", k, per)
		}
	}
}

// TestUntracedStatementBuildsNoSpanNotes bounds a plan-cached, untraced
// statement answered from the path synopsis. What it must allocate is its
// Stats, the IndexesUsed entry and the one-integer result; span notes
// (the plan-cache state, the probe detail) are formatted only when the
// query is traced, so they must not show up here.
func TestUntracedStatementBuildsNoSpanNotes(t *testing.T) {
	e := newPaperDB(t, 10)
	const q = `fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)`
	o := ExecOptions{UseIndexes: true, Prepared: true}
	_, stats, err := e.ExecXQueryOpts(q, o)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.SynopsisAnswered {
		t.Fatal("want a synopsis answer")
	}
	n := testing.AllocsPerRun(50, func() {
		if _, _, err := e.ExecXQueryOpts(q, o); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per untraced statement", n)
	if n > 4 {
		t.Errorf("untraced synopsis-answered statement allocates %.0f times, want at most 4", n)
	}
}
