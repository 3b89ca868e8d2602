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
