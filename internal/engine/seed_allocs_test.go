package engine

import (
	"fmt"
	"testing"
)

// q27Shape is the paper's two-probe where clause: an equality probe on
// the product id and a range probe on the price, each through its own
// index. The price comparison's path is seedable, so its probe runs at
// node granularity.
const q27Shape = `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem where $i/product/id/data(.) = 'P1' and $i/@price > 100 return $i/@quantity`

// newQ27DB holds one order that satisfies q27Shape, one that matches
// only its product id, and decoys decoys that match only its price: the
// price probe's hits grow with decoys while the combined pre-filter keeps
// one document.
func newQ27DB(t *testing.T, decoys int) *Engine {
	t.Helper()
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	mustSQL(t, e, `create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	mustSQL(t, e, `create index prod_id on orders(orddoc) using xmlpattern '//lineitem/product/id' as varchar`)
	mustSQL(t, e, `insert into orders values (0, '<order><lineitem price="150" quantity="7"><product><id>P1</id></product></lineitem></order>')`)
	mustSQL(t, e, `insert into orders values (1, '<order><lineitem price="50" quantity="2"><product><id>P1</id></product></lineitem></order>')`)
	addQ27Decoys(t, e, 0, decoys)
	return e
}

// addQ27Decoys inserts decoys lo..hi-1: orders priced above q27Shape's
// threshold under other product ids.
func addQ27Decoys(t *testing.T, e *Engine, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		mustSQL(t, e, fmt.Sprintf(`insert into orders values (%d, '<order><lineitem price="%d" quantity="1"><product><id>D%d</id></product></lineitem></order>')`, 10+i, 101+i%400, i))
	}
}

// TestSeedAllocsFlatInNonSurvivingHits pins combine-first seeding: a hit
// whose document the combined pre-filter drops costs no row lookup, no
// ancestor walk and no allocation. Growing the price-only decoys from 50
// to 400 must leave the plan-cached, probe-cached statement's allocations
// flat; seeding every probed hit costs several allocations per decoy.
func TestSeedAllocsFlatInNonSurvivingHits(t *testing.T) {
	e := newQ27DB(t, 50)
	measure := func() float64 {
		return testing.AllocsPerRun(50, func() {
			seq, _, err := e.ExecXQueryOpts(q27Shape, ExecOptions{UseIndexes: true, Prepared: true})
			if err != nil || len(seq) != 1 {
				t.Fatalf("got %d items (err %v), want 1", len(seq), err)
			}
		})
	}
	small := measure()
	addQ27Decoys(t, e, 50, 400)
	large := measure()
	t.Logf("allocs per statement: %.0f at 50 decoys, %.0f at 400", small, large)
	if large-small > 16 {
		t.Errorf("350 more non-surviving hits cost %.0f more allocs, want at most 16", large-small)
	}
}

// TestSeedSpanFollowsProbes checks the seed step's observability on the
// q27 shape: exactly one seed span, after the last probe and before eval,
// not overlapping either, and NodesSeeded counting the surviving hits
// only: the one price hit in the one surviving order, of 21 probed.
func TestSeedSpanFollowsProbes(t *testing.T) {
	e := newQ27DB(t, 20)
	seq, stats, err := e.ExecXQueryOpts(q27Shape, ExecOptions{UseIndexes: true, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != 1 {
		t.Fatalf("got %d items, want 1", len(seq))
	}
	if stats.NodesSeeded != 1 {
		t.Errorf("NodesSeeded = %d, want the 1 surviving hit", stats.NodesSeeded)
	}
	seedAt, lastProbe, evalAt := -1, -1, -1
	for i, s := range stats.Trace.Spans {
		switch s.Name {
		case "seed":
			if seedAt >= 0 {
				t.Fatalf("second seed span:\n%s", stats.Trace.Render())
			}
			seedAt = i
		case "probe":
			lastProbe = i
		case "eval":
			evalAt = i
		}
	}
	if seedAt < 0 || lastProbe < 0 || evalAt < 0 || !(lastProbe < seedAt && seedAt < evalAt) {
		t.Fatalf("want probe… seed eval in that order:\n%s", stats.Trace.Render())
	}
	probe, seed, eval := stats.Trace.Spans[lastProbe], stats.Trace.Spans[seedAt], stats.Trace.Spans[evalAt]
	if seed.Start < probe.Start+probe.Dur || eval.Start < seed.Start+seed.Dur {
		t.Fatalf("seed span overlaps its neighbours:\n%s", stats.Trace.Render())
	}
	if want := "1/21 hits, 1 docs"; seed.Note != want {
		t.Errorf("seed note = %q, want %q", seed.Note, want)
	}
}
