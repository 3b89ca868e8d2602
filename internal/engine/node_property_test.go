package engine

import (
	"fmt"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
)

// Node-granularity features are pure optimizations: every combination of
// the disabling knobs, at any parallelism, must serialize to the exact
// bytes of the plain full scan.
func TestNodeGranularEquivalenceProperty(t *testing.T) {
	e := newPaperDB(t, 120)
	createLiPrice(t, e)
	mustSQL(t, e, `CREATE INDEX cust_id ON orders(orddoc) USING XMLPATTERN '/order/custid' AS double`)
	// The element form: several price children per lineitem, so the
	// conjunction must not intersect per node.
	mustSQL(t, e, `create table elord (ordid integer, orddoc XML)`)
	for i := 0; i < 120; i++ {
		mustSQL(t, e, fmt.Sprintf(
			`insert into elord values (%d, '<order><lineitem><price>%d</price><price>%d</price></lineitem></order>')`,
			i, 10+i%300, 5+i%97))
	}
	mustSQL(t, e, `CREATE INDEX el_price ON elord(orddoc) USING XMLPATTERN '//price' AS double`)
	// Several lineitems per order: a document can satisfy two brackets
	// through different nodes, and positional predicates observe the
	// intermediate sequence.
	mustSQL(t, e, `create table mlord (ordid integer, orddoc XML)`)
	for i := 0; i < 60; i++ {
		mustSQL(t, e, fmt.Sprintf(
			`insert into mlord values (%d, '<order><lineitem price="%d"/><lineitem price="%d"/><lineitem price="%d"/></order>')`,
			i, i%13, (i*5)%13, (i*7)%13))
	}
	mustSQL(t, e, `CREATE INDEX ml_price ON mlord(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`)

	queries := []string{
		// Seeded single-probe re-evaluation.
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`,
		// Conjunction on a single-valued attribute operand (node-granular
		// intersection) and on a multi-valued element operand (document
		// intersection only).
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100 and @price < 140]`,
		`db2-fn:xmlcolumn('ELORD.ORDDOC')//lineitem[price > 100 and price < 200]`,
		// Index-only count and exists, plus the empty-range edge.
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 100])`,
		`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])`,
		`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100000])`,
		// A synopsis short-circuit (no <archived> path is stored), an
		// exists over a path no index covers, and a synopsis answer.
		skipQuery,
		`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//missing[@price > 1])`,
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem)`,
		// Mixed: seeded value predicate under a where with a second probe.
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order where $i/lineitem/@price > 100 and $i/custid = 3 return $i/lineitem/product/id`,
		// Positional predicate interleaved between two comparisons on the
		// same step: each bracket is its own conjunction scope, so the
		// probes must seed their own hits, never their intersection.
		`db2-fn:xmlcolumn('MLORD.ORDDOC')//order/lineitem[@price > 1][1][@price < 5]`,
		`db2-fn:xmlcolumn('MLORD.ORDDOC')//order/lineitem[@price > 1][last()][@price < 9]`,
		// Same pattern probed from two independent sites: existentially
		// independent, no intersection at node or document granularity.
		`for $d in db2-fn:xmlcolumn('MLORD.ORDDOC')/order where $d/lineitem[@price > 5] return $d/lineitem[@price < 3]`,
		`for $d in db2-fn:xmlcolumn('MLORD.ORDDOC')/order where $d/lineitem[@price > 5] and $d/lineitem[@price < 3] return $d`,
	}
	for _, q := range queries {
		full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
		if err != nil {
			t.Fatalf("%s full scan: %v", q, err)
		}
		want := xdm.SerializeSequence(full)
		// Every ExecOptions boolean knob is in the mask — the knobmatrix
		// analyzer enforces that. Prepared and Trace must be equivalence-
		// preserving too: a cached plan and a traced run may take distinct
		// code paths but never distinct results.
		for mask := 0; mask < 64; mask++ {
			for _, par := range []int{1, 4} {
				o := ExecOptions{
					UseIndexes:   true,
					NoIndexOnly:  mask&1 != 0,
					NoNodeSeeds:  mask&2 != 0,
					NoSynopsis:   mask&4 != 0,
					NoProbeCache: mask&8 != 0,
					Prepared:     mask&16 != 0,
					Trace:        mask&32 != 0,
					Parallelism:  par,
				}
				seq, _, err := e.ExecXQueryOpts(q, o)
				if err != nil {
					t.Fatalf("%s under %+v: %v", q, o, err)
				}
				if got := xdm.SerializeSequence(seq); got != want {
					t.Fatalf("%s: options %+v changed the result\nwant %s\ngot  %s", q, o, want, got)
				}
			}
		}
	}
}

// Concurrent inserts and deletes race the node-granularity paths (probe
// cache fills, seed construction, index-only answers); run under -race.
// Results legitimately drift while the corpus changes — the property is
// absence of races, errors, and a correct final state.
func TestNodeGranularConcurrentMutation(t *testing.T) {
	e := newPaperDB(t, 60)
	createLiPrice(t, e)
	queries := []string{
		`for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price>100] return $i`,
		`fn:count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/@price[. > 100])`,
		`fn:exists(db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[@price > 100])`,
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 2000 + i%10
			ins := fmt.Sprintf(`insert into orders values (%d, '<order><lineitem price="%d"/></order>')`, id, 90+i%40)
			if _, _, err := e.ExecSQLOpts(ins, ExecOptions{}); err != nil {
				t.Error(err)
				return
			}
			if _, _, err := e.ExecSQLOpts(fmt.Sprintf(`delete from orders where ordid = %d`, id), ExecOptions{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		readers.Add(1)
		go func(w int) {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				q := queries[(w+i)%len(queries)]
				if _, _, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true, Parallelism: 2}); err != nil {
					t.Errorf("%s: %v", q, err)
					return
				}
			}
		}(w)
	}
	// The writer stops only after every reader is done, so queries race
	// real mutations for their whole run.
	readers.Wait()
	close(stop)
	<-writerDone
	for _, q := range queries {
		assertEquivalentXQ(t, e, q)
	}
}
