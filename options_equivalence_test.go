package xqdb

import (
	"fmt"
	"strings"
	"testing"
)

// TestQueryOptionsEquivalenceProperty runs every combination of the
// public QueryOptions boolean knobs — the knobmatrix analyzer enforces
// that each one appears here — and requires byte-identical results to
// the plain defaults and to a run without indexes (Definition 1's own
// oracle): Trace, NoProbeCache, NoSynopsis, NoIndexOnly, and NoNodeSeeds
// toggle optimizations and observability, never answers.
func TestQueryOptionsEquivalenceProperty(t *testing.T) {
	db := Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	for i := 0; i < 40; i++ {
		db.MustExecSQL(fmt.Sprintf(
			`insert into orders values (%d, '<order><custid>%d</custid><lineitem price="%d"/><lineitem price="%d"/></order>')`,
			i, i%7, 40+i*7%200, 10+i*3%150))
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)

	queries := []string{
		// Probe + re-evaluation, index-only aggregate, a synopsis
		// short-circuit (no <missing> path is stored), and a synopsis
		// answer.
		`db2-fn:xmlcolumn("ORDERS.ORDDOC")//order[lineitem/@price > 100]`,
		`fn:count(db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem/@price[. > 100])`,
		`fn:exists(db2-fn:xmlcolumn("ORDERS.ORDDOC")//missing[@price > 1])`,
		`fn:count(db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem)`,
	}
	render := func(res *Result) string {
		var b strings.Builder
		for _, row := range res.Rows() {
			b.WriteString(strings.Join(row, "|"))
			b.WriteByte('\n')
		}
		return b.String()
	}
	for _, q := range queries {
		db.UseIndexes = false
		oracle, _, err := db.QueryXQuery(q)
		db.UseIndexes = true
		if err != nil {
			t.Fatalf("%s without indexes: %v", q, err)
		}
		base, _, err := db.QueryXQuery(q)
		if err != nil {
			t.Fatalf("%s baseline: %v", q, err)
		}
		want := render(base)
		if scan := render(oracle); scan != want {
			t.Fatalf("%s: indexes changed the result\nwant %q\ngot  %q", q, scan, want)
		}
		for mask := 0; mask < 32; mask++ {
			for _, par := range []int{1, 4} {
				o := QueryOptions{
					Trace:        mask&1 != 0,
					NoProbeCache: mask&2 != 0,
					NoSynopsis:   mask&4 != 0,
					NoIndexOnly:  mask&8 != 0,
					NoNodeSeeds:  mask&16 != 0,
					Parallelism:  par,
				}
				res, stats, err := db.QueryXQueryOpts(q, o)
				if err != nil {
					t.Fatalf("%s under %+v: %v", q, o, err)
				}
				if got := render(res); got != want {
					t.Fatalf("%s: options %+v changed the result\nwant %q\ngot  %q", q, o, want, got)
				}
				if o.Trace && (stats == nil || stats.Trace == nil) {
					t.Fatalf("%s: Trace set but no spans collected", q)
				}
			}
		}
	}
}
