package sqlxml

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/storage"
)

const q16 = `SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`

func TestRecognizeHashJoin(t *testing.T) {
	cases := []struct {
		sql  string
		want string // the EXPLAIN key equality; "" = nested loop
	}{
		{q16, "custid/xs:double(.) = $cust/customer/id/xs:double(.)"},
		// Operands swapped.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[$cust/customer/id/xs:double(.) = custid/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`,
			"custid/xs:double(.) = $cust/customer/id/xs:double(.)"},
		// $a bound to the second FROM item.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$cust/customer[id/xs:double(.) = $order/order/custid/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`,
			"id/xs:double(.) = $order/order/custid/xs:double(.)"},
		// A second predicate on the last step.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)][1]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
		// A predicate on an earlier step.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order[1]/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
		// A value comparison.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid/xs:double(.) eq $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
		// Query 13: the other side is a SQL scalar, not a path.
		{`SELECT p.name FROM products p, orders o WHERE XMLExists('$order//lineitem/product[id eq $pid]' passing o.orddoc as "order", p.id as "pid")`, ""},
		// Both operands navigate from the same variable.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid = $order/order/custid]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
		// An unqualified PASSING column.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid = $cust/customer/id]' passing orddoc as "order", c.cdoc as "cust")`, ""},
		// Both PASSING columns on one table.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[custid = $cust/customer/id]' passing o.orddoc as "order", o.orddoc as "cust")`, ""},
		// More than the XMLExists in WHERE.
		{`SELECT c.cid FROM orders o, customer c WHERE c.cid > 1 AND XMLExists('$order/order[custid = $cust/customer/id]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
		// Three FROM items.
		{`SELECT c.cid FROM orders o, customer c, products p WHERE XMLExists('$order/order[custid = $cust/customer/id]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
		// A rooted operand.
		{`SELECT c.cid FROM orders o, customer c WHERE XMLExists('$order/order[/order/custid = $cust/customer/id]' passing o.orddoc as "order", c.cdoc as "cust")`, ""},
	}
	for _, tc := range cases {
		stmt, err := Parse(tc.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.sql, err)
		}
		got, ok := ExplainHashJoin(stmt)
		if ok != (tc.want != "") || got != tc.want {
			t.Errorf("%s\n  got %q (ok=%v), want %q", tc.sql, got, ok, tc.want)
		}
	}
}

// referenceJoin is the nested loop the hash join must reproduce: it
// evaluates the full WHERE over every row pair of a two-table SELECT in
// row order, then the select list, ORDER BY and LIMIT. It returns the
// first error in pair order, as the executor does.
func referenceJoin(e *Executor, s *Select) ([]string, error) {
	var tabs [2][]binding
	for i, fi := range s.From {
		ft := fi.(*FromTable)
		tab, err := e.Catalog.Table(ft.Table)
		if err != nil {
			return nil, err
		}
		for _, row := range tab.Rows() {
			cells := make([]ResultCell, len(row.Cells))
			for ci, c := range row.Cells {
				cells[ci] = storageCellToResult(c)
			}
			tabs[i] = append(tabs[i], binding{alias: ft.Alias, cols: columnNames(tab), cells: cells})
		}
	}
	var out []keyedRow
	for _, b0 := range tabs[0] {
		for _, b1 := range tabs[1] {
			env := []binding{b0, b1}
			keep, err := e.evalPredicate(s.Where, env)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
			var kr keyedRow
			for _, item := range s.Items {
				v, err := e.evalExpr(item.Expr, env)
				if err != nil {
					return nil, err
				}
				kr.cells = append(kr.cells, v)
			}
			for _, ob := range s.OrderBy {
				k, err := e.evalExpr(ob.Expr, env)
				if err != nil {
					return nil, err
				}
				kr.keys = append(kr.keys, k)
			}
			out = append(out, kr)
		}
	}
	sort.SliceStable(out, func(a, b int) bool {
		for k, ob := range s.OrderBy {
			c, _ := compareCells(out[a].keys[k], out[b].keys[k])
			if ob.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	if s.Limit >= 0 && len(out) > s.Limit {
		out = out[:s.Limit]
	}
	rows := make([]string, len(out))
	for i, kr := range out {
		rows[i] = fmt.Sprint(kr.cells)
	}
	return rows, nil
}

// joinCorpus fills tables a and b with random documents of the shape
// <d><k>..</k>...</d>: several keys per document, duplicate keys, NaN,
// 0 next to -0, a missing join element, NULL cells and — when
// nonNumeric — keys that do not cast to a number.
func joinCorpus(t *testing.T, rng *rand.Rand, na, nb int, nonNumeric bool) *Executor {
	t.Helper()
	cat := storage.NewCatalog()
	e := &Executor{Catalog: cat, Coll: cat}
	mustExec(t, e, `create table a (id integer, doc XML)`)
	mustExec(t, e, `create table b (id integer, doc XML)`)
	pool := []string{"1", "2", "2.0", "3", "7", "NaN", "0", "-0", "INF", " 3 "}
	fill := func(table string, n int) {
		for i := 0; i < n; i++ {
			cell := "NULL"
			if rng.Intn(8) > 0 {
				var doc strings.Builder
				doc.WriteString("<d>")
				for k := rng.Intn(4); k > 0; k-- { // 0 keys: no join element
					v := pool[rng.Intn(len(pool))]
					if nonNumeric && rng.Intn(6) == 0 {
						v = "abc"
					}
					fmt.Fprintf(&doc, "<k>%s</k>", v)
				}
				doc.WriteString("</d>")
				cell = "'" + doc.String() + "'"
			}
			mustExec(t, e, fmt.Sprintf(`insert into %s values (%d, %s)`, table, i, cell))
		}
	}
	fill("a", na)
	fill("b", nb)
	return e
}

// TestHashJoinMatchesNestedLoopProperty checks the hash join against the
// reference nested loop over random corpora: byte-identical rows and
// identical error outcomes, serially and sharded, with and without
// ORDER BY / LIMIT, for the double fast path and every fallback.
func TestHashJoinMatchesNestedLoopProperty(t *testing.T) {
	defer func(n int) { guard.ShardFloor = n }(guard.ShardFloor)
	guard.ShardFloor = 2
	bodies := []struct {
		name, xq string
		fast     bool // numeric corpora must take the hash path
	}{
		{"double", `$x/d[k/xs:double(.) = $y/d/k/xs:double(.)]`, true},
		{"swapped", `$x/d[$y/d/k/xs:double(.) = k/xs:double(.)]`, true},
		{"a-on-second", `$y/d[k/xs:double(.) = $x/d/k/xs:double(.)]`, true},
		{"integer", `$x/d[k/xs:integer(.) = $y/d/k/xs:integer(.)]`, false},
		{"decimal", `$x/d[k/xs:decimal(.) = $y/d/k/xs:decimal(.)]`, false},
		{"untyped", `$x/d[k = $y/d/k]`, false},
	}
	tails := []string{"", " ORDER BY b.id DESC, a.id", " ORDER BY a.id DESC LIMIT 4", " LIMIT 3"}
	sizes := [][2]int{{0, 5}, {5, 0}, {1, 1}, {9, 6}, {24, 13}}
	rng := rand.New(rand.NewSource(28))
	fastRuns := 0
	for round := 0; round < 6; round++ {
		for _, sz := range sizes {
			nonNumeric := round%3 == 2
			e := joinCorpus(t, rng, sz[0], sz[1], nonNumeric)
			for _, body := range bodies {
				for _, tail := range tails {
					sql := fmt.Sprintf(`SELECT a.id, b.id FROM a, b WHERE XMLExists('%s' passing a.doc as "x", b.doc as "y")%s`, body.xq, tail)
					stmt, err := Parse(sql)
					if err != nil {
						t.Fatal(err)
					}
					want, wantErr := referenceJoin(e, stmt.(*Select))
					for _, par := range []int{1, 4} {
						e.Parallel = par
						res, err := e.Exec(stmt)
						label := fmt.Sprintf("round %d, %dx%d, par %d: %s", round, sz[0], sz[1], par, sql)
						if errText(err) != errText(wantErr) {
							t.Fatalf("%s\n  error %q, want %q", label, errText(err), errText(wantErr))
						}
						if err != nil {
							continue
						}
						got := make([]string, len(res.Rows))
						for i, r := range res.Rows {
							got[i] = fmt.Sprint(r)
						}
						if fmt.Sprint(got) != fmt.Sprint(want) {
							t.Fatalf("%s\n  rows %v\n  want %v", label, got, want)
						}
						if body.fast && !nonNumeric && !res.HashJoin {
							t.Fatalf("%s: numeric keys ran the nested loop", label)
						}
						// Non-double keys take the hash path only when no
						// row has a key at all, so nothing can match.
						if !body.fast && res.HashJoin && len(res.Rows) > 0 {
							t.Fatalf("%s: non-double keys took the hash path", label)
						}
						if res.HashJoin {
							fastRuns++
						}
					}
				}
			}
		}
	}
	if fastRuns == 0 {
		t.Fatal("the hash path never ran")
	}
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// pollCtx is a context that stays live for its first `live` polls and is
// done from then on, with err. It counts every poll, so a test can tell
// whether execution went on after the guard reported the violation.
type pollCtx struct {
	context.Context
	live  int64
	polls atomic.Int64
	err   error
}

func (c *pollCtx) Err() error {
	if c.polls.Add(1) > c.live {
		return c.err
	}
	return nil
}

// q16Corpus loads orders whose custid cycles over customers 0..nc-1.
func q16Corpus(t testing.TB, no, nc int) *Executor {
	cat := storage.NewCatalog()
	e := &Executor{Catalog: cat, Coll: cat}
	run := func(sql string) {
		stmt, err := Parse(sql)
		if err == nil {
			_, err = e.Exec(stmt)
		}
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	run(`create table customer (cid integer, cdoc XML)`)
	run(`create table orders (ordid integer, orddoc XML)`)
	for i := 0; i < no; i++ {
		run(fmt.Sprintf(`insert into orders values (%d, '<order><custid>%d</custid></order>')`, i, i%10))
	}
	for i := 0; i < nc; i++ {
		run(fmt.Sprintf(`insert into customer values (%d, '<customer><id>%d</id></customer>')`, i, i))
	}
	return e
}

func TestHashJoinGuardViolationDoesNotFallBack(t *testing.T) {
	stmt, err := Parse(q16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		err  error
		kind guard.Kind
	}{{context.Canceled, guard.Canceled}, {context.DeadlineExceeded, guard.Timeout}} {
		e := q16Corpus(t, 400, 10)
		// The guard polls its context every 256 steps; the first poll
		// falls inside key evaluation (over 400 orders), where the
		// context is already done.
		ctx := &pollCtx{Context: context.Background(), err: tc.err}
		e.Guard = guard.New(ctx, 0, guard.Limits{})
		_, err := e.Exec(stmt)
		v, ok := guard.AsViolation(err)
		if !ok || v.Kind != tc.kind {
			t.Fatalf("error = %v, want a %v violation", err, tc.kind)
		}
		if n := ctx.polls.Load(); n != 1 {
			t.Errorf("%v: context polled %d times; execution went on after the violation", tc.kind, n)
		}
	}
}

func TestHashJoinStepBudget(t *testing.T) {
	e := q16Corpus(t, 200, 20)
	hash, err := Parse(q16)
	if err != nil {
		t.Fatal(err)
	}
	// The same join with a second predicate the recognizer rejects.
	nested, err := Parse(strings.Replace(q16, `xs:double(.)]'`, `xs:double(.)][1]'`, 1))
	if err != nil {
		t.Fatal(err)
	}
	steps := func(stmt Statement, limit int64) (int64, *Result, error) {
		e.Guard = guard.New(nil, 0, guard.Limits{MaxEvalSteps: limit})
		res, err := e.Exec(stmt)
		return e.Guard.Steps(), res, err
	}
	nh, hres, err := steps(hash, 0)
	if err != nil || !hres.HashJoin {
		t.Fatalf("hash join: err=%v hash=%v", err, hres != nil && hres.HashJoin)
	}
	nn, nres, err := steps(nested, 0)
	if err != nil || nres.HashJoin {
		t.Fatalf("nested loop: err=%v", err)
	}
	if fmt.Sprint(hres.Rows) != fmt.Sprint(nres.Rows) || len(hres.Rows) != 200 {
		t.Fatalf("hash rows %d, nested rows %d", len(hres.Rows), len(nres.Rows))
	}
	// O(outer + inner + candidates) against O(outer x inner).
	if nh*5 > nn {
		t.Fatalf("hash join took %d steps, nested loop %d", nh, nn)
	}
	budget := 2 * nh
	if _, _, err := steps(hash, budget); err != nil {
		t.Fatalf("hash join within %d steps: %v", budget, err)
	}
	if _, _, err := steps(nested, budget); err == nil {
		t.Fatalf("nested loop within %d steps: want a limit violation", budget)
	}
}

// TestHashJoinAllocsScaleWithRows is the CI guard against a returning
// O(outer x inner) term: quadrupling the inner table must not come close
// to quadrupling the allocations of a Q16-shaped join over 500 outer rows.
func TestHashJoinAllocsScaleWithRows(t *testing.T) {
	stmt, err := Parse(q16)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(nc int) float64 {
		e := q16Corpus(t, 500, nc)
		return testing.AllocsPerRun(3, func() {
			if _, err := e.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10), allocs(40)
	if large > 1.5*small {
		t.Fatalf("allocs grew %.0f -> %.0f (%.2fx) from 10 to 40 inner rows", small, large, large/small)
	}
}

// TestJoinReadsOneSnapshot pins the one-snapshot-per-statement rule: a
// cross join racing inserts into its inner table pairs every outer row
// with the same inner rows.
func TestJoinReadsOneSnapshot(t *testing.T) {
	cat := storage.NewCatalog()
	e := &Executor{Catalog: cat, Coll: cat}
	mustExec(t, e, `create table a (id integer)`)
	mustExec(t, e, `create table b (id integer)`)
	for i := 0; i < 50; i++ {
		mustExec(t, e, fmt.Sprintf(`insert into a values (%d)`, i))
		mustExec(t, e, fmt.Sprintf(`insert into b values (%d)`, i))
	}
	// The writer adds a bounded number of rows, one statement each, while
	// the reader keeps joining until it is done.
	writer := &Executor{Catalog: cat, Coll: cat}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 50; i < 400; i++ {
			stmt, _ := Parse(fmt.Sprintf(`insert into b values (%d)`, i))
			if _, err := writer.Exec(stmt); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { <-done }()
	stmt, err := Parse(`SELECT a.id, b.id FROM a, b`)
	if err != nil {
		t.Fatal(err)
	}
	for run, writing := 0, true; writing; run++ {
		select {
		case <-done:
			writing = false
		default:
		}
		res, err := e.Exec(stmt)
		if err != nil {
			t.Fatal(err)
		}
		// Rows come grouped by outer row; each group lists its inner ids.
		var groups []string
		var cur strings.Builder
		for i, r := range res.Rows {
			if i > 0 && r[0].String() != res.Rows[i-1][0].String() {
				groups = append(groups, cur.String())
				cur.Reset()
			}
			cur.WriteString(r[1].String() + " ")
		}
		groups = append(groups, cur.String())
		if len(groups) != 50 {
			t.Fatalf("run %d: %d outer rows paired, want 50", run, len(groups))
		}
		for i, g := range groups {
			if g != groups[0] {
				t.Fatalf("run %d: outer row %d paired with inner rows [%s], outer row 0 with [%s]", run, i, g, groups[0])
			}
		}
	}
}
