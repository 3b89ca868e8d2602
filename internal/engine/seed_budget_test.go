package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
)

// seedBudgetSteps sits between what the seeded and the full-walk run of
// the wide query cost in evaluation steps (about 2 000 against 13 200):
// roughly twice the seeded cost, so evaluator tweaks do not trip it, and
// well under the full walk, so losing the seeding does.
const seedBudgetSteps = 4000

// TestSeededEvalFitsStepBudget pins what probe-guided re-evaluation
// saves, as a count rather than a time. Every document survives the
// document pre-filter (each holds prices 0..79), but only two of its 80
// lineitems match, so a full walk re-evaluates the predicate over every
// lineitem while a seeded walk visits the hit nodes and their ancestors.
// The seeded run must fit seedBudgetSteps; the same query with seeding
// off must trip it.
func TestSeededEvalFitsStepBudget(t *testing.T) {
	e := New()
	mustSQL(t, e, `create table wide (ordid integer, doc xml)`)
	var sb strings.Builder
	for i := 0; i < 150; i++ {
		sb.Reset()
		fmt.Fprintf(&sb, `<order id="%d">`, i)
		for j := 0; j < 80; j++ {
			fmt.Fprintf(&sb, `<lineitem price="%d"/>`, j)
		}
		sb.WriteString(`</order>`)
		mustSQL(t, e, fmt.Sprintf(`insert into wide values (%d, '%s')`, i, sb.String()))
	}
	mustSQL(t, e, `create index w_price on wide(doc) using xmlpattern '//lineitem/@price' as double`)
	const q = `for $i in db2-fn:xmlcolumn('WIDE.DOC')//order[lineitem/@price > 77] return $i/@id`

	run := func(noSeeds bool) (xdm.Sequence, *Stats, *guard.Guard, error) {
		g := guard.New(nil, 0, guard.Limits{MaxEvalSteps: seedBudgetSteps})
		seq, stats, err := e.ExecXQueryOpts(q, ExecOptions{Guard: g, UseIndexes: true, NoNodeSeeds: noSeeds})
		return seq, stats, g, err
	}

	seq, stats, g, err := run(false)
	if err != nil {
		t.Fatalf("seeded run did not fit %d steps: %v", seedBudgetSteps, err)
	}
	if stats.NodesSeeded == 0 {
		t.Fatalf("seeded run seeded no nodes (%d steps)", g.Steps())
	}
	full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := xdm.SerializeSequence(seq), xdm.SerializeSequence(full); got != want {
		t.Fatalf("seeded result differs from the full scan\nwant %s\ngot  %s", want, got)
	}
	if len(seq) != 150 {
		t.Fatalf("seeded run returned %d ids, want 150", len(seq))
	}
	t.Logf("seeded: %d steps, %d nodes seeded", g.Steps(), stats.NodesSeeded)

	_, _, g, err = run(true)
	v, ok := guard.AsViolation(err)
	if !ok || v.Kind != guard.LimitExceeded {
		t.Fatalf("full walk fit the %d-step budget (%d steps, err %v): the budget no longer separates seeded from unseeded evaluation", seedBudgetSteps, g.Steps(), err)
	}
}
