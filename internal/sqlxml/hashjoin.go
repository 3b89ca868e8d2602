package sqlxml

import (
	"math"
	"slices"
	"strings"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xquery"
)

// hashJoin is a two-table XMLExists equality join (Tips 5–6, Query 16):
//
//	SELECT ... FROM x, y
//	WHERE XMLExists('$a/P[L = R]' PASSING x.c AS "a", y.d AS "b")
//
// where P is predicate-free steps, = is the general comparison, L is a
// relative path evaluated from each $a/P item, and R is a path starting
// at $b (the operands may appear in either order, and $a may name either
// FROM item). The executor evaluates each side's keys once per row and
// visits only the pairs whose keys meet; emit still evaluates the full
// XMLExists on every such pair, so the hash is a run-time pre-filter and
// the evaluator decides.
type hashJoin struct {
	// side[i] computes the join keys of FROM item i's rows.
	side [2]joinKey
	// l and r are the comparison operands, for EXPLAIN.
	l, r xquery.Expr
}

// joinKey computes one side's join keys for a row.
type joinKey struct {
	column string // the PASSING column, on this side's FROM item
	name   string // the XQuery variable it binds
	// items, when non-nil, yields the items L is evaluated from ($a/P
	// without the join predicate) and key is L, evaluated with each item
	// as the context item. When nil, key is R, evaluated once per row.
	items *xquery.Module
	key   *xquery.Module
}

// recognizeHashJoin matches the hashJoin shape from the AST alone. It
// uses type assertions only, so a statement that does not match costs
// no allocation; nil means the nested loop runs.
func recognizeHashJoin(s *Select) *hashJoin {
	if len(s.From) != 2 {
		return nil
	}
	t0, ok0 := s.From[0].(*FromTable)
	t1, ok1 := s.From[1].(*FromTable)
	ex, ok := s.Where.(*XMLExistsExpr)
	if !ok0 || !ok1 || !ok || len(ex.Passing) != 2 || strings.EqualFold(t0.Alias, t1.Alias) {
		return nil
	}
	path, ok := ex.Module.Body.(*xquery.PathExpr)
	if !ok || path.Rooted || len(path.Steps) == 0 {
		return nil
	}
	a, ok := path.Start.(*xquery.VarRef)
	if !ok {
		return nil
	}
	last := len(path.Steps) - 1
	for _, st := range path.Steps[:last] {
		if len(st.Predicates) != 0 {
			return nil
		}
	}
	if len(path.Steps[last].Predicates) != 1 {
		return nil
	}
	cmp, ok := path.Steps[last].Predicates[0].(*xquery.Comparison)
	if !ok || cmp.Kind != xquery.GeneralComp || cmp.Op != xdm.OpEq {
		return nil
	}
	l, r := cmp.Left, cmp.Right
	if !relativePath(l) {
		l, r = r, l
	}
	rp, ok := r.(*xquery.PathExpr)
	if !ok || !relativePath(l) {
		return nil
	}
	b, ok := rp.Start.(*xquery.VarRef)
	if !ok || b.Name == a.Name {
		return nil
	}
	ia, ca := passingSide(ex.Passing, a.Name, t0, t1)
	ib, cb := passingSide(ex.Passing, b.Name, t0, t1)
	if ia < 0 || ib < 0 || ia == ib {
		return nil
	}
	steps := slices.Clone(path.Steps)
	steps[last].Predicates = nil
	h := &hashJoin{l: l, r: r}
	h.side[ia] = joinKey{column: ca.Column, name: a.Name,
		items: &xquery.Module{Body: &xquery.PathExpr{Start: a, Steps: steps}},
		key:   &xquery.Module{Body: l}}
	h.side[ib] = joinKey{column: cb.Column, name: b.Name, key: &xquery.Module{Body: rp}}
	return h
}

// relativePath reports whether e is a path navigated from the context
// item by an axis step, so that its value depends on the context item
// alone, not on the context position or size.
func relativePath(e xquery.Expr) bool {
	p, ok := e.(*xquery.PathExpr)
	return ok && !p.Rooted && p.Start == nil && len(p.Steps) > 0 && p.Steps[0].Axis != xquery.AxisNone
}

// passingSide finds the PASSING item that binds name and reports which
// FROM table its qualified column reference names (-1 when it is not a
// column of exactly one of them).
func passingSide(items []PassItem, name string, t0, t1 *FromTable) (int, *ColRef) {
	for _, it := range items {
		if it.As != name {
			continue
		}
		cr, ok := it.Expr.(*ColRef)
		switch {
		case !ok:
		case strings.EqualFold(cr.Table, t0.Alias):
			return 0, cr
		case strings.EqualFold(cr.Table, t1.Alias):
			return 1, cr
		}
		return -1, nil
	}
	return -1, nil
}

// ExplainHashJoin renders the join-key equality of a statement the
// executor runs as a hash join; ok is false for any other statement.
func ExplainHashJoin(stmt Statement) (string, bool) {
	s, ok := stmt.(*Select)
	if !ok {
		return "", false
	}
	h := recognizeHashJoin(s)
	if h == nil {
		return "", false
	}
	return xquery.Unparse(h.l) + " = " + xquery.Unparse(h.r), true
}

// candidates computes, for each outer row, the ascending positions of the
// inner rows that share one of its join keys. The inner keys go into a
// map from key to row positions; each outer row then unions the lists of
// its own keys. ok=false means a key was not an xs:double or failed to
// evaluate: the caller runs the nested loop, which reproduces exactly the
// rows or the error the statement has without the hash. A guard violation
// is returned as err and never falls back.
func (h *hashJoin) candidates(e *Executor, tabs []*fromTable) (cand [][]int, ok bool, err error) {
	probeCol := columnIndex(tabs[0].cols, h.side[0].column)
	buildCol := columnIndex(tabs[1].cols, h.side[1].column)
	if probeCol < 0 || buildCol < 0 {
		return nil, false, nil
	}
	var keys []float64
	index := map[float64][]int{}
	for j, row := range tabs[1].rows {
		if err := e.Guard.Step(); err != nil {
			return nil, false, err
		}
		if keys, ok, err = h.side[1].keys(e, row.Cells[buildCol], keys[:0]); !ok {
			return nil, false, err
		}
		for _, k := range keys {
			if pos := index[k]; len(pos) == 0 || pos[len(pos)-1] != j {
				index[k] = append(pos, j)
			}
		}
	}
	cand = make([][]int, len(tabs[0].rows))
	for i, row := range tabs[0].rows {
		if err := e.Guard.Step(); err != nil {
			return nil, false, err
		}
		if keys, ok, err = h.side[0].keys(e, row.Cells[probeCol], keys[:0]); !ok {
			return nil, false, err
		}
		cand[i] = unionPositions(index, keys)
	}
	return cand, true, nil
}

// columnIndex finds a column by name the way resolveColumn does; -1 when
// it is absent or ambiguous, which the nested loop reports.
func columnIndex(cols []string, name string) int {
	found := -1
	for ci, cn := range cols {
		if strings.EqualFold(cn, name) {
			if found >= 0 {
				return -1
			}
			found = ci
		}
	}
	return found
}

// keys appends the join keys of one row's PASSING cell to buf. ok=false
// with a nil err means the fast path does not apply (see candidates).
func (k *joinKey) keys(e *Executor, cell storage.Cell, buf []float64) ([]float64, bool, error) {
	vars := xquery.StaticVars{k.name: xqueryValue(storageCellToResult(cell))}
	if k.items == nil {
		seq, err := xquery.EvalGuarded(k.key, vars, e.Coll, e.Guard)
		if err != nil {
			return nil, false, guardOnly(err)
		}
		buf, ok := appendKeys(buf, seq)
		return buf, ok, nil
	}
	items, err := xquery.EvalGuarded(k.items, vars, e.Coll, e.Guard)
	if err != nil {
		return nil, false, guardOnly(err)
	}
	for _, it := range items {
		seq, err := xquery.EvalWithContextGuarded(k.key, it, vars, e.Coll, e.Guard)
		if err != nil {
			return nil, false, guardOnly(err)
		}
		var ok bool
		if buf, ok = appendKeys(buf, seq); !ok {
			return nil, false, nil
		}
	}
	return buf, true, nil
}

// guardOnly keeps a guard violation and drops any other evaluation
// error: the nested-loop fallback reports those itself, at the pair
// where they arise.
func guardOnly(err error) error {
	if _, ok := guard.AsViolation(err); ok {
		return err
	}
	return nil
}

// appendKeys atomizes seq onto buf. Only xs:double keys take the fast
// path; NaN equals nothing and is dropped, and -0 is folded onto +0,
// which it equals.
func appendKeys(buf []float64, seq xdm.Sequence) ([]float64, bool) {
	atoms, err := xdm.Atomize(seq)
	if err != nil {
		return nil, false
	}
	for _, it := range atoms {
		v := it.(xdm.Value)
		if v.T != xdm.Double {
			return nil, false
		}
		switch f := v.F; {
		case math.IsNaN(f):
		case f == 0:
			buf = append(buf, 0)
		default:
			buf = append(buf, f)
		}
	}
	return buf, true
}

// unionPositions merges the inner-row positions of keys into one
// ascending, duplicate-free list. A single key's list is shared, not
// copied: candidate lists are read-only.
func unionPositions(index map[float64][]int, keys []float64) []int {
	switch len(keys) {
	case 0:
		return nil
	case 1:
		return index[keys[0]]
	}
	var out []int
	for _, k := range keys {
		out = append(out, index[k]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}
