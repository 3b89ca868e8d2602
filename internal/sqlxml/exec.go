package sqlxml

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xquery"
)

// Executor runs SQL statements against a catalog. Coll resolves
// db2-fn:xmlcolumn references inside embedded XQuery expressions. Guard,
// when non-nil, bounds one query's execution: the engine installs a
// per-query copy of the executor rather than mutating a shared one.
type Executor struct {
	Catalog *storage.Catalog
	Coll    xquery.CollectionResolver
	Guard   *guard.Guard
	// Parallel caps the shard count for partitioning a SELECT's outer
	// base-table scan (guard.Shards); <= 1 runs serially. Shard results
	// are gathered in shard order, so output is byte-identical to the
	// serial order.
	Parallel int
}

// ResultCell is one output cell: NULL, a SQL scalar, or an XML value
// (an XDM sequence).
type ResultCell struct {
	Null  bool
	V     xdm.Value
	IsXML bool
	XML   xdm.Sequence
}

// String renders the cell the way the shell prints it.
func (c ResultCell) String() string {
	switch {
	case c.Null:
		return "NULL"
	case c.IsXML:
		return xdm.SerializeSequence(c.XML)
	default:
		return c.V.Lexical()
	}
}

// Result is a statement result.
type Result struct {
	Columns []string
	Rows    [][]ResultCell
	// RowsScanned counts base-table rows visited, the measure the
	// Definition-1 pre-filter reduces.
	RowsScanned int
	// ParallelShards is the shard count the outer scan used (0 or 1 =
	// serial).
	ParallelShards int
	// HashJoin reports that the statement ran as a hash join (see
	// hashJoin) rather than a nested loop; JoinCandidates then counts the
	// row pairs it re-checked.
	HashJoin       bool
	JoinCandidates int
}

// Prefilter restricts which rows of FROM tables are scanned: it maps a
// FROM-item position to the sorted posting list of admissible row ids.
// Installed by the engine planner when an XML index is eligible
// (Definition 1). A missing (nil) entry means no filter; an empty
// non-nil list filters everything.
type Prefilter map[int]postings.List

// binding is one FROM item's contribution to the current join row.
type binding struct {
	alias string
	cols  []string
	cells []ResultCell
}

// Exec runs any statement with no prefilter.
func (e *Executor) Exec(stmt Statement) (*Result, error) {
	return e.ExecFiltered(stmt, nil)
}

// ExecFiltered runs a statement with an optional table prefilter.
func (e *Executor) ExecFiltered(stmt Statement, pf Prefilter) (*Result, error) {
	switch s := stmt.(type) {
	case *CreateTable:
		_, err := e.Catalog.CreateTable(s.Name, s.Columns)
		return &Result{}, err
	case *CreateIndex:
		return e.execCreateIndex(s)
	case *Insert:
		return e.execInsert(s)
	case *Select:
		return e.execSelect(s, pf)
	case *Values:
		return e.execValues(s)
	case *Delete:
		return e.execDelete(s)
	case *Explain:
		// The engine planner unwraps EXPLAIN before execution; a bare
		// executor has no plan to render.
		return nil, fmt.Errorf("EXPLAIN requires the engine planner")
	case *DropTable:
		return &Result{}, e.Catalog.DropTable(s.Name)
	case *DropIndex:
		for _, tab := range e.Catalog.Tables() {
			if tab.DropIndex(s.Name) {
				return &Result{}, nil
			}
		}
		return nil, fmt.Errorf("unknown index %s", s.Name)
	}
	return nil, fmt.Errorf("unsupported statement %T", stmt)
}

// execDelete removes the rows matching the predicate, maintaining every
// index on the table.
func (e *Executor) execDelete(s *Delete) (*Result, error) {
	tab, err := e.Catalog.Table(s.Table)
	if err != nil {
		return nil, err
	}
	cols := columnNames(tab)
	var doomed []uint32
	for _, row := range tab.Rows() {
		if err := e.Guard.Step(); err != nil {
			return nil, err
		}
		if s.Where != nil {
			cells := make([]ResultCell, len(row.Cells))
			for ci, cell := range row.Cells {
				cells[ci] = storageCellToResult(cell)
			}
			env := []binding{{alias: tab.Name, cols: cols, cells: cells}}
			keep, err := e.evalPredicate(s.Where, env)
			if err != nil {
				return nil, err
			}
			if !keep {
				continue
			}
		}
		doomed = append(doomed, row.ID)
	}
	for _, id := range doomed {
		if err := tab.Delete(id); err != nil {
			return nil, err
		}
	}
	return &Result{RowsScanned: len(doomed)}, nil
}

func (e *Executor) execCreateIndex(s *CreateIndex) (*Result, error) {
	tab, err := e.Catalog.Table(s.Table)
	if err != nil {
		return nil, err
	}
	if s.IsXML {
		_, err = tab.CreateXMLIndex(s.Name, s.Column, s.Pattern, s.XMLType)
	} else {
		_, err = tab.CreateRelIndex(s.Name, s.Column)
	}
	return &Result{}, err
}

func (e *Executor) execInsert(s *Insert) (*Result, error) {
	tab, err := e.Catalog.Table(s.Table)
	if err != nil {
		return nil, err
	}
	colIdx := make([]int, 0, len(s.Columns))
	if s.Columns != nil {
		for _, c := range s.Columns {
			i, err := tab.ColumnIndex(c)
			if err != nil {
				return nil, err
			}
			colIdx = append(colIdx, i)
		}
	}
	for _, row := range s.Rows {
		cells := make([]storage.Cell, len(tab.Columns))
		for i := range cells {
			cells[i].Null = true
		}
		if s.Columns == nil {
			if len(row) != len(tab.Columns) {
				return nil, fmt.Errorf("insert into %s: %d values for %d columns", s.Table, len(row), len(tab.Columns))
			}
			for i, ex := range row {
				c, err := e.exprToCell(ex)
				if err != nil {
					return nil, err
				}
				cells[i] = c
			}
		} else {
			if len(row) != len(s.Columns) {
				return nil, fmt.Errorf("insert into %s: %d values for %d columns", s.Table, len(row), len(s.Columns))
			}
			for i, ex := range row {
				c, err := e.exprToCell(ex)
				if err != nil {
					return nil, err
				}
				cells[colIdx[i]] = c
			}
		}
		if _, err := tab.Insert(cells); err != nil {
			return nil, err
		}
	}
	return &Result{}, nil
}

// exprToCell evaluates an INSERT value expression (literals and NULL).
func (e *Executor) exprToCell(ex Expr) (storage.Cell, error) {
	v, err := e.evalExpr(ex, nil)
	if err != nil {
		return storage.Cell{}, err
	}
	if v.Null {
		return storage.Cell{Null: true}, nil
	}
	if v.IsXML {
		if len(v.XML) == 1 {
			if n, ok := v.XML[0].(*xdm.Node); ok {
				return storage.Cell{Doc: n.Root()}, nil
			}
		}
		return storage.Cell{}, fmt.Errorf("cannot store a general XML sequence")
	}
	return storage.Cell{V: v.V}, nil
}

func (e *Executor) execValues(s *Values) (*Result, error) {
	res := &Result{}
	var row []ResultCell
	for i, ex := range s.Exprs {
		res.Columns = append(res.Columns, fmt.Sprintf("col%d", i+1))
		v, err := e.evalExpr(ex, nil)
		if err != nil {
			return nil, err
		}
		row = append(row, v)
	}
	res.Rows = append(res.Rows, row)
	return res, nil
}

func (e *Executor) execSelect(s *Select, pf Prefilter) (*Result, error) {
	// Every FROM table's rows are resolved once per statement — by id
	// when the pre-filter names them, so a selective SELECT never copies
	// or visits the rest of the table — and every outer row and shard
	// joins against that one snapshot.
	tabs := make([]*fromTable, len(s.From))
	for i, fi := range s.From {
		if ft, ok := fi.(*FromTable); ok {
			tab, err := e.Catalog.Table(ft.Table)
			if err != nil {
				return nil, err
			}
			tabs[i] = &fromTable{cols: columnNames(tab), rows: tableRows(tab, pf[i])}
		}
	}
	res := &Result{}
	// Resolve output column names first.
	for i, item := range s.Items {
		switch {
		case item.Star:
			for fi, t := range tabs {
				if t == nil {
					res.Columns = append(res.Columns, xmlTableColNames(s.From[fi].(*FromXMLTable))...)
					continue
				}
				res.Columns = append(res.Columns, t.cols...)
			}
		case item.Alias != "":
			res.Columns = append(res.Columns, item.Alias)
		default:
			if cr, ok := item.Expr.(*ColRef); ok {
				res.Columns = append(res.Columns, cr.Column)
			} else {
				res.Columns = append(res.Columns, fmt.Sprintf("col%d", i+1))
			}
		}
	}

	// A recognised XMLExists equality join (hashJoin) computes each outer
	// row's candidate inner rows up front. The join loop runs in one
	// worker per shard of the outer rows (counted after the pre-filter)
	// and their candidate lists — guard.Shards decides how many; shard
	// outputs concatenate in shard order, which reproduces the serial row
	// order exactly. Workers share the guard (atomic counters) and an
	// output-row count for the result-item limit.
	var outer []storage.Row
	if len(tabs) > 0 && tabs[0] != nil {
		outer = tabs[0].rows
	}
	var cand [][]int
	if hj := recognizeHashJoin(s); hj != nil {
		c, ok, err := hj.candidates(e, tabs)
		if err != nil {
			return nil, err
		}
		if ok {
			cand = c
			res.HashJoin = true
			// Each inner row was visited once, to compute its keys.
			res.RowsScanned = len(tabs[1].rows)
			for _, c := range cand {
				res.JoinCandidates += len(c)
			}
		}
	}
	var emitted atomic.Int64
	workers, err := guard.Shards(e.Parallel, len(outer), func(lo, hi int) (selectWorker, error) {
		w := selectWorker{e: e, s: s, tabs: tabs, outCols: res.Columns, emitted: &emitted, outer: outer[lo:hi]}
		if cand != nil {
			w.cand = cand[lo:hi]
		}
		err := w.loop(0) // before w is copied out: loop fills it
		return w, err
	})
	if err != nil {
		return nil, err
	}
	res.ParallelShards = len(workers)
	var keyed []keyedRow
	for i := range workers {
		w := &workers[i]
		res.Rows = append(res.Rows, w.rows...)
		keyed = append(keyed, w.keyed...)
		res.RowsScanned += w.scanned
	}
	if len(s.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(keyed, func(a, b int) bool {
			for k, ob := range s.OrderBy {
				c, err := compareCells(keyed[a].keys[k], keyed[b].keys[k])
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if ob.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for _, kr := range keyed {
			res.Rows = append(res.Rows, kr.cells)
		}
	}
	if s.Limit >= 0 && len(res.Rows) > s.Limit {
		res.Rows = res.Rows[:s.Limit]
	}
	return res, nil
}

// fromTable is one FROM table resolved for a statement: its column names
// and a single snapshot of the rows it contributes.
type fromTable struct {
	cols []string
	rows []storage.Row
}

// tableRows snapshots the rows one FROM table contributes to a scan: the
// whole table, or — when the pre-filter names the admissible ids — just
// those rows, fetched by id in row order.
func tableRows(tab *storage.Table, allowed postings.List) []storage.Row {
	if allowed != nil {
		return tab.RowsByID(allowed)
	}
	return tab.Rows()
}

func columnNames(tab *storage.Table) []string {
	cols := make([]string, len(tab.Columns))
	for i, c := range tab.Columns {
		cols[i] = c.Name
	}
	return cols
}

// keyedRow pairs an output row with its ORDER BY keys.
type keyedRow struct {
	cells []ResultCell
	keys  []ResultCell
}

// selectWorker evaluates the join loop for one shard of the outer table
// (or the whole table when running serially). Each worker accumulates
// its own output so no synchronization happens on the hot path; the
// shared emitted counter feeds the guard's result-item limit with the
// global count.
type selectWorker struct {
	e       *Executor
	s       *Select
	tabs    []*fromTable // per FROM item; nil for XMLTable items
	outCols []string
	emitted *atomic.Int64
	// outer holds this worker's rows of the first FROM table (its shard,
	// or all of them when serial).
	outer []storage.Row
	// cand, under a hash join, lists each outer row's candidate inner-row
	// positions (parallel to outer); nil runs the nested loop.
	cand [][]int
	oi   int // the current outer row's position in outer

	env     []binding
	rows    [][]ResultCell
	keyed   []keyedRow
	scanned int
}

// loop recurses over the FROM items. The first FROM table scans the
// worker's outer rows; later ones scan the statement's snapshot of their
// table, or — under a hash join — just the outer row's candidates. Each
// visited row costs one guard step, so a pre-filter that keeps few rows
// also spends few steps.
func (w *selectWorker) loop(i int) error {
	e, s := w.e, w.s
	if i == len(s.From) {
		return w.emit()
	}
	switch fi := s.From[i].(type) {
	case *FromTable:
		t := w.tabs[i]
		if i == 1 && w.cand != nil {
			// The inner rows were counted once, when their keys were
			// built; emit re-checks each candidate with the full XMLExists.
			for _, j := range w.cand[w.oi] {
				if err := e.Guard.Step(); err != nil {
					return err
				}
				if err := w.bind(i, fi.Alias, t.cols, t.rows[j]); err != nil {
					return err
				}
			}
			return nil
		}
		rows := t.rows
		if i == 0 {
			rows = w.outer
		}
		for ri, row := range rows {
			if err := e.Guard.Step(); err != nil {
				return err
			}
			w.scanned++
			if i == 0 {
				w.oi = ri
			}
			if err := w.bind(i, fi.Alias, t.cols, row); err != nil {
				return err
			}
		}
		return nil
	case *FromXMLTable:
		rows, cols, err := e.evalXMLTable(fi, w.env)
		if err != nil {
			return err
		}
		for _, cells := range rows {
			w.env = append(w.env, binding{alias: fi.Alias, cols: cols, cells: cells})
			if err := w.loop(i + 1); err != nil {
				return err
			}
			w.env = w.env[:len(w.env)-1]
		}
		return nil
	}
	return fmt.Errorf("unsupported FROM item")
}

// bind adds one base row to the current join row and recurses into the
// next FROM item.
func (w *selectWorker) bind(i int, alias string, cols []string, row storage.Row) error {
	cells := make([]ResultCell, len(row.Cells))
	for ci, cell := range row.Cells {
		cells[ci] = storageCellToResult(cell)
	}
	w.env = append(w.env, binding{alias: alias, cols: cols, cells: cells})
	if err := w.loop(i + 1); err != nil {
		return err
	}
	w.env = w.env[:len(w.env)-1]
	return nil
}

// emit evaluates WHERE and the select list for the current join row.
func (w *selectWorker) emit() error {
	e, s := w.e, w.s
	if s.Where != nil {
		keep, err := e.evalPredicate(s.Where, w.env)
		if err != nil {
			return err
		}
		if !keep {
			return nil
		}
	}
	var out []ResultCell
	for _, item := range s.Items {
		if item.Star {
			for _, b := range w.env {
				out = append(out, b.cells...)
			}
			continue
		}
		v, err := e.evalExpr(item.Expr, w.env)
		if err != nil {
			return err
		}
		out = append(out, v)
	}
	if len(s.OrderBy) > 0 {
		kr := keyedRow{cells: out}
		for _, ob := range s.OrderBy {
			// A bare name matching a select-list alias refers to the
			// output column (standard SQL).
			if cr, ok := ob.Expr.(*ColRef); ok && cr.Table == "" {
				if idx := outputColumn(w.outCols, cr.Column); idx >= 0 && idx < len(out) {
					kr.keys = append(kr.keys, out[idx])
					continue
				}
			}
			k, err := e.evalExpr(ob.Expr, w.env)
			if err != nil {
				return err
			}
			kr.keys = append(kr.keys, k)
		}
		w.keyed = append(w.keyed, kr)
		return e.Guard.Items(int(w.emitted.Add(1)))
	}
	w.rows = append(w.rows, out)
	return e.Guard.Items(int(w.emitted.Add(1)))
}

// outputColumn finds a select-list column by name (-1 if absent). Star
// items expand column lists, so positions line up with output cells only
// when no star precedes; star selects rarely pair with aliases.
func outputColumn(cols []string, name string) int {
	for i, c := range cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// compareCells orders two cells under SQL rules; NULLs sort last.
func compareCells(a, b ResultCell) (int, error) {
	switch {
	case a.Null && b.Null:
		return 0, nil
	case a.Null:
		return 1, nil
	case b.Null:
		return -1, nil
	case a.IsXML || b.IsXML:
		return 0, fmt.Errorf("cannot order by an XML value; apply XMLCAST")
	}
	lt, err := xdm.SQLCompare(xdm.OpLt, a.V, b.V)
	if err != nil {
		return 0, err
	}
	if lt {
		return -1, nil
	}
	gt, err := xdm.SQLCompare(xdm.OpGt, a.V, b.V)
	if err != nil {
		return 0, err
	}
	if gt {
		return 1, nil
	}
	return 0, nil
}

func storageCellToResult(cell storage.Cell) ResultCell {
	switch {
	case cell.Null:
		return ResultCell{Null: true}
	case cell.Doc != nil:
		return ResultCell{IsXML: true, XML: xdm.Sequence{cell.Doc}}
	default:
		return ResultCell{V: cell.V}
	}
}

func xmlTableColNames(xt *FromXMLTable) []string {
	names := make([]string, len(xt.Columns))
	for i, c := range xt.Columns {
		if i < len(xt.ColNames) {
			names[i] = xt.ColNames[i]
		} else {
			names[i] = c.Name
		}
	}
	return names
}

// evalXMLTable computes the XMLTable function for the current outer row.
// The row-producer's items become context items of the column PATH
// expressions; an empty column result is NULL, so column predicates never
// reduce the row count (§3.2).
func (e *Executor) evalXMLTable(xt *FromXMLTable, env []binding) ([][]ResultCell, []string, error) {
	vars, err := e.passingVars(xt.Passing, env)
	if err != nil {
		return nil, nil, err
	}
	items, err := xquery.EvalGuarded(xt.RowModule, vars, e.Coll, e.Guard)
	if err != nil {
		return nil, nil, fmt.Errorf("XMLTable row expression: %w", err)
	}
	names := xmlTableColNames(xt)
	var rows [][]ResultCell
	for itemIdx, item := range items {
		cells := make([]ResultCell, len(xt.Columns))
		for ci, col := range xt.Columns {
			if col.Ordinality {
				cells[ci] = ResultCell{V: xdm.NewInteger(int64(itemIdx + 1))}
				continue
			}
			seq, err := xquery.EvalWithContextGuarded(col.PathModule, item, vars, e.Coll, e.Guard)
			if err != nil {
				return nil, nil, fmt.Errorf("XMLTable column %s: %w", col.Name, err)
			}
			if len(seq) == 0 {
				cells[ci] = ResultCell{Null: true}
				continue
			}
			if col.Type == storage.XML {
				out := seq
				if !col.ByRef {
					// BY VALUE: copy nodes, losing identity and parents.
					out = make(xdm.Sequence, len(seq))
					for i, it := range seq {
						if n, ok := it.(*xdm.Node); ok {
							out[i] = n.Copy()
						} else {
							out[i] = it
						}
					}
				}
				cells[ci] = ResultCell{IsXML: true, XML: out}
				continue
			}
			v, err := sequenceToSQL(seq, col.Type, col.Size)
			if err != nil {
				return nil, nil, fmt.Errorf("XMLTable column %s: %w", col.Name, err)
			}
			cells[ci] = v
		}
		rows = append(rows, cells)
	}
	return rows, names, nil
}

// sequenceToSQL converts an XDM sequence to a SQL scalar: singleton
// atomized and cast; a longer sequence is a type error.
func sequenceToSQL(seq xdm.Sequence, t storage.ColumnType, size int) (ResultCell, error) {
	a, err := xdm.Atomize(seq)
	if err != nil {
		return ResultCell{}, err
	}
	if len(a) == 0 {
		return ResultCell{Null: true}, nil
	}
	if len(a) > 1 {
		return ResultCell{}, fmt.Errorf("XML value has %d items; a SQL scalar requires exactly one", len(a))
	}
	v, err := a[0].(xdm.Value).Cast(t.XDMType())
	if err != nil {
		return ResultCell{}, err
	}
	if t == storage.Varchar && size > 0 && len(v.S) > size {
		return ResultCell{}, fmt.Errorf("value %q exceeds varchar(%d)", v.S, size)
	}
	return ResultCell{V: v}, nil
}

// passingVars evaluates PASSING bindings into XQuery external variables.
// Scalar values keep their SQL-derived XDM types, which is how the
// compiler learns comparison types from the SQL side (§3.3).
func (e *Executor) passingVars(items []PassItem, env []binding) (xquery.StaticVars, error) {
	vars := xquery.StaticVars{}
	for _, it := range items {
		v, err := e.evalExpr(it.Expr, env)
		if err != nil {
			return nil, err
		}
		vars[it.As] = xqueryValue(v)
	}
	return vars, nil
}

// xqueryValue is the XQuery value a PASSING cell binds: the empty
// sequence for NULL, the XML sequence, or the scalar as one atomic item.
func xqueryValue(v ResultCell) xdm.Sequence {
	switch {
	case v.Null:
		return nil
	case v.IsXML:
		return v.XML
	default:
		return xdm.Sequence{v.V}
	}
}

// evalPredicate evaluates a WHERE predicate with SQL three-valued logic;
// unknown filters the row.
func (e *Executor) evalPredicate(ex Expr, env []binding) (bool, error) {
	tv, err := e.evalTruth(ex, env)
	if err != nil {
		return false, err
	}
	return tv == truthTrue, nil
}

type truth uint8

const (
	truthFalse truth = iota
	truthTrue
	truthUnknown
)

func (e *Executor) evalTruth(ex Expr, env []binding) (truth, error) {
	switch x := ex.(type) {
	case *Logical:
		l, err := e.evalTruth(x.Left, env)
		if err != nil {
			return truthFalse, err
		}
		r, err := e.evalTruth(x.Right, env)
		if err != nil {
			return truthFalse, err
		}
		if x.Op == "and" {
			switch {
			case l == truthFalse || r == truthFalse:
				return truthFalse, nil
			case l == truthTrue && r == truthTrue:
				return truthTrue, nil
			}
			return truthUnknown, nil
		}
		switch {
		case l == truthTrue || r == truthTrue:
			return truthTrue, nil
		case l == truthFalse && r == truthFalse:
			return truthFalse, nil
		}
		return truthUnknown, nil
	case *Not:
		t, err := e.evalTruth(x.Operand, env)
		if err != nil {
			return truthFalse, err
		}
		switch t {
		case truthTrue:
			return truthFalse, nil
		case truthFalse:
			return truthTrue, nil
		}
		return truthUnknown, nil
	case *IsNull:
		v, err := e.evalExpr(x.Operand, env)
		if err != nil {
			return truthFalse, err
		}
		if v.Null != x.Negate {
			return truthTrue, nil
		}
		return truthFalse, nil
	case *Compare:
		l, err := e.evalExpr(x.Left, env)
		if err != nil {
			return truthFalse, err
		}
		r, err := e.evalExpr(x.Right, env)
		if err != nil {
			return truthFalse, err
		}
		if l.Null || r.Null {
			return truthUnknown, nil
		}
		if l.IsXML || r.IsXML {
			return truthFalse, fmt.Errorf("cannot compare XML values with SQL comparison operators; use XMLEXISTS or XMLCAST")
		}
		ok, err := xdm.SQLCompare(x.Op, l.V, r.V)
		if err != nil {
			return truthFalse, err
		}
		if ok {
			return truthTrue, nil
		}
		return truthFalse, nil
	case *XMLExistsExpr:
		vars, err := e.passingVars(x.Passing, env)
		if err != nil {
			return truthFalse, err
		}
		seq, err := xquery.EvalGuarded(x.Module, vars, e.Coll, e.Guard)
		if err != nil {
			return truthFalse, fmt.Errorf("XMLEXISTS: %w", err)
		}
		if len(seq) > 0 {
			return truthTrue, nil
		}
		return truthFalse, nil
	default:
		v, err := e.evalExpr(ex, env)
		if err != nil {
			return truthFalse, err
		}
		if v.Null {
			return truthUnknown, nil
		}
		if v.V.T == xdm.Boolean {
			if v.V.B {
				return truthTrue, nil
			}
			return truthFalse, nil
		}
		return truthFalse, fmt.Errorf("predicate does not evaluate to a boolean")
	}
}

func (e *Executor) evalExpr(ex Expr, env []binding) (ResultCell, error) {
	switch x := ex.(type) {
	case *Literal:
		return ResultCell{V: x.V}, nil
	case *Null:
		return ResultCell{Null: true}, nil
	case *ColRef:
		return resolveColumn(x, env)
	case *XMLQueryExpr:
		vars, err := e.passingVars(x.Passing, env)
		if err != nil {
			return ResultCell{}, err
		}
		seq, err := xquery.EvalGuarded(x.Module, vars, e.Coll, e.Guard)
		if err != nil {
			return ResultCell{}, fmt.Errorf("XMLQUERY: %w", err)
		}
		return ResultCell{IsXML: true, XML: seq}, nil
	case *XMLCastExpr:
		v, err := e.evalExpr(x.Operand, env)
		if err != nil {
			return ResultCell{}, err
		}
		if v.Null {
			return ResultCell{Null: true}, nil
		}
		if v.IsXML {
			return sequenceToSQL(v.XML, x.Type, x.Size)
		}
		cv, err := v.V.Cast(x.Type.XDMType())
		if err != nil {
			return ResultCell{}, err
		}
		if x.Type == storage.Varchar && x.Size > 0 && len(cv.S) > x.Size {
			return ResultCell{}, fmt.Errorf("value %q exceeds varchar(%d)", cv.S, x.Size)
		}
		return ResultCell{V: cv}, nil
	case *XMLParseExpr:
		v, err := e.evalExpr(x.Operand, env)
		if err != nil {
			return ResultCell{}, err
		}
		if v.Null {
			return ResultCell{Null: true}, nil
		}
		if v.IsXML {
			return v, nil
		}
		maxDepth, maxBytes := e.Guard.ParseLimits()
		doc, err := xmlparse.ParseLimited(v.V.Lexical(), xmlparse.Limits{MaxDepth: maxDepth, MaxBytes: maxBytes})
		if err != nil {
			if errors.Is(err, xmlparse.ErrLimit) {
				return ResultCell{}, &guard.Violation{Kind: guard.LimitExceeded, Msg: err.Error()}
			}
			return ResultCell{}, fmt.Errorf("XMLPARSE: %w", err)
		}
		return ResultCell{IsXML: true, XML: xdm.Sequence{doc}}, nil
	case *XMLSerializeExpr:
		v, err := e.evalExpr(x.Operand, env)
		if err != nil {
			return ResultCell{}, err
		}
		if v.Null {
			return ResultCell{Null: true}, nil
		}
		var s string
		if v.IsXML {
			s = xdm.SerializeSequence(v.XML)
		} else {
			s = v.V.Lexical()
		}
		if x.Size > 0 && len(s) > x.Size {
			return ResultCell{}, fmt.Errorf("XMLSERIALIZE: value length %d exceeds varchar(%d)", len(s), x.Size)
		}
		return ResultCell{V: xdm.NewString(s)}, nil
	case *Compare, *Logical, *Not, *IsNull, *XMLExistsExpr:
		t, err := e.evalTruth(ex, env)
		if err != nil {
			return ResultCell{}, err
		}
		if t == truthUnknown {
			return ResultCell{Null: true}, nil
		}
		return ResultCell{V: xdm.NewBoolean(t == truthTrue)}, nil
	}
	return ResultCell{}, fmt.Errorf("unsupported expression %T", ex)
}

// resolveColumn finds a column in the bindings; a qualified reference
// matches its alias, an unqualified one must be unambiguous.
func resolveColumn(cr *ColRef, env []binding) (ResultCell, error) {
	var found *ResultCell
	for bi := range env {
		b := &env[bi]
		if cr.Table != "" && !strings.EqualFold(b.alias, cr.Table) {
			continue
		}
		for ci, cn := range b.cols {
			if strings.EqualFold(cn, cr.Column) {
				if found != nil {
					return ResultCell{}, fmt.Errorf("ambiguous column reference %s", cr.Column)
				}
				c := b.cells[ci]
				found = &c
			}
		}
	}
	if found == nil {
		name := cr.Column
		if cr.Table != "" {
			name = cr.Table + "." + cr.Column
		}
		return ResultCell{}, fmt.Errorf("unknown column %s", name)
	}
	return *found, nil
}
