// Package storage implements tables with relational and XML-typed
// columns, row storage, relational B-tree indexes, and XML value index
// maintenance. An XML column stores parsed XDM document trees; as in the
// paper's system, schemas associate with documents, not columns, so one
// column freely mixes validated and non-validated documents of different
// schema versions.
package storage

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/xqdb/xqdb/internal/btree"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/synopsis"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

// ColumnType enumerates SQL column types.
type ColumnType uint8

// Column types.
const (
	Integer ColumnType = iota
	Double
	Varchar
	Date
	Timestamp
	Decimal
	XML
)

var columnTypeNames = [...]string{"integer", "double", "varchar", "date", "timestamp", "decimal", "xml"}

func (t ColumnType) String() string { return columnTypeNames[t] }

// ColumnTypeByName resolves a DDL type name (case-insensitive).
func ColumnTypeByName(name string) (ColumnType, bool) {
	name = strings.ToLower(name)
	for t, n := range columnTypeNames {
		if n == name {
			return ColumnType(t), true
		}
	}
	return 0, false
}

// XDMType maps a SQL column type to the XDM type its values carry.
func (t ColumnType) XDMType() xdm.Type {
	switch t {
	case Integer:
		return xdm.Integer
	case Double:
		return xdm.Double
	case Decimal:
		return xdm.Decimal
	case Date:
		return xdm.Date
	case Timestamp:
		return xdm.DateTime
	default:
		return xdm.String
	}
}

// Column describes one table column.
type Column struct {
	Name string
	Type ColumnType
	Size int // varchar/decimal length limit; 0 = unlimited
}

// Cell is one stored value: NULL, a scalar, or an XML document.
type Cell struct {
	Null bool
	V    xdm.Value // scalar columns
	Doc  *xdm.Node // XML columns (a document node)
}

// Row is one table row. ID doubles as the document id of the row's XML
// cells in XML indexes.
type Row struct {
	ID    uint32
	Cells []Cell
}

// Table is one table: columns, rows, and indexes.
type Table struct {
	Name    string
	Columns []Column

	mu     sync.RWMutex
	rows   []Row
	byID   map[uint32]int // row id -> index into rows
	nextID uint32

	xmlIndexes []*XMLIndex
	relIndexes []*RelIndex

	// syns holds one path synopsis per column (nil for non-XML columns),
	// parallel to Columns and immutable after CreateTable — only the
	// synopses' contents change, under their own locks. Each is built
	// over its column's path dictionary, which the column's XML indexes
	// share (CreateXMLIndex).
	syns []*synopsis.Synopsis

	// docs counts stored documents per column — exactly what Collection
	// returns — so a query learns a column's size without copying it.
	// annotated counts the subset whose root carries a schema-validation
	// stamp: typed values can raise comparison errors the tolerant index
	// never recorded, so one annotated document disables index-only
	// answers for the whole column. Both are parallel to Columns and
	// guarded by mu; countDoc is their only writer.
	docs      []int
	annotated []int

	// catVersion points at the owning catalog's schema version counter;
	// index DDL on this table bumps it. Nil for tables created outside a
	// catalog (tests).
	catVersion *atomic.Uint64
	// metrics is the owning catalog's registry (nil outside an engine);
	// indexes created on this table are instrumented against it.
	metrics *metrics.Registry
}

// bumpVersion records a schema change against the owning catalog.
func (t *Table) bumpVersion() {
	if t.catVersion != nil {
		t.catVersion.Add(1)
	}
}

// XMLIndex couples an xmlindex.Index with the column it indexes.
type XMLIndex struct {
	Name   string
	Column string
	Index  *xmlindex.Index
	col    int // Column's position
}

// RelIndex is a relational single-column B-tree index.
type RelIndex struct {
	Name     string
	Column   string
	tree     *btree.Tree
	table    *Table
	col      int
	mLookups *metrics.Counter
}

// Catalog is the set of tables.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	// version counts schema changes: CREATE/DROP TABLE and CREATE/DROP
	// INDEX on any table of this catalog. Cached query plans embed the
	// version they were built against and are invalidated when it moves.
	// Data changes (insert/delete) do not bump it — plans hold live table
	// and index objects, not data snapshots — with one exception: a
	// change to a column's path *set* (a new distinct path appearing, or
	// the last node of a path disappearing) bumps it, because cached
	// plans embed synopsis-driven probe short-circuits that are only
	// sound against the path set they were decided on. Count-only
	// changes leave cached selectivity estimates stale, which can only
	// reorder probes, never change results.
	version atomic.Uint64
	// metrics, when set via SetMetrics, instruments indexes created
	// through this catalog.
	metrics *metrics.Registry
}

// SetMetrics attaches a metrics registry: indexes created on tables of
// this catalog from now on feed it (xmlindex.*, btree.*, relindex.*
// instruments). Call once, right after NewCatalog and before any DDL —
// already-existing indexes are not retrofitted.
func (c *Catalog) SetMetrics(reg *metrics.Registry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.metrics = reg
	for _, t := range c.tables {
		t.metrics = reg
	}
}

// Version returns the current schema version counter.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{tables: map[string]*Table{}}
}

// CreateTable registers a new table.
func (c *Catalog) CreateTable(name string, cols []Column) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := c.tables[key]; ok {
		return nil, fmt.Errorf("table %s already exists", name)
	}
	seen := map[string]bool{}
	for _, col := range cols {
		k := strings.ToLower(col.Name)
		if seen[k] {
			return nil, fmt.Errorf("duplicate column %s in table %s", col.Name, name)
		}
		seen[k] = true
	}
	t := &Table{Name: strings.ToLower(name), Columns: cols, byID: map[uint32]int{}, nextID: 1,
		docs: make([]int, len(cols)), annotated: make([]int, len(cols)),
		catVersion: &c.version, metrics: c.metrics}
	t.syns = make([]*synopsis.Synopsis, len(cols))
	for i, col := range cols {
		if col.Type == XML {
			t.syns[i] = synopsis.New(pattern.NewDict())
			if c.metrics != nil {
				t.syns[i].Instrument(c.metrics.Gauge("synopsis.paths"))
			}
		}
	}
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// DropTable removes a table and takes what its indexes and synopses
// still count off the registry's gauges.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	key := strings.ToLower(name)
	t, ok := c.tables[key]
	if ok {
		delete(c.tables, key)
		c.version.Add(1)
	}
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("unknown table %s", name)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, xi := range t.xmlIndexes {
		xi.Index.Drop()
	}
	for _, s := range t.syns {
		s.Instrument(nil)
	}
	return nil
}

// Table resolves a table by name (case-insensitive).
func (c *Catalog) Table(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("unknown table %s", name)
	}
	return t, nil
}

// Tables lists all tables, sorted by name so callers that render the
// list (SHOW TABLES, the advisor's setup dump) see a stable order.
func (c *Catalog) Tables() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// xmlColumn resolves "TABLE.COLUMN" (case-insensitive) to an XML
// column: the one name resolution behind Collection, CollectionFiltered
// and DocCount.
func (c *Catalog) xmlColumn(name string) (*Table, int, error) {
	dot := strings.IndexByte(name, '.')
	if dot < 0 {
		return nil, 0, fmt.Errorf("db2-fn:xmlcolumn: argument %q must be TABLE.COLUMN", name)
	}
	t, err := c.Table(name[:dot])
	if err != nil {
		return nil, 0, err
	}
	ci, err := t.ColumnIndex(name[dot+1:])
	if err != nil {
		return nil, 0, err
	}
	if t.Columns[ci].Type != XML {
		return nil, 0, fmt.Errorf("db2-fn:xmlcolumn: %s is not an XML column", name)
	}
	return t, ci, nil
}

// openCollection is xmlColumn behind the storage.collection fault site,
// which every document accessor — filtered or not — fires.
func (c *Catalog) openCollection(name string) (*Table, int, error) {
	if err := guard.Fault("storage.collection:" + strings.ToLower(name)); err != nil {
		return nil, 0, err
	}
	return c.xmlColumn(name)
}

// Collection implements the db2-fn:xmlcolumn accessor: it resolves
// "TABLE.COLUMN" (case-insensitive) to the column's documents in row
// order, making Catalog usable as an xquery.CollectionResolver.
func (c *Catalog) Collection(name string) ([]*xdm.Node, error) {
	t, ci, err := c.openCollection(name)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	var docs []*xdm.Node
	//xqvet:unbounded-ok the CollectionResolver interface has no guard; the engine guards per document downstream
	for _, row := range t.rows {
		cell := row.Cells[ci]
		if !cell.Null && cell.Doc != nil {
			docs = append(docs, cell.Doc)
		}
	}
	return docs, nil
}

// CollectionFiltered is Collection restricted to the given row ids — the
// I(P, D) pre-filter of Definition 1 applied to a whole-column access.
// allowed is a sorted posting list; an empty (or nil) list admits no
// documents. The ids are resolved through the row-id map, so the cost
// is O(k log k) for k allowed ids, whatever the column's size; the
// documents still come back in row order.
func (c *Catalog) CollectionFiltered(name string, allowed postings.List) ([]*xdm.Node, error) {
	t, ci, err := c.openCollection(name)
	if err != nil {
		return nil, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	pos := t.positions(allowed)
	docs := make([]*xdm.Node, 0, len(pos))
	for _, p := range pos {
		if cell := t.rows[p].Cells[ci]; !cell.Null && cell.Doc != nil {
			docs = append(docs, cell.Doc)
		}
	}
	return docs, nil
}

// DocCount returns how many documents Collection(name) would return,
// read from a counter that Insert, Delete and BulkAppend maintain —
// no row is touched and nothing is copied.
func (c *Catalog) DocCount(name string) (int, error) {
	t, ci, err := c.xmlColumn(name)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.docs[ci], nil
}

// positions resolves row ids to row positions, in row order. Ids with no
// row — deleted, never issued, or reserved by a load that has not landed
// — are skipped. The result is sorted by position, never by id: an
// Insert that commits while a BulkAppend is staged takes a higher id but
// an earlier row, so id order and row order can disagree. This is the
// one by-ID access path behind CollectionFiltered and RowsByID, and it
// costs O(k log k) for k ids whatever the table's size. Callers hold
// t.mu.
func (t *Table) positions(ids postings.List) []int {
	pos := make([]int, 0, len(ids))
	//xqvet:unbounded-ok bounded by the posting list an index probe produced; the engine guards per document and per row downstream
	for _, id := range ids {
		if p, ok := t.byID[id]; ok {
			pos = append(pos, p)
		}
	}
	slices.Sort(pos)
	return pos
}

// Synopsis returns the path summary of an XML column, nil when the
// column does not exist or is not XML-typed. The synopsis is safe to
// read concurrently with table mutation; its counts always reflect
// committed documents.
func (t *Table) Synopsis(column string) *synopsis.Synopsis {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return nil
	}
	return t.syns[ci]
}

// ColumnIndex resolves a column name to its position.
func (t *Table) ColumnIndex(name string) (int, error) {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i, nil
		}
	}
	return 0, fmt.Errorf("unknown column %s.%s", t.Name, name)
}

// Insert appends a row. XML cells may be given as parsed documents or as
// string values (which are parsed here). Indexes are maintained; an index
// maintenance error (e.g. a list-typed node) rejects the insert.
func (t *Table) Insert(cells []Cell) (uint32, error) {
	if len(cells) != len(t.Columns) {
		return 0, fmt.Errorf("table %s: %d values for %d columns", t.Name, len(cells), len(t.Columns))
	}
	if err := guard.Fault("storage.insert:" + t.Name); err != nil {
		return 0, fmt.Errorf("insert into %s: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	for i := range cells {
		if err := t.coerceCell(&cells[i], i); err != nil {
			return 0, err
		}
	}
	row := Row{ID: id, Cells: cells}
	// Maintain XML indexes first so a rejection leaves no trace.
	var done []*XMLIndex
	for _, xi := range t.xmlIndexes {
		cell := cells[xi.col]
		if cell.Null || cell.Doc == nil {
			continue
		}
		if err := xi.Index.InsertDoc(id, cell.Doc); err != nil {
			for _, undo := range done {
				undo.Index.DeleteDoc(id, cells[undo.col].Doc)
			}
			return 0, fmt.Errorf("insert into %s: %w", t.Name, err)
		}
		done = append(done, xi)
	}
	t.nextID++
	t.byID[id] = len(t.rows)
	t.rows = append(t.rows, row)
	for _, ri := range t.relIndexes {
		ri.insert(row)
	}
	// Synopsis maintenance is infallible, so it runs after the row has
	// landed.
	t.countRow(row, 1)
	return id, nil
}

// coerceCell validates and converts a cell against column i's type.
func (t *Table) coerceCell(cell *Cell, i int) error {
	col := t.Columns[i]
	if cell.Null {
		return nil
	}
	if col.Type == XML {
		if cell.Doc != nil {
			return nil
		}
		doc, err := xmlparse.Parse(cell.V.Lexical())
		if err != nil {
			return fmt.Errorf("column %s: %w", col.Name, err)
		}
		cell.Doc = doc
		cell.V = xdm.Value{}
		return nil
	}
	if cell.Doc != nil {
		return fmt.Errorf("column %s: XML value in non-XML column", col.Name)
	}
	v, err := cell.V.Cast(col.Type.XDMType())
	if err != nil {
		return fmt.Errorf("column %s: %w", col.Name, err)
	}
	if col.Type == Varchar && col.Size > 0 && len(v.S) > col.Size {
		return fmt.Errorf("column %s: value length %d exceeds varchar(%d)", col.Name, len(v.S), col.Size)
	}
	cell.V = v
	return nil
}

// Delete removes a row by id.
func (t *Table) Delete(id uint32) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	pos, ok := t.byID[id]
	if !ok {
		return fmt.Errorf("table %s: no row %d", t.Name, id)
	}
	row := t.rows[pos]
	for _, xi := range t.xmlIndexes {
		cell := row.Cells[xi.col]
		if !cell.Null && cell.Doc != nil {
			xi.Index.DeleteDoc(id, cell.Doc)
		}
	}
	for _, ri := range t.relIndexes {
		ri.delete(row)
	}
	t.rows = append(t.rows[:pos], t.rows[pos+1:]...)
	delete(t.byID, id)
	//xqvet:unbounded-ok write path under the table lock: stopping halfway would leave byID pointing at the wrong rows
	for i := pos; i < len(t.rows); i++ {
		t.byID[t.rows[i].ID] = i
	}
	t.countRow(row, -1)
	return nil
}

// countRow moves row's document counters and path synopses by delta (+1
// as the row lands, -1 as it goes). A path appearing or vanishing bumps
// the catalog version: cached plans' skip decisions assumed the old path
// set. Count-only changes do not. Callers hold t.mu.
func (t *Table) countRow(row Row, delta int) {
	pathSetChanged := false
	for ci, cell := range row.Cells {
		t.countDoc(ci, cell, delta)
		switch {
		case cell.Null || cell.Doc == nil:
		case delta > 0:
			pathSetChanged = t.syns[ci].AddDoc(cell.Doc) || pathSetChanged
		default:
			pathSetChanged = t.syns[ci].RemoveDoc(cell.Doc) || pathSetChanged
		}
	}
	if pathSetChanged {
		t.bumpVersion()
	}
}

// countDoc moves column ci's document counters by delta (+1 as a cell
// lands, -1 as it goes); a NULL cell holds no document and counts for
// nothing. Callers hold t.mu.
func (t *Table) countDoc(ci int, cell Cell, delta int) {
	if cell.Null || cell.Doc == nil {
		return
	}
	t.docs[ci] += delta
	if cell.Doc.TypeAnn.Valid {
		t.annotated[ci] += delta
	}
}

// HasAnnotatedDocs reports whether any stored document of the column
// carries schema type annotations (InsertValidated / validated ingest).
func (t *Table) HasAnnotatedDocs(column string) bool {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return false
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.annotated[ci] > 0
}

// Rows snapshots all rows in insertion order.
func (t *Table) Rows() []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]Row(nil), t.rows...)
}

// RowsByID snapshots the rows whose ids are in the sorted posting list
// ids: the rows filtering Rows() by ids.Contains would keep, in the same
// (insertion) order, at O(k log k) for k ids instead of O(table).
func (t *Table) RowsByID(ids postings.List) []Row {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pos := t.positions(ids)
	rows := make([]Row, len(pos))
	for i, p := range pos {
		rows[i] = t.rows[p]
	}
	return rows
}

// ForEachRow visits rows in insertion order under the read lock, without
// copying the row slice. Returning false stops the iteration. The
// callback must not re-enter this table (Insert/Delete/DDL or another
// query) — RWMutex read locks do not nest across a pending writer.
func (t *Table) ForEachRow(f func(*Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	//xqvet:unbounded-ok the visitor's contract is the bound: callers thread the guard through f
	for i := range t.rows {
		//xqvet:lockescape-ok documented contract above: f must not re-enter the table
		if !f(&t.rows[i]) {
			return
		}
	}
}

// RowByID fetches one row.
func (t *Table) RowByID(id uint32) (Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pos, ok := t.byID[id]
	if !ok {
		return Row{}, false
	}
	return t.rows[pos], true
}

// Len returns the row count.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// CreateXMLIndex creates an XML value index on an XML column and builds
// it over existing rows the way a bulk load does: extract every row's
// entries, then merge them into a bulk-loaded tree. A list-typed match
// in any row rejects the index.
func (t *Table) CreateXMLIndex(name, column, xmlPattern string, typ xmlindex.Type) (*XMLIndex, error) {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if t.Columns[ci].Type != XML {
		return nil, fmt.Errorf("column %s.%s is not an XML column", t.Name, column)
	}
	pat, err := pattern.Parse(xmlPattern)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, xi := range t.xmlIndexes {
		if strings.EqualFold(xi.Name, name) {
			return nil, fmt.Errorf("index %s already exists", name)
		}
	}
	xi := &XMLIndex{Name: name, Column: strings.ToLower(column), col: ci,
		Index: xmlindex.New(name, pat, typ, t.syns[ci].Dict())}
	xi.Index.Instrument(t.metrics)
	// A DDL build runs outside any query, so no guard is in scope.
	run, err := xi.extract(t.rows, nil)
	if err != nil {
		return nil, fmt.Errorf("building index %s: %w", name, err)
	}
	bb, err := xi.Index.PrepareBulk(nil, run)
	if err != nil {
		return nil, fmt.Errorf("building index %s: %w", name, err)
	}
	xi.Index.CommitBulk(bb)
	t.xmlIndexes = append(t.xmlIndexes, xi)
	t.bumpVersion()
	return xi, nil
}

// XMLIndexes returns the XML indexes on a column ("" = all).
func (t *Table) XMLIndexes(column string) []*XMLIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*XMLIndex
	for _, xi := range t.xmlIndexes {
		if column == "" || strings.EqualFold(xi.Column, column) {
			out = append(out, xi)
		}
	}
	return out
}

// DropIndex removes an XML or relational index by name. The second
// result reports whether an index with that name existed.
func (t *Table) DropIndex(name string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, xi := range t.xmlIndexes {
		if strings.EqualFold(xi.Name, name) {
			t.xmlIndexes = append(t.xmlIndexes[:i], t.xmlIndexes[i+1:]...)
			xi.Index.Drop()
			t.bumpVersion()
			return true
		}
	}
	for i, ri := range t.relIndexes {
		if strings.EqualFold(ri.Name, name) {
			t.relIndexes = append(t.relIndexes[:i], t.relIndexes[i+1:]...)
			t.bumpVersion()
			return true
		}
	}
	return false
}

// CreateRelIndex creates a relational B-tree index on a scalar column.
func (t *Table) CreateRelIndex(name, column string) (*RelIndex, error) {
	ci, err := t.ColumnIndex(column)
	if err != nil {
		return nil, err
	}
	if t.Columns[ci].Type == XML {
		return nil, fmt.Errorf("cannot create a relational index on XML column %s", column)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ri := &RelIndex{Name: name, Column: strings.ToLower(column), tree: btree.New(), table: t, col: ci}
	if t.metrics != nil {
		ri.mLookups = t.metrics.Counter("relindex.lookups")
		ri.tree.Instrument(t.metrics.Counter("btree.scans"), t.metrics.Counter("btree.keys_visited"))
	}
	//xqvet:unbounded-ok DDL index build runs outside any query; no guard is in scope by design
	for _, row := range t.rows {
		ri.insert(row)
	}
	t.relIndexes = append(t.relIndexes, ri)
	t.bumpVersion()
	return ri, nil
}

// RelIndexes returns the relational indexes on a column ("" = all).
func (t *Table) RelIndexes(column string) []*RelIndex {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*RelIndex
	for _, ri := range t.relIndexes {
		if column == "" || strings.EqualFold(ri.Column, column) {
			out = append(out, ri)
		}
	}
	return out
}

func (ri *RelIndex) key(row Row) ([]byte, bool) {
	cell := row.Cells[ri.col]
	if cell.Null {
		return nil, false
	}
	k := encodeSQLKey(cell.V)
	k = append(k, byte(row.ID>>24), byte(row.ID>>16), byte(row.ID>>8), byte(row.ID))
	return k, true
}

func (ri *RelIndex) insert(row Row) {
	if k, ok := ri.key(row); ok {
		ri.tree.Insert(k, nil)
	}
}

func (ri *RelIndex) delete(row Row) {
	if k, ok := ri.key(row); ok {
		ri.tree.Delete(k)
	}
}

// Lookup returns the row ids matching an equality probe under SQL
// comparison semantics (trailing blanks trimmed for strings). It holds
// the table's read lock while scanning: the tree is mutated by inserts
// and deletes, which run under the write lock.
func (ri *RelIndex) Lookup(v xdm.Value) ([]uint32, error) {
	cv, err := v.Cast(ri.table.Columns[ri.col].Type.XDMType())
	if err != nil {
		return nil, err
	}
	ri.table.mu.RLock()
	defer ri.table.mu.RUnlock()
	ri.mLookups.Inc()
	prefix := encodeSQLKey(cv)
	var ids []uint32
	ri.tree.ScanPrefix(prefix, func(k, _ []byte) bool {
		n := len(k)
		ids = append(ids, uint32(k[n-4])<<24|uint32(k[n-3])<<16|uint32(k[n-2])<<8|uint32(k[n-1]))
		return true
	})
	return ids, nil
}

// encodeSQLKey encodes a scalar under SQL comparison rules: numerics by
// order-preserving float encoding, strings with trailing blanks trimmed.
func encodeSQLKey(v xdm.Value) []byte {
	if v.T.IsNumeric() || v.T == xdm.Date || v.T == xdm.DateTime {
		f := v.Number()
		if v.T == xdm.Date || v.T == xdm.DateTime {
			f = float64(v.M.Unix())
		}
		return encodeOrderedFloat(f)
	}
	s := strings.TrimRight(v.Lexical(), " ")
	out := make([]byte, 0, len(s)+2)
	for i := 0; i < len(s); i++ {
		if s[i] == 0 {
			out = append(out, 0, 0xff)
		} else {
			out = append(out, s[i])
		}
	}
	return append(out, 0, 0)
}

func encodeOrderedFloat(f float64) []byte {
	bits := floatBits(f)
	return []byte{
		byte(bits >> 56), byte(bits >> 48), byte(bits >> 40), byte(bits >> 32),
		byte(bits >> 24), byte(bits >> 16), byte(bits >> 8), byte(bits),
	}
}
