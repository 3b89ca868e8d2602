// Package xqdb is an embeddable XML database engine for Go. It implements
// the system described in "On the Path to Efficient XML Queries" (Balmin,
// Beyer, Özcan, Nicola; VLDB 2006): relational tables with XML-typed
// columns, XQuery and SQL/XML as composable query languages, path-specific
// XML value indexes (CREATE INDEX ... USING XMLPATTERN ... AS type), and —
// the paper's central contribution — an index eligibility analyzer that
// decides when an index may pre-filter documents (Definition 1) and
// explains why not in terms of the paper's twelve tips.
//
// Quick start:
//
//	db := xqdb.Open()
//	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
//	db.MustExecSQL(`insert into orders values (1, '<order><lineitem price="150"/></order>')`)
//	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
//	res, stats, _ := db.QueryXQuery(`db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]`)
//	fmt.Println(res.Rows(), stats.IndexesUsed)
package xqdb

import (
	"context"
	"fmt"

	"github.com/xqdb/xqdb/internal/engine"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/ingest"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/synopsis"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// DB is one in-memory database instance. It is safe for concurrent use:
// queries may run in parallel with each other and with inserts, index
// creation, and deletes — the catalog, tables, and indexes follow an
// RWMutex discipline (concurrent readers, exclusive writers). The one
// exception is the UseIndexes field, which is a plain bool: set it before
// sharing the DB across goroutines, or guard it yourself.
//
// Use ExecSQLOpts/QueryXQueryOpts with QueryOptions to bound a query's
// execution (cancellation, timeout, result/step/parse limits); violations
// and contained evaluator panics surface as *QueryError.
type DB struct {
	eng *engine.Engine
	// loadParallelism is the Open-time default worker count for bulk
	// loads (WithLoadParallelism); 0 means GOMAXPROCS.
	loadParallelism int
	// UseIndexes controls whether the planner may install index
	// pre-filters (Definition 1). Disable to measure full-scan
	// baselines; results must be identical either way.
	UseIndexes bool
}

// Stats reports planner and executor activity for one query. See
// engine.Stats for field documentation.
type Stats = engine.Stats

// openConfig collects Open-time knobs.
type openConfig struct {
	loadParallelism int
}

// Option configures a DB at Open time.
type Option func(*openConfig)

// WithLoadParallelism sets the default worker count for bulk loads
// (LoadXMLDir) — the load-side twin of QueryOptions.Parallelism. n <= 0
// means GOMAXPROCS; 1 loads serially. LoadOptions.Parallelism overrides
// it per call. Results are identical at any setting: rows land in file
// order regardless of which worker parsed them.
func WithLoadParallelism(n int) Option {
	return func(c *openConfig) { c.loadParallelism = n }
}

// Open creates an empty database.
func Open(opts ...Option) *DB {
	var c openConfig
	for _, o := range opts {
		o(&c)
	}
	return &DB{eng: engine.New(), loadParallelism: c.loadParallelism, UseIndexes: true}
}

// Result is a query result: column names and stringified rows plus the
// raw cells.
type Result struct {
	Columns []string
	cells   [][]sqlxml.ResultCell
}

// Len returns the number of rows.
func (r *Result) Len() int { return len(r.cells) }

// Rows renders every row as strings (NULL for SQL nulls, serialized XML
// for XML cells).
func (r *Result) Rows() [][]string {
	out := make([][]string, len(r.cells))
	for i, row := range r.cells {
		cols := make([]string, len(row))
		for j, c := range row {
			cols[j] = c.String()
		}
		out[i] = cols
	}
	return out
}

// Cell returns the stringified cell at (row, col).
func (r *Result) Cell(row, col int) string { return r.cells[row][col].String() }

// IsNull reports whether the cell at (row, col) is NULL.
func (r *Result) IsNull(row, col int) bool { return r.cells[row][col].Null }

// ExecSQL runs a SQL/XML statement (DDL, INSERT, SELECT, VALUES) with no
// guardrails beyond panic containment. Use ExecSQLOpts to bound execution.
func (db *DB) ExecSQL(sql string) (*Result, *Stats, error) {
	return db.ExecSQLOpts(sql, QueryOptions{})
}

// MustExecSQL is ExecSQL that panics on error, for setup code.
func (db *DB) MustExecSQL(sql string) *Result {
	res, _, err := db.ExecSQL(sql)
	if err != nil {
		panic(fmt.Sprintf("xqdb: %s: %v", sql, err))
	}
	return res
}

// QueryXQuery runs a stand-alone XQuery and returns one row per item of
// the result sequence. Use QueryXQueryOpts to bound execution.
func (db *DB) QueryXQuery(query string) (*Result, *Stats, error) {
	return db.QueryXQueryOpts(query, QueryOptions{})
}

// Stmt is a prepared statement: its plan — parsed AST, eligibility
// analysis, and probe templates — is cached in the engine's plan cache,
// so repeated executions skip parsing and planning entirely. The cache
// entry is keyed by (query text, language, UseIndexes at execution time)
// and invalidated automatically when the schema changes (CREATE/DROP
// TABLE or INDEX), so eligibility decisions never go stale: the next
// execution replans against the new schema. Index probes themselves run
// on every execution — their inputs are data-dependent.
//
// A Stmt is safe for concurrent use.
type Stmt struct {
	db   *DB
	text string
	lang engine.Lang
}

// Prepare parses and plans a SQL/XML statement, caching the plan for
// repeated execution. Parse and analysis errors surface here.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	if err := db.eng.Prepare(sql, engine.LangSQL, db.UseIndexes); err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: sql, lang: engine.LangSQL}, nil
}

// PrepareXQuery parses and plans a stand-alone XQuery, caching the plan
// for repeated execution.
func (db *DB) PrepareXQuery(query string) (*Stmt, error) {
	if err := db.eng.Prepare(query, engine.LangXQuery, db.UseIndexes); err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: query, lang: engine.LangXQuery}, nil
}

// Text returns the statement's query text.
func (s *Stmt) Text() string { return s.text }

// Exec runs the prepared statement with no guardrails.
func (s *Stmt) Exec() (*Result, *Stats, error) {
	return s.ExecOpts(QueryOptions{})
}

// ExecOpts runs the prepared statement under the given guardrails.
func (s *Stmt) ExecOpts(opts QueryOptions) (*Result, *Stats, error) {
	if s.lang == engine.LangXQuery {
		return s.db.execXQuery(s.text, opts, true)
	}
	return s.db.execSQL(s.text, opts, true)
}

// Explain analyzes a query without running it: extracted predicates,
// per-index eligibility verdicts with reasons (which Definition-1
// condition or Section-3 pitfall rejected each candidate), tip warnings,
// and a plan summary (language, cache state, partitionability). The plan
// is built fresh against the current schema, bypassing the plan cache.
//
// SQL statements can also be explained inline: ExecSQL("EXPLAIN SELECT
// ...") returns the same report as a one-row result instead of running
// the statement.
func (db *DB) Explain(query string) (string, error) {
	return db.eng.Explain(query)
}

// Explain renders the plan report for the prepared statement, going
// through the plan cache: the report's cache line shows whether the plan
// Exec would run is already cached ("hit") or was just built ("miss").
func (s *Stmt) Explain() (string, error) {
	return s.db.eng.ExplainPrepared(s.text, s.lang, s.db.UseIndexes)
}

// Schema is a named set of type declarations for per-document validation.
// Keys are element names ("price"), attribute names ("@price"), or
// root-relative paths ("/order/lineitem/@price").
type Schema struct{ s *xmlschema.Schema }

// NewSchema creates an empty schema version.
func NewSchema(name string) *Schema { return &Schema{s: xmlschema.New(name)} }

// Declare adds a type declaration; typeName is one of string, double,
// decimal, integer, boolean, date, dateTime.
func (s *Schema) Declare(key, typeName string) error {
	t, ok := xdm.TypeByName(typeName)
	if !ok {
		return fmt.Errorf("unknown type %q", typeName)
	}
	s.s.Declare(key, t)
	return nil
}

// LoadOptions bounds one bulk load (LoadXMLDirOpts). The zero value uses
// the Open-time load parallelism and the parser's default limits.
type LoadOptions struct {
	// Context cancels the load when done; nil means no cancellation. A
	// canceled load is atomic like any failed load: nothing lands.
	Context context.Context
	// Parallelism caps this load's parse workers, overriding the
	// WithLoadParallelism setting; 0 defers to it, 1 runs serially.
	Parallelism int
	// MaxParseDepth and MaxDocBytes bound each file's parse, enforced
	// while streaming — an oversized file aborts the load just past the
	// cap, not after reading the whole file. 0 falls back to the parser
	// defaults.
	MaxParseDepth int
	MaxDocBytes   int
	// Schema, when non-nil, validates every document (annotating its
	// nodes with the declared types) before it is stored and indexed.
	Schema *Schema
}

// LoadXMLDir bulk-loads every .xml file of a directory into a two-column
// (key, xml) table, keyed by insertion order, and returns the number of
// documents loaded. Documents stream through the ingestion pipeline
// (internal/ingest): parallel SAX-style parsing with single-pass
// XMLPATTERN extraction, then one bulk merge into each XML index. The
// load is atomic: a malformed file fails the whole load with an error
// naming the file, leaving the table exactly as it was.
func (db *DB) LoadXMLDir(table, dir string) (int, error) {
	return db.LoadXMLDirOpts(table, dir, LoadOptions{})
}

// LoadXMLDirOpts is LoadXMLDir under the given load options.
func (db *DB) LoadXMLDirOpts(table, dir string, opts LoadOptions) (int, error) {
	tab, err := db.eng.Catalog.Table(table)
	if err != nil {
		return 0, err
	}
	if len(tab.Columns) != 2 || tab.Columns[1].Type != storage.XML {
		return 0, fmt.Errorf("LoadXMLDir expects a (key, xml) table")
	}
	var g *guard.Guard
	if opts.Context != nil {
		g = guard.New(opts.Context, 0, guard.Limits{})
	}
	par := opts.Parallelism
	if par == 0 {
		par = db.loadParallelism
	}
	var sch *xmlschema.Schema
	if opts.Schema != nil {
		sch = opts.Schema.s
	}
	n, err := ingest.LoadDir(tab, dir, ingest.Options{
		Parallelism: par,
		Guard:       g,
		Limits:      xmlparse.Limits{MaxDepth: opts.MaxParseDepth, MaxBytes: opts.MaxDocBytes},
		Schema:      sch,
		Metrics:     db.eng.Metrics,
	})
	if err != nil {
		return 0, fmt.Errorf("LoadXMLDir %s: %w", dir, err)
	}
	return n, nil
}

// PathStat is one distinct rooted path of a column's synopsis, with its
// node and document counts. See SynopsisPaths.
type PathStat = synopsis.PathStat

// SynopsisPaths enumerates the path synopsis of an XML column — every
// distinct rooted label path stored in the column, with how many nodes
// carry it and how many documents contain it — sorted by path. The
// synopsis is maintained incrementally by loads, inserts, and deletes;
// the planner uses it to skip impossible probes, rank probe order by
// selectivity, and answer structural-only queries without touching
// documents.
func (db *DB) SynopsisPaths(table, column string) ([]PathStat, error) {
	tab, err := db.eng.Catalog.Table(table)
	if err != nil {
		return nil, err
	}
	syn := tab.Synopsis(column)
	if syn == nil {
		return nil, fmt.Errorf("SynopsisPaths: %s.%s is not an XML column", table, column)
	}
	return syn.Paths(), nil
}

// InsertValidated parses document XML, validates it against the schema
// (annotating its nodes with the declared types), and inserts it with the
// given scalar key into a two-column table (key column + XML column).
// Different documents of one column may use different schema versions —
// the paper's per-document schema flexibility.
func (db *DB) InsertValidated(table string, key int64, docXML string, schema *Schema) error {
	tab, err := db.eng.Catalog.Table(table)
	if err != nil {
		return err
	}
	// Validate the table shape before parsing: a bad target must not
	// cost a full document parse.
	if len(tab.Columns) != 2 || tab.Columns[1].Type != storage.XML {
		return fmt.Errorf("InsertValidated expects a (key, xml) table, got %d columns", len(tab.Columns))
	}
	doc, err := parseDoc(docXML)
	if err != nil {
		return err
	}
	if schema != nil {
		if err := schema.s.Validate(doc); err != nil {
			return err
		}
	}
	_, err = tab.Insert([]storage.Cell{{V: xdm.NewInteger(key)}, {Doc: doc}})
	return err
}
