package xqdb

import (
	"context"
	"fmt"
	"time"

	"github.com/xqdb/xqdb/internal/engine"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/xdm"
)

// ErrorKind classifies a QueryError.
type ErrorKind uint8

// Query error kinds.
const (
	// ErrCanceled: the QueryOptions context was canceled mid-query.
	ErrCanceled ErrorKind = iota
	// ErrTimeout: the wall-clock timeout (or context deadline) passed.
	ErrTimeout
	// ErrLimitExceeded: a resource limit — result items, evaluation
	// steps, XML parse depth or size — was hit.
	ErrLimitExceeded
	// ErrInternal: an evaluator panic was contained and converted.
	ErrInternal
)

var errorKindNames = [...]string{"canceled", "timeout", "limit exceeded", "internal"}

func (k ErrorKind) String() string {
	if int(k) < len(errorKindNames) {
		return errorKindNames[k]
	}
	return "unknown"
}

// QueryError is the structured error returned when a guardrail stops a
// query: cancellation, timeout, a resource limit, or a contained panic.
// Ordinary parse and evaluation errors are returned unwrapped.
type QueryError struct {
	Kind  ErrorKind
	Query string // the query text as submitted
	Err   error  // the underlying guard violation
}

func (e *QueryError) Error() string {
	// A guard violation already prints "query <kind>:" — use its bare
	// message so the kinds do not print twice.
	detail := fmt.Sprint(e.Err)
	if v, ok := guard.AsViolation(e.Err); ok {
		detail = v.Msg
	}
	return fmt.Sprintf("query %s: %s (query: %.80s)", e.Kind, detail, e.Query)
}

func (e *QueryError) Unwrap() error { return e.Err }

// QueryOptions bounds one query's execution. The zero value applies no
// bounds (and no overhead beyond the defensive XML parse caps that always
// hold). Every limit that trips surfaces as a *QueryError.
type QueryOptions struct {
	// Context cancels the query when done; nil means no cancellation.
	Context context.Context
	// Timeout is a wall-clock bound starting when the query is
	// submitted; 0 means none.
	Timeout time.Duration
	// MaxResultItems caps result rows (SQL) or sequence items (XQuery).
	MaxResultItems int
	// MaxEvalSteps caps evaluation steps — XQuery expression evaluations
	// and per-item loop iterations, plus one per row a SQL scan visits;
	// 0 means unlimited.
	MaxEvalSteps int64
	// MaxParseDepth and MaxDocBytes bound XML documents parsed during
	// query execution (XMLPARSE); 0 falls back to the parser defaults.
	MaxParseDepth int
	MaxDocBytes   int
	// Parallelism caps the shard count for document-at-a-time execution
	// (the top-level collection binding of an XQuery, or a SELECT's
	// outer base-table scan); index probes always run serially. 0 means
	// GOMAXPROCS; 1 runs serially. Results are byte-identical to the
	// serial order at any setting.
	Parallelism int
	// Trace collects timed execution spans (plan, per-probe, eval/scan,
	// merge) on Stats.Trace. Untraced queries pay no tracing cost.
	Trace bool
	// SlowThreshold enables the slow-query hook: a query whose wall-clock
	// time reaches the threshold increments the "queries.slow" metric and,
	// when OnSlow is set, invokes it. 0 disables.
	SlowThreshold time.Duration
	// OnSlow is called synchronously after a slow query completes (even
	// one that errored). Setting it alongside SlowThreshold forces
	// tracing, so the report shows where the time went.
	OnSlow func(SlowQuery)
}

// SlowQuery describes one query that crossed QueryOptions.SlowThreshold.
type SlowQuery struct {
	Query    string
	Language string // "sql" or "xquery"
	Duration time.Duration
	// Stats carries the execution stats, including Stats.Trace when
	// tracing was on; nil when the query failed before producing stats.
	Stats *Stats
	// Err is the query's outcome (nil on success), before *QueryError
	// wrapping.
	Err error
}

// guard builds the per-query guard; a fully zero options value yields a
// nil guard (unlimited, zero overhead).
func (o QueryOptions) guard() *guard.Guard {
	if o.Context == nil && o.Timeout == 0 && o.MaxResultItems == 0 &&
		o.MaxEvalSteps == 0 && o.MaxParseDepth == 0 && o.MaxDocBytes == 0 {
		return nil
	}
	return guard.New(o.Context, o.Timeout, guard.Limits{
		MaxEvalSteps:   o.MaxEvalSteps,
		MaxResultItems: o.MaxResultItems,
		MaxParseDepth:  o.MaxParseDepth,
		MaxDocBytes:    o.MaxDocBytes,
	})
}

// wrapQueryErr converts guard violations (including contained panics)
// into *QueryError; other errors pass through unchanged.
func wrapQueryErr(query string, err error) error {
	if err == nil {
		return nil
	}
	v, ok := guard.AsViolation(err)
	if !ok {
		return err
	}
	kind := ErrInternal
	switch v.Kind {
	case guard.Canceled:
		kind = ErrCanceled
	case guard.Timeout:
		kind = ErrTimeout
	case guard.LimitExceeded:
		kind = ErrLimitExceeded
	}
	return &QueryError{Kind: kind, Query: query, Err: v}
}

// engineOptions translates QueryOptions into the engine's execution
// options.
func (db *DB) engineOptions(opts QueryOptions, prepared bool) engine.ExecOptions {
	return engine.ExecOptions{
		Guard:       opts.guard(),
		UseIndexes:  db.UseIndexes,
		Parallelism: opts.Parallelism,
		Prepared:    prepared,
		Trace:       opts.Trace || (opts.SlowThreshold > 0 && opts.OnSlow != nil),
	}
}

// observeSlow applies the slow-query hook after one execution.
func (db *DB) observeSlow(lang, query string, opts QueryOptions, start time.Time, stats *Stats, err error) {
	if opts.SlowThreshold <= 0 {
		return
	}
	d := time.Since(start)
	if d < opts.SlowThreshold {
		return
	}
	db.eng.Metrics.Counter("queries.slow").Inc()
	if opts.OnSlow != nil {
		opts.OnSlow(SlowQuery{Query: query, Language: lang, Duration: d, Stats: stats, Err: err})
	}
}

// ExecSQLOpts runs a SQL/XML statement under the given guardrails.
func (db *DB) ExecSQLOpts(sql string, opts QueryOptions) (*Result, *Stats, error) {
	return db.execSQL(sql, opts, false)
}

func (db *DB) execSQL(sql string, opts QueryOptions, prepared bool) (*Result, *Stats, error) {
	start := time.Now()
	res, stats, err := db.eng.ExecSQLOpts(sql, db.engineOptions(opts, prepared))
	db.observeSlow("sql", sql, opts, start, stats, err)
	if err != nil {
		return nil, nil, wrapQueryErr(sql, err)
	}
	return &Result{Columns: res.Columns, cells: res.Rows}, stats, nil
}

// QueryXQueryOpts runs a stand-alone XQuery under the given guardrails.
func (db *DB) QueryXQueryOpts(query string, opts QueryOptions) (*Result, *Stats, error) {
	return db.execXQuery(query, opts, false)
}

func (db *DB) execXQuery(query string, opts QueryOptions, prepared bool) (*Result, *Stats, error) {
	start := time.Now()
	seq, stats, err := db.eng.ExecXQueryOpts(query, db.engineOptions(opts, prepared))
	db.observeSlow("xquery", query, opts, start, stats, err)
	if err != nil {
		return nil, nil, wrapQueryErr(query, err)
	}
	res := &Result{Columns: []string{"item"}}
	for _, it := range seq {
		res.cells = append(res.cells, []sqlxml.ResultCell{{IsXML: true, XML: xdm.Sequence{it}}})
	}
	return res, stats, nil
}
