// Package experiments reproduces the paper's evaluation artifacts. The
// paper is a guidelines paper: its artifacts are the thirty numbered
// queries, the twelve tips, the index DDL examples, and the
// eligible/ineligible verdicts stated in prose. Each experiment Ek
// rebuilds one of them as a measurable table: eligibility verdicts,
// result-shape checks (row counts the paper prints), and full-scan vs
// index-pre-filter timings whose *shape* (who wins, by what factor) is
// the reproduction target. EXPERIMENTS.md records paper-vs-measured for
// each.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/xqdb/xqdb/internal/engine"
	"github.com/xqdb/xqdb/internal/workload"
)

// Table is one experiment's output.
type Table struct {
	ID       string
	Title    string
	PaperRef string
	Headers  []string
	Rows     [][]string
	Notes    []string
}

// Config scales the experiments.
type Config struct {
	// Docs is the base corpus size (default 2000).
	Docs int
}

func (c Config) docs() int {
	if c.Docs <= 0 {
		return 2000
	}
	return c.Docs
}

// Registry maps experiment ids to runners, in report order.
var Registry = []struct {
	ID  string
	Run func(Config) (*Table, error)
}{
	{"E0", E0Matrix},
	{"E1", E1PredicateTypes},
	{"E2", E2SQLXMLFunctions},
	{"E3", E3Joins},
	{"E4", E4LetClauses},
	{"E5", E5DocumentNodes},
	{"E6", E6Construction},
	{"E7", E7Namespaces},
	{"E8", E8TextNodes},
	{"E9", E9Attributes},
	{"E10", E10Between},
	{"E11", E11TolerantIndexes},
	{"E12", E12Scaling},
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Table, error) {
	for _, r := range Registry {
		if strings.EqualFold(r.ID, id) {
			return r.Run(cfg)
		}
	}
	return nil, fmt.Errorf("unknown experiment %q", id)
}

// All executes every experiment.
func All(cfg Config) ([]*Table, error) {
	var out []*Table
	for _, r := range Registry {
		t, err := r.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// Format renders a table as aligned text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s)\n", t.ID, t.Title, t.PaperRef)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// --- shared setup helpers ---

// ordersEngine loads the paper schema with a generated order corpus and
// the li_price index.
func ordersEngine(n int, withIndex bool) (*engine.Engine, error) {
	e := engine.New()
	ddl := []string{
		`create table customer (cid integer, cdoc XML)`,
		`create table orders (ordid integer, orddoc XML)`,
		`create table products (id varchar(13), name varchar(32))`,
	}
	for _, d := range ddl {
		if _, _, err := e.ExecSQLOpts(d, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	if err := loadOrders(e, workload.Orders(workload.DefaultOrders(n))); err != nil {
		return nil, err
	}
	if withIndex {
		if _, _, err := e.ExecSQLOpts(`CREATE INDEX li_price ON orders(orddoc) USING XMLPATTERN '//lineitem/@price' AS double`, engine.ExecOptions{}); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func loadOrders(e *engine.Engine, docs []string) error {
	return loadDocs(e, "orders", docs)
}

// loadDocs bulk-inserts documents into (id integer, xml) tables.
func loadDocs(e *engine.Engine, table string, docs []string) error {
	for i, d := range docs {
		sql := fmt.Sprintf(`insert into %s values (%d, '%s')`, table, i, strings.ReplaceAll(d, "'", "''"))
		if _, _, err := e.ExecSQLOpts(sql, engine.ExecOptions{}); err != nil {
			return fmt.Errorf("doc %d: %w", i, err)
		}
	}
	return nil
}

// measured is one timed query run.
type measured struct {
	rows    int
	elapsed time.Duration
	stats   *engine.Stats
	err     error
}

// timingRuns repeats each measurement and keeps the fastest run, damping
// scheduler and allocator noise in the printed tables.
const timingRuns = 3

func timeXQ(e *engine.Engine, q string, useIndexes bool) measured {
	var best measured
	for i := 0; i < timingRuns; i++ {
		start := time.Now()
		seq, stats, err := e.ExecXQueryOpts(q, engine.ExecOptions{UseIndexes: useIndexes})
		m := measured{rows: len(seq), elapsed: time.Since(start), stats: stats, err: err}
		if err != nil {
			return m
		}
		if i == 0 || m.elapsed < best.elapsed {
			best = m
		}
	}
	return best
}

func timeSQL(e *engine.Engine, q string, useIndexes bool) measured {
	var best measured
	for i := 0; i < timingRuns; i++ {
		start := time.Now()
		res, stats, err := e.ExecSQLOpts(q, engine.ExecOptions{UseIndexes: useIndexes})
		m := measured{elapsed: time.Since(start), stats: stats, err: err}
		if err != nil {
			return m
		}
		m.rows = len(res.Rows)
		if i == 0 || m.elapsed < best.elapsed {
			best = m
		}
	}
	return best
}

// compareRuns runs a query with and without indexes and renders one row:
// id, eligibility, rows, docs scanned, times, speedup. A result mismatch
// is reported in the row (it would falsify Definition 1).
func compareRuns(e *engine.Engine, id, query string, sql bool) []string {
	run := timeXQ
	if sql {
		run = timeSQL
	}
	full := run(e, query, false)
	idx := run(e, query, true)
	if full.err != nil || idx.err != nil {
		return []string{id, "error", errStr(full.err, idx.err), "", "", "", ""}
	}
	used := "no"
	if len(idx.stats.IndexesUsed) > 0 {
		used = "yes"
	}
	match := "ok"
	if full.rows != idx.rows {
		match = fmt.Sprintf("MISMATCH %d vs %d", full.rows, idx.rows)
	}
	scanned := fmt.Sprintf("%d/%d", idx.stats.DocsScanned, idx.stats.DocsTotal)
	if idx.stats.DocsTotal == 0 {
		scanned = "-"
	}
	return []string{
		id, used, fmt.Sprint(idx.rows), scanned,
		fmtDur(full.elapsed), fmtDur(idx.elapsed),
		speedup(full.elapsed, idx.elapsed), match,
	}
}

func errStr(errs ...error) string {
	for _, err := range errs {
		if err != nil {
			s := err.Error()
			if len(s) > 60 {
				s = s[:60] + "…"
			}
			return s
		}
	}
	return ""
}

func fmtDur(d time.Duration) string {
	return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
}

func speedup(full, idx time.Duration) string {
	if idx <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1fx", float64(full)/float64(idx))
}

// runHeaders is the standard header row for compareRuns tables.
var runHeaders = []string{"query", "index", "rows", "docs scanned", "full scan", "indexed", "speedup", "equiv"}

// sortRows orders rows by first column for stable output.
func sortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool { return rows[i][0] < rows[j][0] })
}
