// Command xqshell is an interactive shell for xqdb. It accepts SQL/XML
// statements (including EXPLAIN <statement>) and stand-alone XQuery
// expressions, with meta-commands:
//
//	\explain <query>   analyze a query without running it
//	\stats on|off      print planner statistics after each query
//	\trace on|off      print timed execution spans after each query
//	\slow <dur>|off    log queries slower than dur (e.g. \slow 100ms)
//	\metrics           print the metrics registry snapshot as JSON
//	\noindex on|off    disable index pre-filtering (full scans)
//	\load <file>       run statements from a file (separated by ;)
//	\quit
//
// Lines are dispatched by first keyword: CREATE/INSERT/SELECT/VALUES/
// EXPLAIN go to the SQL engine, everything else to XQuery.
package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/sqlxml"
)

// shellOpts is the shell's per-session display and guardrail state.
type shellOpts struct {
	stats bool
	trace bool
	slow  time.Duration // 0 = slow-query log off
}

func main() {
	db := xqdb.Open()
	opts := &shellOpts{stats: true}
	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	// SIGINT cancels the running statement via its guard context instead
	// of killing the shell; at the prompt it is simply swallowed.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	fmt.Println("xqdb shell — SQL/XML and XQuery. \\quit to exit, ctrl-c interrupts a query.")
	fmt.Print("xqdb> ")
	var buf strings.Builder
	for in.Scan() {
		line := in.Text()
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "\\") {
			if !meta(db, trimmed, opts) {
				return
			}
			fmt.Print("xqdb> ")
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if !strings.Contains(line, ";") {
			if strings.TrimSpace(buf.String()) == "" {
				fmt.Print("xqdb> ")
				buf.Reset()
				continue
			}
			fmt.Print("   -> ")
			continue
		}
		stmt := strings.TrimSuffix(strings.TrimSpace(buf.String()), ";")
		buf.Reset()
		runInterruptible(db, sig, stmt, opts)
		fmt.Print("xqdb> ")
	}
}

// runInterruptible runs one statement under a context canceled by SIGINT.
// A canceled, timed-out, or panicking query prints an error and returns
// to the prompt; it never takes the shell down.
func runInterruptible(db *xqdb.DB, sig <-chan os.Signal, stmt string, opts *shellOpts) {
	// Drain a SIGINT delivered while the shell sat at the prompt so it
	// does not cancel this statement immediately.
	select {
	case <-sig:
	default:
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		select {
		case <-sig:
			cancel()
		case <-done:
		}
	}()
	runStatementCtx(os.Stdout, db, ctx, stmt, *opts)
	close(done)
	cancel()
}

func meta(db *xqdb.DB, cmd string, opts *shellOpts) bool {
	return metaTo(os.Stdout, db, cmd, opts)
}

func metaTo(w io.Writer, db *xqdb.DB, cmd string, opts *shellOpts) bool {
	fields := strings.Fields(cmd)
	switch fields[0] {
	case "\\quit", "\\q":
		return false
	case "\\stats":
		opts.stats = len(fields) > 1 && fields[1] == "on"
	case "\\trace":
		opts.trace = len(fields) > 1 && fields[1] == "on"
	case "\\slow":
		if len(fields) < 2 || fields[1] == "off" {
			opts.slow = 0
			break
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			fmt.Fprintln(w, "usage: \\slow <duration>|off  (e.g. \\slow 100ms)")
			break
		}
		opts.slow = d
	case "\\metrics":
		data, err := db.MetricsJSON()
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		fmt.Fprintf(w, "%s\n", data)
	case "\\noindex":
		db.UseIndexes = !(len(fields) > 1 && fields[1] == "on")
	case "\\explain":
		query := strings.TrimSpace(strings.TrimPrefix(cmd, "\\explain"))
		rep, err := db.Explain(query)
		if err != nil {
			fmt.Fprintln(w, "error:", err)
		} else {
			fmt.Fprint(w, rep)
		}
	case "\\load":
		if len(fields) < 2 {
			fmt.Fprintln(w, "usage: \\load <file>")
			break
		}
		data, err := os.ReadFile(fields[1])
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			break
		}
		for _, stmt := range strings.Split(string(data), ";") {
			stmt = strings.TrimSpace(stmt)
			if stmt != "" {
				runStatementTo(w, db, stmt, shellOpts{})
			}
		}
	default:
		fmt.Fprintln(w, "commands: \\explain <q>, \\stats on|off, \\trace on|off, \\slow <dur>|off, \\metrics, \\noindex on|off, \\load <file>, \\quit")
	}
	return true
}

// runStatementTo dispatches SQL vs XQuery by leading keyword.
func runStatementTo(w io.Writer, db *xqdb.DB, stmt string, opts shellOpts) {
	runStatementCtx(w, db, context.Background(), stmt, opts)
}

func runStatementCtx(w io.Writer, db *xqdb.DB, ctx context.Context, stmt string, opts shellOpts) {
	qopts := xqdb.QueryOptions{Context: ctx, Trace: opts.trace}
	if opts.slow > 0 {
		qopts.SlowThreshold = opts.slow
		qopts.OnSlow = func(sq xqdb.SlowQuery) {
			fmt.Fprintf(w, "slow query (%s, %s): %.120s\n", sq.Duration.Round(time.Microsecond), sq.Language, sq.Query)
		}
	}
	var (
		res   *xqdb.Result
		stats *xqdb.Stats
		err   error
	)
	if isSQL, _ := sqlxml.Sniff(stmt); isSQL {
		res, stats, err = db.ExecSQLOpts(stmt, qopts)
	} else {
		res, stats, err = db.QueryXQueryOpts(stmt, qopts)
	}
	var qe *xqdb.QueryError
	if errors.As(err, &qe) {
		// Guardrail errors (interrupt, timeout, contained panic) print
		// with their kind; the shell keeps running either way.
		fmt.Fprintf(w, "query error (%s): %v\n", qe.Kind, qe.Err)
		return
	}
	if err != nil {
		fmt.Fprintln(w, "error:", err)
		return
	}
	if len(res.Columns) > 0 && res.Len() > 0 {
		fmt.Fprintln(w, strings.Join(res.Columns, " | "))
	}
	for i, row := range res.Rows() {
		fmt.Fprintf(w, "row %d: %s\n", i+1, strings.Join(row, " | "))
	}
	if opts.stats && stats != nil {
		// The stats digest itself lives with the engine (Stats.Summary)
		// so every field added to Stats surfaces here automatically —
		// the statsmerge analyzer holds the renderer to that.
		fmt.Fprintf(w, "-- %d rows%s\n", res.Len(), stats.Summary())
	}
	if opts.trace && stats != nil && stats.Trace != nil {
		for _, s := range stats.Trace.Spans {
			fmt.Fprintf(w, "trace: %-8s +%-10s %-10s %s\n", s.Name, s.Start.Round(time.Microsecond), s.Dur.Round(time.Microsecond), s.Note)
		}
	}
}
