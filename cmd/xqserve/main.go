// Command xqserve promotes the embeddable engine into a network
// front-end: an HTTP/JSON server over one shared database, with
// admission control (global in-flight budget, bounded deadline-aware
// queue, load shedding), per-request timeouts and cancellation, and a
// graceful drain on SIGTERM/SIGINT.
//
// Endpoints:
//
//	POST /query    {"query": "...", "timeout_ms": 1000, ...}
//	POST /explain  {"query": "..."}   (or GET /explain?q=...)
//	GET  /metrics  engine + admission metrics (key-sorted JSON)
//	GET  /healthz  liveness and admission state
//
// Usage:
//
//	xqserve -addr :8080 -demo 2000
//	xqserve -addr :8080 -load orders=./docs
//
// The -demo flag seeds the paper's orders schema with n generated
// documents and the li_price XMLPATTERN index, so the server answers
// indexed queries out of the box (useful for load tests and smoke
// checks).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/server"
	"github.com/xqdb/xqdb/internal/server/admission"
	"github.com/xqdb/xqdb/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		demo       = flag.Int("demo", 0, "seed the demo orders schema with n generated documents")
		load       = flag.String("load", "", "load .xml files into a table: table=dir")
		inflight   = flag.Int("max-inflight", 16, "global concurrent-query budget")
		queue      = flag.Int("max-queue", 64, "bounded wait-queue capacity (negative disables queuing)")
		maxWait    = flag.Duration("max-wait", time.Second, "longest a request may sit queued")
		retryAfter = flag.Duration("retry-after", time.Second, "Retry-After hint attached to sheds")
		slowAfter  = flag.Duration("slow-threshold", 500*time.Millisecond, "slow-query threshold feeding the overload detector (0 disables)")
		slowLimit  = flag.Int("slow-limit", 0, "slow queries within slow-window that flip the overload signal (0 disables)")
		slowWindow = flag.Duration("slow-window", 10*time.Second, "window for the overload detector")
		timeout    = flag.Duration("default-timeout", 30*time.Second, "per-request timeout when the request sets none")
		maxTimeout = flag.Duration("max-timeout", 5*time.Minute, "cap on requested timeouts")
		drainFor   = flag.Duration("drain-timeout", 10*time.Second, "grace for in-flight queries on SIGTERM before force-cancel")
	)
	flag.Parse()
	if err := run(*addr, *demo, *load, server.Config{
		Admission: admission.Config{
			MaxInFlight: *inflight,
			MaxQueue:    *queue,
			MaxWait:     *maxWait,
			RetryAfter:  *retryAfter,
			SlowLimit:   *slowLimit,
			SlowWindow:  *slowWindow,
		},
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		SlowThreshold:  *slowAfter,
	}, *drainFor); err != nil {
		fmt.Fprintln(os.Stderr, "xqserve:", err)
		os.Exit(1)
	}
}

func run(addr string, demo int, load string, cfg server.Config, drainFor time.Duration) error {
	db := xqdb.Open()
	if demo > 0 {
		if err := seedDemo(db, demo); err != nil {
			return fmt.Errorf("seeding demo corpus: %w", err)
		}
		log.Printf("seeded demo orders corpus: %d documents, li_price index", demo)
	}
	if load != "" {
		table, dir, ok := strings.Cut(load, "=")
		if !ok {
			return fmt.Errorf("-load wants table=dir, got %q", load)
		}
		db.MustExecSQL(fmt.Sprintf(`create table %s (id integer, doc xml)`, table))
		n, err := db.LoadXMLDir(table, dir)
		if err != nil {
			return err
		}
		log.Printf("loaded %d documents from %s into %s", n, dir, table)
	}
	cfg.DB = db
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:        addr,
		Handler:     srv.Handler(),
		ConnContext: srv.ConnContext,
		ConnState:   srv.ConnState,
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("xqserve listening on %s (max-inflight %d, queue %d)",
		addr, cfg.Admission.MaxInFlight, cfg.Admission.MaxQueue)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		return err // listener died
	case sig := <-sigc:
		log.Printf("%s: draining (grace %s)", sig, drainFor)
	}

	// Drain protocol: stop accepting (healthz flips to 503, queued
	// waiters get ErrDraining), let in-flight queries finish under the
	// grace period, force-cancel the rest via the guard, then close the
	// listener.
	ctx, cancel := context.WithTimeout(context.Background(), drainFor)
	defer cancel()
	httpSrv.SetKeepAlivesEnabled(false)
	if err := srv.Drain(ctx); err != nil {
		log.Printf("drain: %v", err)
	} else {
		log.Printf("drain: all in-flight queries completed")
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}

// seedDemo loads the paper's orders schema: the same generated corpus
// the experiment harness uses, plus the canonical li_price index.
func seedDemo(db *xqdb.DB, n int) error {
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	for i, doc := range workload.Orders(workload.DefaultOrders(n)) {
		esc := strings.ReplaceAll(doc, "'", "''")
		if _, _, err := db.ExecSQL(fmt.Sprintf(`insert into orders values (%d, '%s')`, i, esc)); err != nil {
			return err
		}
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	return nil
}
