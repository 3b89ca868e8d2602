// Package server is xqdb's fault-tolerant network front-end: an
// HTTP/JSON surface over one shared *xqdb.DB, with per-connection
// sessions that reuse the prepared-plan cache, an admission controller
// (global max-in-flight budget, bounded deadline-aware wait queue, load
// shedding with Retry-After), per-request timeout/cancellation mapped
// onto QueryOptions, per-request panic containment, and a graceful
// drain protocol for SIGTERM.
//
// Endpoints (see README "Serving xqdb"):
//
//	POST /query    run a SQL/XML or XQuery statement
//	POST /explain  render the eligibility/plan report without executing
//	GET  /metrics  engine + admission metrics snapshot (key-sorted JSON)
//	GET  /healthz  liveness, admission state, uptime
//
// Fault-injection sites "server.admission" and "server.handler"
// (guard.Fault) let chaos tests inject latency, errors, and panics at
// the two layers without touching production code paths.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/server/admission"
	"github.com/xqdb/xqdb/internal/sqlxml"
)

// Config assembles a Server. DB is required; everything else defaults.
type Config struct {
	DB *xqdb.DB
	// Admission tunes the controller (see admission.Config).
	Admission admission.Config
	// DefaultTimeout bounds requests that do not set timeout_ms
	// (default 30s); MaxTimeout caps what a request may ask for
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRequestBytes bounds a request body (default 1 MiB).
	MaxRequestBytes int64
	// SlowThreshold marks queries as slow for the overload detector and
	// the queries.slow metric; 0 disables (which also disables
	// slow-signal shedding).
	SlowThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 1 << 20
	}
	return c
}

// Server is the front-end. Create with New, mount Handler() on an
// http.Server (wiring ConnContext/ConnState for session tracking), and
// call Drain on shutdown.
type Server struct {
	cfg Config
	db  *xqdb.DB
	adm *admission.Controller
	mux *http.ServeMux
	reg *metrics.Registry

	// baseCtx is canceled by Drain's force-cancel phase: every
	// in-flight query's context is derived from the request context AND
	// this one, so a blown drain deadline stops stragglers via the
	// guard.
	baseCtx     context.Context
	forceCancel context.CancelFunc

	sessionSeq      atomic.Uint64
	sessionsActive  *metrics.Gauge
	sessionsTotal   *metrics.Counter
	httpRequests    *metrics.Counter
	panicsContained *metrics.Counter
}

// New builds a Server over db. Admission and HTTP instruments are
// registered on the database's own metrics registry, so /metrics is one
// coherent snapshot.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	reg := cfg.DB.MetricsRegistry()
	s := &Server{
		cfg:             cfg,
		db:              cfg.DB,
		adm:             admission.New(cfg.Admission, reg),
		reg:             reg,
		sessionsActive:  reg.Gauge("sessions.active"),
		sessionsTotal:   reg.Counter("sessions.total"),
		httpRequests:    reg.Counter("http.requests"),
		panicsContained: reg.Counter("http.panics_contained"),
	}
	s.baseCtx, s.forceCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("/explain", s.handleExplain)
	s.mux.Handle("GET /metrics", cfg.DB.MetricsHandler())
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s
}

// Handler returns the route mux.
func (s *Server) Handler() http.Handler { return s.mux }

// Admission exposes the controller (health checks, tests).
func (s *Server) Admission() *admission.Controller { return s.adm }

// --- sessions -------------------------------------------------------

// session is one client connection's identity. The prepared-plan cache
// is DB-global, so every session's repeated statements share plans; the
// session itself carries the id and per-connection counters surfaced in
// query responses.
type session struct {
	id      uint64
	queries atomic.Int64
}

type sessionCtxKey struct{}

// ConnContext is for http.Server.ConnContext: it opens a session per
// accepted connection.
func (s *Server) ConnContext(ctx context.Context, _ net.Conn) context.Context {
	sess := &session{id: s.sessionSeq.Add(1)}
	s.sessionsTotal.Inc()
	s.sessionsActive.Add(1)
	return context.WithValue(ctx, sessionCtxKey{}, sess)
}

// ConnState is for http.Server.ConnState: it closes the session's
// accounting when the connection dies. (The *session itself is reaped
// with the connection's context.)
func (s *Server) ConnState(_ net.Conn, st http.ConnState) {
	if st == http.StateClosed || st == http.StateHijacked {
		s.sessionsActive.Add(-1)
	}
}

func sessionFrom(ctx context.Context) *session {
	sess, _ := ctx.Value(sessionCtxKey{}).(*session)
	return sess // nil when the handler is driven without ConnContext
}

// --- wire types -----------------------------------------------------

// QueryRequest is the POST /query body.
type QueryRequest struct {
	Query string `json:"query"`
	// Language is "sql", "xquery", or "" to auto-detect from the first
	// keyword.
	Language string `json:"language,omitempty"`
	// TimeoutMS bounds the request end to end — queue wait included —
	// clamped to the server's MaxTimeout. 0 uses DefaultTimeout.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// MaxResultItems / MaxEvalSteps / Parallelism pass through to
	// QueryOptions.
	MaxResultItems int   `json:"max_result_items,omitempty"`
	MaxEvalSteps   int64 `json:"max_eval_steps,omitempty"`
	Parallelism    int   `json:"parallelism,omitempty"`
	// NoPrepare bypasses the prepared-plan cache for this request.
	NoPrepare bool `json:"no_prepare,omitempty"`
}

// StatsSummary is the subset of engine stats worth shipping per response.
type StatsSummary struct {
	IndexesUsed []string `json:"indexes_used,omitempty"`
	Probes      int      `json:"probes"`
	KeysVisited int      `json:"keys_visited"`
	DocsTotal   int      `json:"docs_total"`
	DocsScanned int      `json:"docs_scanned"`
	RowsScanned int      `json:"rows_scanned"`
	PlanCache   string   `json:"plan_cache,omitempty"`
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	Columns   []string      `json:"columns"`
	Rows      [][]string    `json:"rows"`
	Stats     *StatsSummary `json:"stats,omitempty"`
	ElapsedMS float64       `json:"elapsed_ms"`
	// Session and SessionQueries identify the connection's session when
	// the listener wired ConnContext.
	Session        uint64 `json:"session,omitempty"`
	SessionQueries int64  `json:"session_queries,omitempty"`
}

// ErrorResponse is every non-2xx body.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind mirrors xqdb.ErrorKind ("canceled", "timeout", "limit
	// exceeded", "internal") or an admission outcome ("shed",
	// "draining").
	Kind string `json:"kind,omitempty"`
	// RetryAfterMS accompanies 429/503: the client backoff hint, also
	// sent as a Retry-After header (whole seconds, rounded up).
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// StatusClientClosedRequest is nginx's convention for "the client went
// away before we could answer"; there is no standard code.
const StatusClientClosedRequest = 499

// --- handlers -------------------------------------------------------

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Inc()
	defer s.containPanic(w)

	var req QueryRequest
	body := io.LimitReader(r.Body, s.cfg.MaxRequestBytes+1)
	data, err := io.ReadAll(body)
	if err != nil {
		s.writeError(w, StatusClientClosedRequest, ErrorResponse{Error: "request body: " + err.Error(), Kind: "canceled"})
		return
	}
	if int64(len(data)) > s.cfg.MaxRequestBytes {
		s.writeError(w, http.StatusRequestEntityTooLarge, ErrorResponse{Error: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxRequestBytes), Kind: "limit exceeded"})
		return
	}
	if err := json.Unmarshal(data, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "malformed request: " + err.Error()})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "empty query"})
		return
	}

	// The request's end-to-end deadline, queue wait included.
	timeout := time.Duration(req.TimeoutMS) * time.Millisecond
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	deadline := time.Now().Add(timeout)

	// Admission: fault site first (chaos tests inject latency/errors
	// here), then the controller. A disconnected client's context frees
	// its queue entry; a shed returns 429 + Retry-After immediately.
	if err := guard.Fault("server.admission"); err != nil {
		s.writeError(w, http.StatusServiceUnavailable, ErrorResponse{Error: "injected admission fault: " + err.Error(), Kind: "internal"})
		return
	}
	release, err := s.adm.Acquire(r.Context().Done(), deadline)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	// The engine context: canceled by client disconnect OR the drain
	// force-cancel; the remaining slice of the deadline becomes the
	// guard's wall-clock timeout.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stopAfter := context.AfterFunc(s.baseCtx, cancel)
	defer stopAfter()

	if err := guard.Fault("server.handler"); err != nil {
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: "injected handler fault: " + err.Error(), Kind: "internal"})
		return
	}

	opts := xqdb.QueryOptions{
		Context:        ctx,
		Timeout:        time.Until(deadline),
		MaxResultItems: req.MaxResultItems,
		MaxEvalSteps:   req.MaxEvalSteps,
		Parallelism:    req.Parallelism,
	}
	if s.cfg.SlowThreshold > 0 {
		opts.SlowThreshold = s.cfg.SlowThreshold
		opts.OnSlow = func(xqdb.SlowQuery) { s.adm.ReportSlow() }
	}

	start := time.Now()
	res, stats, err := s.execute(req, opts)
	if err != nil {
		s.writeQueryError(w, err)
		return
	}
	resp := QueryResponse{
		Columns:   res.Columns,
		Rows:      res.Rows(),
		ElapsedMS: float64(time.Since(start)) / float64(time.Millisecond),
	}
	if resp.Rows == nil {
		resp.Rows = [][]string{}
	}
	if stats != nil {
		resp.Stats = &StatsSummary{
			IndexesUsed: stats.IndexesUsed,
			Probes:      stats.Probes,
			KeysVisited: stats.KeysVisited,
			DocsTotal:   stats.DocsTotal,
			DocsScanned: stats.DocsScanned,
			RowsScanned: stats.RowsScanned,
			PlanCache:   stats.PlanCache,
		}
	}
	if sess := sessionFrom(r.Context()); sess != nil {
		resp.Session = sess.id
		resp.SessionQueries = sess.queries.Add(1)
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// execute routes one admitted request into the engine. Repeatable
// statements go through Prepare so sessions share the plan cache;
// one-shot writes (DDL, INSERT) execute unprepared so their unique
// texts do not churn the LRU.
func (s *Server) execute(req QueryRequest, opts xqdb.QueryOptions) (*xqdb.Result, *xqdb.Stats, error) {
	isSQL, preparable := sqlxml.Sniff(req.Query)
	lang := strings.ToLower(req.Language)
	if lang == "" {
		lang = "xquery"
		if isSQL {
			lang = "sql"
		}
	}
	switch lang {
	case "sql":
		// A statement named as SQL whose head Sniff does not know stays
		// preparable.
		if req.NoPrepare || isSQL && !preparable {
			return s.db.ExecSQLOpts(req.Query, opts)
		}
		stmt, err := s.db.Prepare(req.Query)
		if err != nil {
			return nil, nil, err
		}
		return stmt.ExecOpts(opts)
	case "xquery":
		if req.NoPrepare {
			return s.db.QueryXQueryOpts(req.Query, opts)
		}
		stmt, err := s.db.PrepareXQuery(req.Query)
		if err != nil {
			return nil, nil, err
		}
		return stmt.ExecOpts(opts)
	default:
		return nil, nil, fmt.Errorf("unknown language %q (want \"sql\" or \"xquery\")", req.Language)
	}
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	s.httpRequests.Inc()
	defer s.containPanic(w)
	var query string
	switch r.Method {
	case http.MethodGet:
		query = r.URL.Query().Get("q")
	case http.MethodPost:
		var req QueryRequest
		if err := json.NewDecoder(io.LimitReader(r.Body, s.cfg.MaxRequestBytes)).Decode(&req); err != nil {
			s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "malformed request: " + err.Error()})
			return
		}
		query = req.Query
	default:
		s.writeError(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "use GET ?q= or POST {\"query\": ...}"})
		return
	}
	if strings.TrimSpace(query) == "" {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: "empty query"})
		return
	}
	// EXPLAIN analyzes without executing — planning cost only, no
	// document scans — so it bypasses admission; it must stay usable as
	// a diagnostic exactly when the server is saturated.
	report, err := s.db.Explain(query)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"report": report})
}

// Health is the GET /healthz body.
type Health struct {
	Status string `json:"status"` // "ok", "overloaded", or "draining"
	admission.Stats
	UptimeMS int64 `json:"uptime_ms"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	defer s.containPanic(w)
	snap := s.adm.Snapshot()
	h := Health{Status: "ok", Stats: snap, UptimeMS: s.reg.Snapshot().UptimeNanos / int64(time.Millisecond)}
	code := http.StatusOK
	switch {
	case snap.Draining:
		// Draining reports 503 so load balancers stop routing here
		// while in-flight queries finish.
		h.Status = "draining"
		code = http.StatusServiceUnavailable
	case snap.Overloaded:
		h.Status = "overloaded"
	}
	s.writeJSON(w, code, h)
}

// --- error mapping --------------------------------------------------

func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	retry := s.adm.RetryAfter()
	switch {
	case errors.Is(err, admission.ErrQueueFull), errors.Is(err, admission.ErrOverloaded):
		s.writeShed(w, http.StatusTooManyRequests, err, retry, "shed")
	case errors.Is(err, admission.ErrDraining):
		s.writeShed(w, http.StatusServiceUnavailable, err, retry, "draining")
	case errors.Is(err, admission.ErrDeadline):
		s.writeError(w, http.StatusGatewayTimeout, ErrorResponse{Error: err.Error(), Kind: "timeout"})
	case errors.Is(err, admission.ErrCanceled):
		s.writeError(w, StatusClientClosedRequest, ErrorResponse{Error: err.Error(), Kind: "canceled"})
	default:
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Kind: "internal"})
	}
}

func (s *Server) writeShed(w http.ResponseWriter, code int, err error, retry time.Duration, kind string) {
	// Retry-After is whole seconds; round up so "1" never means "now".
	secs := int64((retry + time.Second - 1) / time.Second)
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	s.writeError(w, code, ErrorResponse{Error: err.Error(), Kind: kind, RetryAfterMS: retry.Milliseconds()})
}

func (s *Server) writeQueryError(w http.ResponseWriter, err error) {
	var qe *xqdb.QueryError
	if !errors.As(err, &qe) {
		// Parse and analysis errors: the request was wrong, not the
		// server.
		s.writeError(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	code := http.StatusInternalServerError
	switch qe.Kind {
	case xqdb.ErrCanceled:
		code = StatusClientClosedRequest
	case xqdb.ErrTimeout:
		code = http.StatusGatewayTimeout
	case xqdb.ErrLimitExceeded:
		code = http.StatusUnprocessableEntity
	}
	s.writeError(w, code, ErrorResponse{Error: qe.Error(), Kind: qe.Kind.String()})
}

// containPanic is the request-level backstop over the engine's own
// panic containment: a panic anywhere in the handler (fault injection,
// encoding, a bug) becomes a 500 carrying the guard's Internal kind
// instead of tearing down the connection — and never kills the server.
func (s *Server) containPanic(w http.ResponseWriter) {
	if r := recover(); r != nil {
		s.panicsContained.Inc()
		v := &guard.Violation{Kind: guard.Internal, Msg: fmt.Sprint(r)}
		s.writeError(w, http.StatusInternalServerError, ErrorResponse{Error: v.Error(), Kind: "internal"})
	}
}

func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	// The client may be gone; nothing useful to do with a write error.
	_ = enc.Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, code int, e ErrorResponse) {
	s.writeJSON(w, code, e)
}

// --- drain ----------------------------------------------------------

// Drain executes the shutdown protocol: stop admitting (queued waiters
// are rejected with 503), wait for in-flight queries to finish until
// ctx expires, then force-cancel stragglers through their contexts (the
// guard surfaces it as ErrCanceled) and wait out the release. Returns
// nil when everything finished on its own, else the straggler error
// after force-cancel completes.
func (s *Server) Drain(ctx context.Context) error {
	s.adm.StartDrain()
	err := s.adm.AwaitIdle(ctx.Done())
	if err == nil {
		return nil
	}
	// Deadline blown: cancel every in-flight query's context. The guard
	// checks fire within checkInterval steps, so release follows
	// promptly; the unbounded wait here is on code we control.
	s.forceCancel()
	_ = s.adm.AwaitIdle(nil)
	return err
}
