package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/server/admission"
)

// loadedDB builds a database with n order documents and a price index —
// the same shape the guardrail tests use, behind the HTTP surface here.
func loadedDB(t testing.TB, n int) *xqdb.DB {
	t.Helper()
	db := xqdb.Open()
	db.MustExecSQL(`create table orders (ordid integer, orddoc xml)`)
	for i := 0; i < n; i++ {
		var b strings.Builder
		b.WriteString("<order>")
		for j := 0; j < 8; j++ {
			fmt.Fprintf(&b, `<lineitem price="%d"><product><id>P%d</id><deep><deeper><deepest>x</deepest></deeper></deep></product></lineitem>`, (i+j)%200, j)
		}
		b.WriteString("</order>")
		db.MustExecSQL(fmt.Sprintf(`insert into orders values (%d, '%s')`, i, b.String()))
	}
	db.MustExecSQL(`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`)
	return db
}

const heavyQuery = `for $d in db2-fn:xmlcolumn("ORDERS.ORDDOC")
	for $l in $d//lineitem
	where some $x in $d//deepest satisfies $l/@price >= 0
	return $l/product/id`

// stragglerQuery outlasts every deadline a test sets, however fast the
// machine: the tests that run it end it by cancellation and never wait
// for its answer.
const stragglerQuery = `count(for $i in (1 to 100000)
	for $d in db2-fn:xmlcolumn("ORDERS.ORDDOC")
	return $d//deepest)`

// newRealServer starts a real listener with session wiring attached.
func newRealServer(t testing.TB, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewUnstartedServer(s.Handler())
	ts.Config.ConnContext = s.ConnContext
	ts.Config.ConnState = s.ConnState
	ts.Start()
	t.Cleanup(ts.Close)
	return ts
}

// post drives one request straight through the handler (no sockets).
func post(t testing.TB, s *Server, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	return postCtx(t, s, context.Background(), path, body)
}

func postCtx(t testing.TB, s *Server, ctx context.Context, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decode[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("response %d not JSON: %v\n%s", w.Code, err, w.Body.String())
	}
	return v
}

func TestQueryEndpoint(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 20)})
	w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`})
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", w.Code, w.Body.String())
	}
	resp := decode[QueryResponse](t, w)
	if len(resp.Rows) != 20 || resp.Columns[0] != "ordid" {
		t.Fatalf("rows = %d, columns = %v", len(resp.Rows), resp.Columns)
	}
	if resp.Stats == nil || resp.Stats.PlanCache == "" {
		t.Fatal("response should carry a stats summary with plan-cache state")
	}
	// Second run of the same statement must hit the shared plan cache.
	w = post(t, s, "/query", QueryRequest{Query: `select ordid from orders`})
	if got := decode[QueryResponse](t, w).Stats.PlanCache; got != "hit" {
		t.Fatalf("second execution plan cache = %q, want hit", got)
	}

	// XQuery auto-detected, index used.
	w = post(t, s, "/query", QueryRequest{Query: `db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 198]`})
	if w.Code != http.StatusOK {
		t.Fatalf("xquery status = %d: %s", w.Code, w.Body.String())
	}
	resp = decode[QueryResponse](t, w)
	if len(resp.Stats.IndexesUsed) == 0 {
		t.Fatalf("index not used: %+v", resp.Stats)
	}
}

func TestQueryBadRequests(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 2)})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"query": `, http.StatusBadRequest},
		{"empty query", `{"query": "  "}`, http.StatusBadRequest},
		{"parse error", `{"query": "selec x from y"}`, http.StatusBadRequest},
		{"unknown language", `{"query": "select ordid from orders", "language": "cobol"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != tc.want {
			t.Errorf("%s: status = %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
		if e := decode[ErrorResponse](t, w); e.Error == "" {
			t.Errorf("%s: error body missing", tc.name)
		}
	}
}

func TestBodyTooLarge(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 2), MaxRequestBytes: 64})
	big := `{"query": "` + strings.Repeat("x", 200) + `"}`
	req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(big))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", w.Code)
	}
}

func TestTimeoutMapsTo504(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 200)})
	w := post(t, s, "/query", QueryRequest{Query: heavyQuery, TimeoutMS: 1})
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (%s)", w.Code, w.Body.String())
	}
	if e := decode[ErrorResponse](t, w); e.Kind != "timeout" {
		t.Fatalf("kind = %q, want timeout", e.Kind)
	}
}

func TestClientDisconnectFreesSlot(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 200), Admission: admission.Config{MaxInFlight: 1}})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- postCtx(t, s, ctx, "/query", QueryRequest{Query: stragglerQuery}) }()
	time.Sleep(20 * time.Millisecond)
	cancel()
	w := <-done
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status = %d, want 499 (%s)", w.Code, w.Body.String())
	}
	// The engine slot must be free again: the next query runs at once.
	w = post(t, s, "/query", QueryRequest{Query: `select ordid from orders where ordid = 1`})
	if w.Code != http.StatusOK {
		t.Fatalf("slot leaked: follow-up status = %d", w.Code)
	}
	if got := s.Admission().Snapshot().InFlight; got != 0 {
		t.Fatalf("inflight = %d after responses, want 0", got)
	}
}

func TestShedReturns429WithRetryAfter(t *testing.T) {
	s := New(Config{
		DB:        loadedDB(t, 300),
		Admission: admission.Config{MaxInFlight: 1, MaxQueue: -1, RetryAfter: 2 * time.Second},
	})
	// Occupy the only slot with a long query.
	hold := make(chan *httptest.ResponseRecorder, 1)
	go func() { hold <- post(t, s, "/query", QueryRequest{Query: heavyQuery, TimeoutMS: 2000}) }()
	waitInflight(t, s, 1)
	w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`})
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", w.Code, w.Body.String())
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	e := decode[ErrorResponse](t, w)
	if e.Kind != "shed" || e.RetryAfterMS != 2000 {
		t.Fatalf("shed body = %+v", e)
	}
	<-hold
}

// waitInflight spins until the admission controller reports n queries in
// flight (the holder goroutine has passed admission).
func waitInflight(t testing.TB, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Admission().Snapshot().InFlight != n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight never reached %d", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadShedding(t *testing.T) {
	s := New(Config{
		DB:            loadedDB(t, 300),
		Admission:     admission.Config{MaxInFlight: 1, MaxQueue: 8, SlowLimit: 2, SlowWindow: time.Minute},
		SlowThreshold: time.Nanosecond, // every query counts as slow
	})
	// Two completed queries flip the overload signal via the slow hook.
	for i := 0; i < 2; i++ {
		if w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders where ordid = 1`}); w.Code != http.StatusOK {
			t.Fatalf("setup query %d: %d", i, w.Code)
		}
	}
	if !s.Admission().Overloaded() {
		t.Fatal("slow-query hook did not reach the overload detector")
	}
	// With the slot held, the next request would queue — overload sheds it.
	hold := make(chan *httptest.ResponseRecorder, 1)
	go func() { hold <- post(t, s, "/query", QueryRequest{Query: heavyQuery, TimeoutMS: 2000}) }()
	waitInflight(t, s, 1)
	if w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`}); w.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded status = %d, want 429", w.Code)
	}
	<-hold
}

func TestExplainEndpoint(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 5)})
	q := `db2-fn:xmlcolumn("ORDERS.ORDDOC")//lineitem[@price > 100]`
	req := httptest.NewRequest(http.MethodGet, "/explain?q="+strings.ReplaceAll(q, " ", "+"), nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("GET status = %d: %s", w.Code, w.Body.String())
	}
	if report := decode[map[string]string](t, w)["report"]; !strings.Contains(report, "li_price") {
		t.Fatalf("report does not mention the index:\n%s", report)
	}
	w2 := post(t, s, "/explain", QueryRequest{Query: q})
	if w2.Code != http.StatusOK {
		t.Fatalf("POST status = %d", w2.Code)
	}
	if w3 := post(t, s, "/explain", QueryRequest{Query: ""}); w3.Code != http.StatusBadRequest {
		t.Fatalf("empty explain = %d, want 400", w3.Code)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 5)})
	post(t, s, "/query", QueryRequest{Query: `select ordid from orders`})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
		UptimeNS int64            `json:"uptime_ns"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["admission.accepted"] < 1 {
		t.Fatalf("admission.accepted missing from /metrics: %v", snap.Counters)
	}
	if snap.UptimeNS <= 0 {
		t.Fatal("uptime_ns missing from /metrics")
	}
}

// planCacheSize reads the plancache.size gauge off /metrics.
func planCacheSize(t *testing.T, s *Server) int64 {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var snap struct {
		Gauges map[string]int64 `json:"gauges"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return snap.Gauges["plancache.size"]
}

// Regression: a bare DELETE was sniffed as XQuery (a syntax error), and
// with the language named it still went through Prepare, so every
// one-shot delete occupied a plan-cache slot.
func TestDeleteIsOneShotSQL(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 12)})
	count := func() int {
		w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`, NoPrepare: true})
		if w.Code != http.StatusOK {
			t.Fatalf("count status = %d: %s", w.Code, w.Body.String())
		}
		return len(decode[QueryResponse](t, w).Rows)
	}
	if got := count(); got != 12 {
		t.Fatalf("rows before = %d, want 12", got)
	}
	before := planCacheSize(t, s)
	for i := 0; i < 10; i++ {
		req := QueryRequest{Query: fmt.Sprintf(`DELETE FROM orders WHERE ordid = %d`, i)}
		if i%2 == 1 {
			req.Language = "sql" // named or sniffed, the statement is one-shot
		}
		if w := post(t, s, "/query", req); w.Code != http.StatusOK {
			t.Fatalf("delete %d: status = %d: %s", i, w.Code, w.Body.String())
		}
	}
	if got := count(); got != 2 {
		t.Fatalf("rows after 10 deletes = %d, want 2", got)
	}
	if after := planCacheSize(t, s); after != before {
		t.Fatalf("plancache.size grew from %d to %d across 10 distinct deletes", before, after)
	}
}

// Regression: a request naming no language was sniffed as SQL only when
// a space followed the first keyword, so a newline, tab or CRLF sent the
// statement to the XQuery parser and a 400.
func TestSniffSplitsOnAnyWhitespace(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 3)})
	for _, q := range []string{
		"SELECT\n  ordid FROM orders",
		"select\tordid from orders",
		"Select\r\nordid\r\nfrom orders",
		"\n\tselect\nordid from orders",
	} {
		w := post(t, s, "/query", QueryRequest{Query: q})
		if w.Code != http.StatusOK {
			t.Fatalf("%q: status = %d: %s", q, w.Code, w.Body.String())
		}
		if rows := len(decode[QueryResponse](t, w).Rows); rows != 3 {
			t.Fatalf("%q: rows = %d, want 3", q, rows)
		}
	}
	// A write split the same way is still one-shot: no plan-cache slot.
	before := planCacheSize(t, s)
	if w := post(t, s, "/query", QueryRequest{Query: "DELETE\r\nFROM orders\tWHERE ordid = 0"}); w.Code != http.StatusOK {
		t.Fatalf("delete: status = %d: %s", w.Code, w.Body.String())
	}
	if after := planCacheSize(t, s); after != before {
		t.Fatalf("plancache.size grew from %d to %d on a one-shot delete", before, after)
	}
}

func TestHealthEndpoint(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 2)})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if h := decode[Health](t, w); h.Status != "ok" || h.UptimeMS < 0 {
		t.Fatalf("health = %+v", h)
	}
	// Draining flips healthz to 503 so load balancers eject the node.
	s.Admission().StartDrain()
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining health status = %d, want 503", w.Code)
	}
	if h := decode[Health](t, w); h.Status != "draining" {
		t.Fatalf("health = %+v", h)
	}
}

func TestDrainRejectsNewWork(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 2)})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("idle drain: %v", err)
	}
	w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`})
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", w.Code, w.Body.String())
	}
	if e := decode[ErrorResponse](t, w); e.Kind != "draining" || w.Header().Get("Retry-After") == "" {
		t.Fatalf("draining body = %+v, Retry-After = %q", e, w.Header().Get("Retry-After"))
	}
}

func TestDrainForceCancelsStragglers(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 400)})
	done := make(chan *httptest.ResponseRecorder, 1)
	go func() { done <- post(t, s, "/query", QueryRequest{Query: stragglerQuery, TimeoutMS: 60_000}) }()
	waitInflight(t, s, 1)
	// A drain deadline far shorter than the query forces cancellation.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := s.Drain(ctx)
	if err == nil {
		t.Fatal("drain with a straggler should report the force-cancel")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("force-cancel took %v; the guard should interrupt promptly", time.Since(start))
	}
	w := <-done
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("force-canceled query status = %d, want 499 (%s)", w.Code, w.Body.String())
	}
	if got := s.Admission().Snapshot().InFlight; got != 0 {
		t.Fatalf("inflight after drain = %d, want 0", got)
	}
}

func TestPanicContainment(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 2)})
	// XMLPARSE of a document that trips the parser's defensive checks is
	// ordinary-error territory; to reach the handler's recover we inject
	// a panic through the fault hook instead.
	var fired atomic.Bool
	withFaultHook(t, func(site string) error {
		if site == "server.handler" && fired.CompareAndSwap(false, true) {
			panic("injected handler panic")
		}
		return nil
	})
	w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`})
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (%s)", w.Code, w.Body.String())
	}
	if e := decode[ErrorResponse](t, w); e.Kind != "internal" || !strings.Contains(e.Error, "injected handler panic") {
		t.Fatalf("panic body = %+v", e)
	}
	if got := s.Admission().Snapshot().InFlight; got != 0 {
		t.Fatalf("panicked request leaked its slot: inflight = %d", got)
	}
	// The server keeps serving afterwards.
	if w := post(t, s, "/query", QueryRequest{Query: `select ordid from orders`}); w.Code != http.StatusOK {
		t.Fatalf("post-panic status = %d", w.Code)
	}
}

// TestSessionsOverRealConnections exercises ConnContext/ConnState over
// actual TCP: requests on one keep-alive connection share a session id
// and bump its per-session query counter.
func TestSessionsOverRealConnections(t *testing.T) {
	s := New(Config{DB: loadedDB(t, 5)})
	ts := newRealServer(t, s)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	var ids []uint64
	var counts []int64
	for i := 0; i < 3; i++ {
		body, _ := json.Marshal(QueryRequest{Query: `select ordid from orders`})
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		ids = append(ids, qr.Session)
		counts = append(counts, qr.SessionQueries)
	}
	if ids[0] == 0 {
		t.Fatal("session id missing over a real connection")
	}
	if ids[0] != ids[1] || ids[1] != ids[2] {
		t.Fatalf("keep-alive requests switched sessions: %v", ids)
	}
	if counts[2] != 3 {
		t.Fatalf("session query counter = %v, want ending at 3", counts)
	}
	db := s.db
	if got := db.MetricsSnapshot().Counters["sessions.total"]; got < 1 {
		t.Fatalf("sessions.total = %d, want >= 1", got)
	}
}
