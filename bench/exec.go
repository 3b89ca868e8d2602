package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/server"
)

// outcome is what one executed operation produced. Latency covers the
// database or HTTP call only; hashing happens after the clock stops.
type outcome struct {
	Latency time.Duration
	Hash    uint64
	Rows    int
	Err     error
	// Stats is the engine's report (in-process execution only).
	Stats *xqdb.Stats
	// HTTP execution only: the server's own elapsed time, the plan-cache
	// state it reported, and the response size.
	ServerMS  float64
	PlanCache string
	RespBytes int
}

// executor runs operations against the program under test.
type executor interface {
	exec(o *op) outcome
}

// hashRows digests a result: rows and cells in order, length-prefixed so
// cell boundaries count.
func hashRows(rows [][]string) uint64 {
	h := fnv.New64a()
	var n [4]byte
	put := func(v int) {
		n[0], n[1], n[2], n[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
		h.Write(n[:])
	}
	put(len(rows))
	for _, row := range rows {
		put(len(row))
		for _, cell := range row {
			put(len(cell))
			io.WriteString(h, cell)
		}
	}
	return h.Sum64()
}

// execMode says how an in-process client submits statements.
type execMode uint8

const (
	// modePrepared executes pool statements through Stmt handles
	// prepared once, the way an application reuses its statements.
	modePrepared execMode = iota
	// modePrepareEach prepares and executes every statement, the way a
	// driver submits ad-hoc text: each new text misses the plan cache and
	// is inserted into it.
	modePrepareEach
	// modeDirect executes unprepared, bypassing the plan cache.
	modeDirect
)

// inproc executes against an in-process xqdb.DB.
type inproc struct {
	db    *xqdb.DB
	mode  execMode
	stmts []*xqdb.Stmt // modePrepared: one per pool slot
	opts  xqdb.QueryOptions
}

// preparePool prepares every pool statement for modePrepared.
func (x *inproc) preparePool(templates []template, pool []poolEntry) error {
	x.stmts = make([]*xqdb.Stmt, len(pool))
	for i, e := range pool {
		var err error
		if templates[e.Tpl].Lang == langSQL {
			x.stmts[i], err = x.db.Prepare(e.Text)
		} else {
			x.stmts[i], err = x.db.PrepareXQuery(e.Text)
		}
		if err != nil {
			return fmt.Errorf("prepare %s: %w", e.Text, err)
		}
	}
	return nil
}

func (x *inproc) exec(o *op) outcome {
	var (
		res *xqdb.Result
		st  *xqdb.Stats
		err error
	)
	start := time.Now()
	switch {
	case x.mode == modePrepared && o.Pool >= 0:
		res, st, err = x.stmts[o.Pool].ExecOpts(x.opts)
	case x.mode == modePrepareEach && !o.Class.write():
		var stmt *xqdb.Stmt
		if o.Lang == langSQL {
			stmt, err = x.db.Prepare(o.Text)
		} else {
			stmt, err = x.db.PrepareXQuery(o.Text)
		}
		if err == nil {
			res, st, err = stmt.ExecOpts(x.opts)
		}
	case o.Lang == langSQL:
		res, st, err = x.db.ExecSQLOpts(o.Text, x.opts)
	default:
		res, st, err = x.db.QueryXQueryOpts(o.Text, x.opts)
	}
	var rows [][]string
	if err == nil {
		rows = res.Rows()
	}
	out := outcome{Latency: time.Since(start), Err: err, Stats: st, Rows: len(rows)}
	out.Hash = hashRows(rows)
	return out
}

// httpClient is one keep-alive connection to the server's /query.
type httpClient struct {
	client *http.Client
	url    string
}

func newHTTPClient(baseURL string) *httpClient {
	return &httpClient{
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}, Timeout: time.Minute},
		url:    baseURL + "/query",
	}
}

func (c *httpClient) close() { c.client.CloseIdleConnections() }

func (c *httpClient) exec(o *op) outcome {
	// The language is always named: the server's keyword sniffing takes
	// DELETE for XQuery.
	body, err := json.Marshal(server.QueryRequest{Query: o.Text, Language: o.Lang.String()})
	if err != nil {
		return outcome{Err: err}
	}
	start := time.Now()
	resp, err := c.client.Post(c.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{Latency: time.Since(start), Err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := outcome{Latency: time.Since(start), RespBytes: len(data), Err: err}
	if err != nil {
		return out
	}
	if resp.StatusCode != http.StatusOK {
		out.Err = fmt.Errorf("HTTP %d: %.200s", resp.StatusCode, data)
		return out
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		out.Err = fmt.Errorf("response body: %w", err)
		return out
	}
	out.Hash, out.Rows, out.ServerMS = hashRows(qr.Rows), len(qr.Rows), qr.ElapsedMS
	if qr.Stats != nil {
		out.PlanCache = qr.Stats.PlanCache
	}
	return out
}
