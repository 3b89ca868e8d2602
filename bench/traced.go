package main

import (
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xquery"
)

// span is one timed interval of the traced run. The harness records its
// own spans around each staged call and adopts the engine's
// plan/probe/relprobe/eval/scan/merge spans as children of the exec
// span. Times are nanoseconds since the traced run began.
type span struct {
	Op     int    `json:"op_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent_id"` // 0: a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Note   string `json:"note,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func (t *tracer) add(op, parent int, name string, start, end time.Time, note string) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(), Note: note})
	return id
}

// tracedOps is the fixed op count of each workload's traced run.
var tracedOps = map[string]int{"point": 2000, "adhoc": 2000, "analytic": 200, "serve-rw": 1000}

// opTotals accumulates the engine's per-op reports over the traced ops.
type opTotals struct {
	ops, sqlOps, xqOps, readOps   int
	sqlParseNS, xqParseNS, analNS int64
	probes, keys                  int
	docsTotal, docsScanned        int
	sqlRowsScanned, sqlRowsOut    int
	xqDocsScanned, xqItems        int
	nodesSeeded, nodesDecoded     int
	indexOnly, synAnswered        int
	synSkips, shards              int
	bypass                        int
	inserts, deletes              int
	built                         map[int]bool // ops that built a plan
}

// tracedClient executes in-process with Trace on, staging the parse and
// analysis calls on their own and recording spans.
type tracedClient struct {
	x   *inproc
	tr  *tracer
	cat *storage.Catalog // schema for the staged AnalyzeSQL
	tot *opTotals
	seq int // ops executed, the op_id of the spans
}

func (c *tracedClient) exec(o *op) outcome {
	c.seq++
	id := c.seq
	tot := c.tot
	tot.ops++

	// Staged calls: what parsing and analysing this text costs, timed by
	// calling the layers directly. The engine repeats them inside its
	// plan step whenever the plan cache does not hit.
	p0 := time.Now()
	var analyze func()
	if o.Lang == langSQL {
		stmt, err := sqlxml.Parse(o.Text)
		if err == nil {
			analyze = func() { core.AnalyzeSQL(stmt, c.cat) } //nolint:errcheck // timing only
		}
	} else {
		m, err := xquery.Parse(o.Text)
		if err == nil {
			analyze = func() { core.AnalyzeXQuery(m, nil, true, "") }
		}
	}
	p1 := time.Now()
	c.tr.add(id, 0, "stage.parse", p0, p1, o.Lang.String())
	if o.Lang == langSQL {
		tot.sqlOps++
		tot.sqlParseNS += p1.Sub(p0).Nanoseconds()
	} else {
		tot.xqOps++
		tot.xqParseNS += p1.Sub(p0).Nanoseconds()
	}
	if analyze != nil && !o.Class.write() {
		analyze()
		a1 := time.Now()
		c.tr.add(id, 0, "stage.analyze", p1, a1, "")
		tot.readOps++
		tot.analNS += a1.Sub(p1).Nanoseconds()
	}

	var (
		res  *xqdb.Result
		st   *xqdb.Stats
		err  error
		stmt *xqdb.Stmt
	)
	x := c.x
	prepared := x.mode == modePrepared && o.Pool >= 0
	prepareEach := !prepared && x.mode != modeDirect && o.Class != classInsert
	r0 := time.Now()
	root := c.tr.add(id, 0, "op", r0, r0, o.Text)
	execID := c.tr.add(id, root, "exec", r0, r0, "")
	e0 := r0
	if prepareEach {
		if o.Lang == langSQL {
			stmt, err = x.db.Prepare(o.Text)
		} else {
			stmt, err = x.db.PrepareXQuery(o.Text)
		}
		e0 = time.Now()
		c.tr.add(id, execID, "prepare", r0, e0, "")
	}
	switch {
	case err != nil:
	case prepared:
		res, st, err = x.stmts[o.Pool].ExecOpts(x.opts)
	case prepareEach:
		res, st, err = stmt.ExecOpts(x.opts)
	case o.Lang == langSQL:
		res, st, err = x.db.ExecSQLOpts(o.Text, x.opts)
	default:
		res, st, err = x.db.QueryXQueryOpts(o.Text, x.opts)
	}
	e1 := time.Now()
	var rows [][]string
	if err == nil {
		rows = res.Rows()
	}
	r1 := time.Now()
	c.tr.spans[execID-1].End = e1.Sub(c.tr.epoch).Nanoseconds()
	c.tr.add(id, root, "rows", e1, r1, "")
	c.tr.spans[root-1].End = r1.Sub(c.tr.epoch).Nanoseconds()

	out := outcome{Latency: r1.Sub(r0), Err: err, Stats: st, Rows: len(rows), Hash: hashRows(rows)}
	if st == nil {
		return out
	}
	if st.Trace != nil {
		// The engine's offsets count from its own start, just inside the
		// call the harness began timing at e0.
		for _, s := range st.Trace.Spans {
			c.tr.add(id, execID, s.Name, e0.Add(s.Start), e0.Add(s.Start+s.Dur), s.Note)
		}
	}
	if o.Pool < 0 || x.mode == modeDirect {
		tot.built[id] = true
	}
	if st.PlanCache == "bypass" {
		tot.bypass++
	}
	tot.probes += st.Probes
	tot.keys += st.KeysVisited
	tot.docsTotal += st.DocsTotal
	tot.docsScanned += st.DocsScanned
	tot.nodesSeeded += st.NodesSeeded
	tot.nodesDecoded += st.NodesDecoded
	tot.synSkips += st.SynopsisSkips
	tot.shards += max(st.ParallelShards, 1)
	if st.IndexOnlyAnswered {
		tot.indexOnly++
	}
	if st.SynopsisAnswered {
		tot.synAnswered++
	}
	switch {
	case o.Class == classInsert:
		tot.inserts++
	case o.Class == classDelete:
		tot.deletes++
	case o.Lang == langSQL:
		tot.sqlRowsScanned += st.RowsScanned
		tot.sqlRowsOut += len(rows)
	default:
		tot.xqDocsScanned += st.DocsScanned
		tot.xqItems += len(rows)
	}
	return out
}

// layerOf maps a span name to the layer its self time belongs to.
func layerOf(name string) string {
	switch name {
	case "op":
		return "harness"
	case "exec":
		return "engine.other"
	case "prepare", "plan":
		return "engine.plan"
	case "probe", "relprobe":
		return "xmlindex.probe"
	case "eval":
		return "xquery.eval"
	case "scan":
		return "sqlxml.exec"
	case "merge":
		return "engine.merge"
	case "rows":
		return "xdm.serialize"
	}
	return name
}

// selfTimes returns, per op and span name, the span's self time: its
// duration minus the part of that interval its child spans cover.
// Overlapping children (parallel probes, shards) are merged first.
func selfTimes(spans []span) (self map[int]map[string]int64, wall map[int]int64) {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, wall = map[int]map[string]int64{}, map[int]int64{}
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "stage.") {
			continue // staged calls are outside the op's wall time
		}
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		if self[s.Op] == nil {
			self[s.Op] = map[string]int64{}
		}
		self[s.Op][s.Name] += s.End - s.Start - covered
		if s.Name == "op" {
			wall[s.Op] = s.End - s.Start
		}
	}
	return self, wall
}

// spanSum totals the durations of the named spans per op.
func spanSum(spans []span, names ...string) map[int]int64 {
	out := map[int]int64{}
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				out[s.Op] += s.End - s.Start
			}
		}
	}
	return out
}

func total(m map[int]int64) int64 {
	var t int64
	for _, v := range m {
		t += v
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counters reads the registry counters (and histogram sums) the traced
// run takes deltas of.
func counters(db *xqdb.DB) map[string]int64 {
	snap := db.MetricsSnapshot()
	out := map[string]int64{}
	for k, v := range snap.Counters {
		out[k] = v
	}
	for k, v := range snap.Gauges {
		out["gauge:"+k] = v
	}
	for k, h := range snap.Histograms {
		out["sum:"+k] = h.SumNanos
	}
	return out
}

// runTraced is the --trace 1 run: after warm-up, the fixed op sample runs
// untraced (for the overhead ratio and the tail) and then traced; the
// kernel passes time the private layers; registry-counter deltas fill in
// what neither sees.
func (b *bench) runTraced() (*runResult, error) {
	k, err := buildKernels(b.corpus)
	if err != nil {
		return nil, err
	}
	if err := k.runAll(b.corpus); err != nil {
		return nil, err
	}
	n := tracedOps[b.cfg.Workload]
	if b.cfg.Small {
		n /= 20
	}
	budget := time.Duration(b.cfg.Seconds * float64(time.Second))

	clients, err := b.newClients(xqdb.QueryOptions{})
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	b.runWindow(clients, until(b.cfg.Warmup))

	v := map[string]float64{}
	for name, val := range k.values {
		v[name] = val
	}
	setup := counters(b.db)

	// serve-rw: the HTTP sample, for what only the wire shows.
	httpFailed, httpAttempted := 0, 0
	if b.cfg.Workload == "serve-rw" {
		before := counters(b.db)
		hw := b.runWindow(clients, upTo(n/len(clients), budget/4))
		after := counters(b.db)
		ops := float64(len(hw.samples))
		rtt := 0.0
		for _, s := range hw.samples {
			rtt += float64(s.NS) / 1e6
		}
		v["server.overhead_ms"] = ratio(rtt-hw.serverMS, ops)
		v["server.resp_bytes_per_op"] = ratio(float64(hw.respBytes), ops)
		v["server.non200"] = float64(hw.failed)
		v["admission.queued"] = float64(after["admission.queued"] - before["admission.queued"])
		v["admission.shed"] = float64(after["admission.shed"] - before["admission.shed"])
		v["admission.wait_ms"] = ratio(float64(after["sum:admission.queue.wait"]-before["sum:admission.queue.wait"])/1e6, ops)
		v["server.share"] = ratio(rtt-hw.serverMS, rtt)
		httpFailed, httpAttempted = hw.failed, hw.attempted
		closeClients(clients)
	}

	// The in-process sample, untraced then traced, one client. serve-rw
	// submits the way its server does: reads and DELETE prepared per
	// request, INSERT direct.
	x := &inproc{db: b.db}
	var s stream
	switch b.cfg.Workload {
	case "serve-rw":
		x.mode = modePrepareEach
		rw := b.rwStream(b.clients)
		rw.writes.base = benchKeyBase / 2 // keys no HTTP client reaches
		s = rw
	default:
		c := clients[0]
		x, s = c.exec.(*inproc), c.stream
	}
	uw := b.runWindow([]client{{s, x}}, upTo(n, budget/4))
	untraced := collect(uw.samples, func(sample) bool { return true })

	tr := &tracer{epoch: time.Now()}
	tot := &opTotals{built: map[int]bool{}}
	tx := *x
	tx.opts.Trace = true
	tc := &tracedClient{x: &tx, tr: tr, cat: k.cat, tot: tot}
	peak := uint64(0)
	sampler := heapSampler{every: 128, peak: &peak, inner: tc}
	before := counters(b.db)
	tw := b.runWindow([]client{{s, &sampler}}, upTo(n, budget/2))
	after := counters(b.db)
	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	traced := collect(tw.samples, func(sample) bool { return true })
	ops := float64(tot.ops)

	self, wall := selfTimes(tr.spans)
	wallNS := float64(total(wall))
	plan := spanSum(tr.spans, "prepare", "plan")
	evalNS := total(spanSum(tr.spans, "eval"))
	scanSelf := int64(0)
	layers := map[string]float64{}
	attributed := 0.0
	for _, byName := range self {
		for name, ns := range byName {
			if name == "scan" {
				scanSelf += ns
			}
			layers[layerOf(name)] += float64(ns)
			if name != "op" {
				attributed += float64(ns)
			}
		}
	}

	v["sqlxml.parse_us"] = ratio(float64(tot.sqlParseNS)/1e3, float64(tot.sqlOps))
	v["sqlxml.exec_self_ms"] = ratio(float64(scanSelf)/1e6, float64(tot.sqlOps))
	v["sqlxml.rows_scanned_per_row_out"] = ratio(float64(tot.sqlRowsScanned), float64(tot.sqlRowsOut))
	v["xquery.parse_us"] = ratio(float64(tot.xqParseNS)/1e3, float64(tot.xqOps))
	v["xquery.eval_ms"] = ratio(float64(evalNS)/1e6, float64(tot.xqOps))
	v["xquery.docs_walked_per_item"] = ratio(float64(tot.xqDocsScanned), float64(tot.xqItems))
	v["core.analyze_us"] = ratio(float64(tot.analNS)/1e3, float64(tot.readOps))
	v["engine.plan_us"] = ratio(float64(total(plan))/1e3, ops)
	v["engine.plancache_hit_ratio"] = max(0, 1-ratio(delta("plancache.misses")+float64(tot.bypass), ops))
	v["engine.probe_ms"] = ratio(float64(total(spanSum(tr.spans, "probe", "relprobe")))/1e6, ops)
	v["engine.merge_ms"] = ratio(float64(total(spanSum(tr.spans, "merge")))/1e6, ops)
	v["engine.docs_scanned_ratio"] = ratio(float64(tot.docsScanned), float64(tot.docsTotal))
	v["engine.nodes_seeded"] = ratio(float64(tot.nodesSeeded), ops)
	v["engine.index_only_ratio"] = ratio(float64(tot.indexOnly), ops)
	v["engine.synopsis_answer_ratio"] = ratio(float64(tot.synAnswered), ops)
	v["engine.shards"] = ratio(float64(tot.shards), ops)
	v["xmlindex.probecache_hit_ratio"] = ratio(delta("probecache.hits"), delta("probecache.hits")+delta("probecache.misses"))
	v["xmlindex.keys_per_probe"] = ratio(float64(tot.keys), float64(tot.probes))
	v["xmlindex.nodes_decoded"] = ratio(float64(tot.nodesDecoded), ops)
	v["xmlindex.entries"] = float64(after["gauge:xmlindex.entries"])
	v["btree.scans"] = ratio(delta("btree.scans"), ops)
	v["btree.keys_visited"] = ratio(delta("btree.keys_visited"), ops)
	v["synopsis.skips"] = ratio(float64(tot.synSkips), ops)
	v["ingest.docs_per_s"] = ratio(float64(b.corpus.spec.Orders), b.loadTime.Seconds())
	parseNS, indexNS := float64(setup["ingest.parse_ns"]), float64(setup["ingest.index_ns"])
	v["ingest.parse_share"] = ratio(parseNS, parseNS+indexNS)
	v["ingest.index_share"] = ratio(indexNS, parseNS+indexNS)
	v["ingest.runs_merged"] = float64(setup["ingest.runs_merged"])
	v["xdm.bytes_per_node"] = ratio(b.spaceAmp*float64(b.corpus.xmlBytes), float64(k.nodes))
	v["runtime.gc_cycles"] = float64(tw.mem1.NumGC - tw.mem0.NumGC)
	v["runtime.gc_pause_ms"] = float64(tw.mem1.PauseTotalNs-tw.mem0.PauseTotalNs) / 1e6
	v["runtime.heap_peak_mb"] = float64(peak) / (1 << 20)
	v["harness.p99_ms"] = untraced.p(0.99)
	v["harness.trace_coverage"] = ratio(attributed, wallNS)
	v["harness.trace_overhead_ratio"] = ratio(traced.p(0.5), untraced.p(0.5))
	v["harness.loadavg_1m"] = loadavg()
	v["harness.samples"] = ops

	w := tw
	w.attempted += uw.attempted + httpAttempted
	w.failed += uw.failed + httpFailed
	v["harness.fail_ratio"] = ratio(float64(w.failed), float64(w.attempted))
	res := b.result(w)
	for _, m := range perLayer {
		res.Metrics[m.Name] = metricValue{Value: v[m.Name], Unit: m.Unit}
	}
	res.Templates = b.templateStats(tw.samples)
	res.Shares = b.shares(layers, wallNS, plan, tot, v)
	if err := writeJSON(filepath.Join(b.cfg.OutDir, "trace-"+b.cfg.Workload+".json"), tr.spans); err != nil {
		return nil, err
	}
	return res, nil
}

// shares turns per-layer self time into shares of traced op time. The
// plan step's time is split into parse, analysis and planning by the
// staged calls, for the ops that built a plan; the write path inside the
// executor's span is split by kernel cost x write count; serve-rw's
// in-process shares are scaled into the share of the round trip the
// server spends in the engine.
func (b *bench) shares(layers map[string]float64, wallNS float64, plan map[int]int64, tot *opTotals, v map[string]float64) map[string]float64 {
	var builtPlan float64
	for id := range tot.built {
		builtPlan += float64(plan[id])
	}
	parse := min(builtPlan, float64(tot.sqlParseNS+tot.xqParseNS)*ratio(float64(len(tot.built)), float64(tot.ops)))
	analyze := min(builtPlan-parse, float64(tot.analNS)*ratio(float64(len(tot.built)), float64(tot.ops)))
	layers["engine.plan"] -= parse + analyze
	layers["parse"] = parse
	layers["core.analyze"] = analyze

	// Per-row write path, from the kernel passes: XML parse of the
	// inserted document, index maintenance on the four order indexes
	// (B+Tree work included), and the rest of storage.Insert/Delete.
	const orderIndexes = 4
	ins, del := float64(tot.inserts), float64(tot.deletes)
	docBytes := float64(b.corpus.xmlBytes) / float64(b.corpus.spec.Orders+b.corpus.spec.Customers)
	xmlparse := ins * docBytes / v["xmlparse.parse_mb_per_s"] * 1e3
	index := orderIndexes * 1e3 * (ins*v["xmlindex.insertdoc_us"] + del*v["xmlindex.deletedoc_us"])
	store := max(0, 1e3*(ins*v["storage.insert_us"]+del*v["storage.delete_us"])-index)
	if write := xmlparse + index + store; write > 0 && write < layers["sqlxml.exec"] {
		layers["sqlxml.exec"] -= write
		layers["write.xmlparse"], layers["write.xmlindex+btree"], layers["write.storage"] = xmlparse, index, store
	}

	engineShare := 1 - v["server.share"]
	out := map[string]float64{}
	for name, ns := range layers {
		out[name] = engineShare * ns / wallNS
	}
	if s := v["server.share"]; s > 0 {
		out["server+http"] = s
	}
	return out
}

// heapSampler wraps an executor and reads the live heap every few ops,
// between operations, for runtime.heap_peak_mb.
type heapSampler struct {
	every int
	n     int
	peak  *uint64
	inner executor
}

func (h *heapSampler) exec(o *op) outcome {
	if h.n%h.every == 0 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		*h.peak = max(*h.peak, ms.HeapAlloc)
	}
	h.n++
	return h.inner.exec(o)
}

// loadavg reads the 1-minute load average; 0 where /proc is absent.
func loadavg() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	f, _, _ := strings.Cut(string(data), " ")
	val, _ := strconv.ParseFloat(f, 64)
	return val
}
