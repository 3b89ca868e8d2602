package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/server"
)

const (
	// setup_s is the median of cold builds made in two rounds, one before
	// the measured window and one after it, so that one slow spell of the
	// machine cannot cover them all. A round is at least setupBuilds
	// builds, and more, up to setupMaxBuilds, while it totals under
	// setupMinTotal seconds.
	setupBuilds    = 2
	setupMaxBuilds = 12
	setupMinTotal  = 0.8
	// windowSlices parts of the measured window are each reduced to the
	// latency and throughput metrics; the run reports their medians.
	windowSlices = 20
	// Write rounds measure write_* on the workloads whose mix has no
	// writes: one before the warm-up, one between the windowParts parts of
	// the measured window, one after it. Each alternates INSERT and DELETE
	// for writeRoundTime, in writeSlices parts.
	windowParts    = 2
	writeRoundTime = 500 * time.Millisecond
	writeSlices    = 3
	// maxClients caps the load: GOMAXPROCS = min(nproc, 4), and never
	// more client connections than that.
	maxClients = 4
)

// runConfig is one invocation of one workload.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Warmup is discarded before the measured window.
	Warmup time.Duration
	// OutDir receives <workload>.json, trace-<workload>.json and the
	// temporary corpus files.
	OutDir string
	// Small shrinks the corpora and the fixed op counts for the
	// self-test.
	Small bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// templateStat is one template's share of a measured window.
type templateStat struct {
	Name  string  `json:"name"`
	Ops   int     `json:"ops"`
	P50MS float64 `json:"p50_ms"`
	// TimeShare is the template's share of the summed latency.
	TimeShare float64 `json:"time_share"`
}

// runResult is everything one run reports; bench/out/<workload>.json and
// the baseline sets hold these.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   int                    `json:"samples"`
	Templates []templateStat         `json:"templates,omitempty"`
	// Shares is the per-layer share of traced op time (traced runs).
	Shares   map[string]float64 `json:"layer_time_shares,omitempty"`
	Failures []string           `json:"failures,omitempty"`
	// SpaceBase is the raw corpus size space_amp divides by.
	SpaceBase int64 `json:"space_amp_base_bytes"`
	// SliceGM is lat_gm_ms of each slice of the window, in order: the
	// machine's slow spells show in it.
	SliceGM []float64 `json:"slice_lat_gm_ms,omitempty"`
}

// bench is the state of one run.
type bench struct {
	cfg       runConfig
	corpus    *corpus
	templates []template
	pool      []poolEntry
	db        *xqdb.DB
	// serve-rw only.
	httpSrv *http.Server
	baseURL string

	verifier *verifier
	clients  int
	setups   []float64 // seconds per cold build
	loadTime time.Duration
	spaceAmp float64
}

func knownWorkload(name string) bool {
	for _, w := range workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// specFor returns the corpus of a workload; small is the self-test's.
func specFor(workload string, small bool) corpusSpec {
	spec := corpusL
	if workload == "analytic" {
		spec = corpusS
	}
	if small {
		if workload == "analytic" {
			spec.Orders, spec.Customers = 150, 5
		} else {
			spec.Orders, spec.Customers = 3000, 100
		}
	}
	return spec
}

// setGOMAXPROCS applies the benchmark's load rule: min(nproc, 4).
func setGOMAXPROCS() int {
	n := min(runtime.NumCPU(), maxClients)
	runtime.GOMAXPROCS(n)
	return n
}

// newBench generates the corpus and runs the timed set-up.
func newBench(cfg runConfig) (*bench, error) {
	if !knownWorkload(cfg.Workload) {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	b := &bench{cfg: cfg, verifier: newVerifier(), clients: 1}
	procs := setGOMAXPROCS()
	switch cfg.Workload {
	case "analytic":
		b.templates = analyticTemplates
	case "serve-rw":
		b.clients = procs
		for _, t := range eligibleTemplates {
			if t.WriteStable {
				b.templates = append(b.templates, t)
			}
		}
		b.templates = append(b.templates, writeTemplates...)
	default:
		b.templates = append(append([]template(nil), eligibleTemplates...), writeTemplates...)
	}
	dir := filepath.Join(cfg.OutDir, fmt.Sprintf("corpus-%d", os.Getpid()))
	c, err := generate(specFor(cfg.Workload, cfg.Small), cfg.Seed, dir)
	if err != nil {
		return nil, err
	}
	b.corpus = c

	base := liveHeap()
	if err := b.buildRound(); err != nil {
		b.close()
		return nil, err
	}
	b.spaceAmp = float64(liveHeap()-base) / float64(c.xmlBytes)
	if cfg.Workload == "analytic" {
		for ti, t := range b.templates {
			b.pool = append(b.pool, poolEntry{Tpl: ti, Text: t.Text})
		}
	} else if b.pool, err = buildPool(b.readTemplates(), c); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// buildRound makes one round of cold builds and keeps the last as the
// database the workload runs on. Once a database is kept (the second
// round), the builds are only timed and dropped.
func (b *bench) buildRound() error {
	keep := b.db == nil
	total := 0.0
	for i := 0; i < setupMaxBuilds && (i < setupBuilds || total < setupMinTotal); i++ {
		if i > 0 && (b.cfg.Trace || b.cfg.Small) {
			break // per-layer runs report no setup_s
		}
		if keep {
			b.stop()
		}
		runtime.GC()
		var (
			srv   *http.Server
			url   string
			ready func(*xqdb.DB) error
		)
		if b.cfg.Workload == "serve-rw" {
			ready = func(db *xqdb.DB) (err error) {
				srv, url, err = listen(db)
				return err
			}
		}
		db, bs, err := buildDB(b.corpus, ready)
		if err != nil {
			return err
		}
		if keep {
			b.db, b.loadTime, b.httpSrv, b.baseURL = db, bs.Load, srv, url
		} else {
			shutdown(srv)
		}
		b.setups = append(b.setups, bs.Elapsed.Seconds())
		total += bs.Elapsed.Seconds()
	}
	return nil
}

// readTemplates is the template list without the trailing write pair.
func (b *bench) readTemplates() []template {
	n := len(b.templates)
	for n > 0 && b.templates[n-1].Class.write() {
		n--
	}
	return b.templates[:n]
}

// listen wires the server exactly as cmd/xqserve does — ConnContext and
// ConnState for sessions, its default admission budget and slow-query
// threshold — on a loopback port, and returns it with its base URL.
func listen(db *xqdb.DB) (*http.Server, string, error) {
	srv := server.New(server.Config{DB: db, SlowThreshold: 500 * time.Millisecond})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	httpSrv := &http.Server{Handler: srv.Handler(), ConnContext: srv.ConnContext, ConnState: srv.ConnState}
	go httpSrv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on shutdown
	return httpSrv, "http://" + ln.Addr().String(), nil
}

// shutdown stops a server started by listen (nil: nothing to stop) and
// waits for it.
func shutdown(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		srv.Close()
	}
}

// close ends the run: the server stops and the corpus files go.
func (b *bench) close() {
	b.stop()
	if b.corpus != nil {
		os.RemoveAll(b.corpus.dir) //nolint:errcheck // best effort: bench/out is scratch space
	}
}

// stop stops the server of the current build, if any, and drops the
// database.
func (b *bench) stop() {
	shutdown(b.httpSrv)
	b.httpSrv, b.db = nil, nil
}

// client is one closed-loop client: its stream and its executor.
type client struct {
	stream stream
	exec   executor
}

// newClients builds the workload's clients. opts carries Trace for the
// traced run.
func (b *bench) newClients(opts xqdb.QueryOptions) ([]client, error) {
	reads := b.readTemplates()
	seed := b.cfg.Seed
	switch b.cfg.Workload {
	case "point":
		x := &inproc{db: b.db, mode: modePrepared, opts: opts}
		if err := x.preparePool(reads, b.pool); err != nil {
			return nil, err
		}
		return []client{{newPointStream(reads, b.pool, seed), x}}, nil
	case "adhoc":
		return []client{{newAdhocStream(reads, b.corpus, seed), &inproc{db: b.db, mode: modePrepareEach, opts: opts}}}, nil
	case "analytic":
		s := newAnalyticStream(b.templates, seed)
		return []client{{poolTagged{s}, &inproc{db: b.db, mode: modeDirect, opts: opts}}}, nil
	}
	var clients []client
	for i := 0; i < b.clients; i++ {
		clients = append(clients, client{b.rwStream(i), newHTTPClient(b.baseURL)})
	}
	return clients, nil
}

// rwStream builds serve-rw client i's stream.
func (b *bench) rwStream(i int) *rwStream {
	reads := b.readTemplates()
	seed := b.cfg.Seed + int64(1000*i)
	return &rwStream{
		point:  newPointStream(reads, b.pool, seed),
		adhoc:  newAdhocStream(reads, b.corpus, seed),
		writes: b.writeStream(i, b.clients),
	}
}

func (b *bench) writeStream(client, clients int) *writeStream {
	n := len(b.templates)
	return &writeStream{seed: b.cfg.Seed, client: client, clients: clients, insertTpl: n - 2, deleTpl: n - 1}
}

// poolTagged marks analytic ops as pool statements (slot = template), so
// the verifier holds each to its oracle answer.
type poolTagged struct{ s *analyticStream }

func (p poolTagged) next() op {
	o := p.s.next()
	o.Pool = o.Tpl
	return o
}

// oracle answers pool statements with indexes off before anything is
// timed: every analytic statement, and the seed's pick of the pool.
func (b *bench) oracle() error {
	if b.cfg.Workload == "adhoc" {
		return nil // fresh statements only: checked after the run
	}
	slots := oracleSlots(b.pool, b.cfg.Seed)
	if b.cfg.Workload == "analytic" {
		slots = slots[:0]
		for i := range b.pool {
			slots = append(slots, i)
		}
	}
	return b.verifier.oraclePool(b.db, b.templates, b.pool, slots)
}

// window is one measured (or warm-up) interval.
type window struct {
	samples   []sample
	slices    int
	attempted int
	failed    int
	wall      time.Duration
	mem0      runtime.MemStats
	mem1      runtime.MemStats
	// allocBytes and mallocs are the heap allocated while the window ran.
	allocBytes, mallocs uint64
	// HTTP execution only.
	serverMS  float64
	respBytes int64
	bypass    int
}

// add appends a later part of the same window.
func (w *window) add(part window) {
	w.samples = append(w.samples, part.samples...)
	w.attempted += part.attempted
	w.failed += part.failed
	w.wall += part.wall
	w.allocBytes += part.allocBytes
	w.mallocs += part.mallocs
	w.serverMS += part.serverMS
	w.respBytes += part.respBytes
	w.bypass += part.bypass
}

// bounds says when a window ends — after Dur, or sooner after Ops
// operations per client when Ops is set — and how it is cut into slices:
// by operation count when Ops is set, by time otherwise.
type bounds struct {
	Dur    time.Duration
	Ops    int
	Slices int
	// First is the number of the window's first slice, for a window
	// measured in parts.
	First int
}

func (bd bounds) done(ops int, elapsed time.Duration) bool {
	return elapsed >= bd.Dur || (bd.Ops > 0 && ops >= bd.Ops)
}

func (bd bounds) slice(ops int, elapsed time.Duration) uint16 {
	i := 0
	if bd.Ops > 0 {
		i = ops * bd.Slices / bd.Ops
	} else {
		i = int(int64(elapsed) * int64(bd.Slices) / int64(bd.Dur))
	}
	return uint16(bd.First + max(0, min(i, bd.Slices-1)))
}

// until bounds a window by time alone, in one slice.
func until(d time.Duration) bounds { return bounds{Dur: d, Slices: 1} }

// upTo bounds a window by n operations per client, d at the latest.
func upTo(n int, d time.Duration) bounds { return bounds{Dur: d, Ops: n, Slices: 1} }

// runWindow drives every client in a closed loop until the bounds end
// it, checking each answer outside the timed region.
func (b *bench) runWindow(clients []client, bd bounds) window {
	bd.Slices = max(bd.Slices, 1)
	w := window{slices: bd.First + bd.Slices}
	parts := make([]window, len(clients))
	runtime.ReadMemStats(&w.mem0)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := range clients {
		wg.Add(1)
		go func(c client, part *window) {
			defer wg.Done()
			for !bd.done(part.attempted, time.Since(start)) {
				o := c.stream.next()
				out := c.exec.exec(&o)
				slice := bd.slice(part.attempted, time.Since(start))
				part.attempted++
				if !b.verifier.check(&o, out) {
					part.failed++
					continue
				}
				part.samples = append(part.samples, sample{Tpl: int32(o.Tpl), Class: o.Class, Slice: slice, NS: out.Latency.Nanoseconds()})
				part.serverMS += out.ServerMS
				part.respBytes += int64(out.RespBytes)
				if out.PlanCache == "bypass" {
					part.bypass++
				}
			}
		}(clients[ci], &parts[ci])
	}
	wg.Wait()
	w.wall = time.Since(start)
	runtime.ReadMemStats(&w.mem1)
	w.allocBytes, w.mallocs = w.mem1.TotalAlloc-w.mem0.TotalAlloc, w.mem1.Mallocs-w.mem0.Mallocs
	for _, p := range parts {
		w.add(p)
	}
	return w
}

// runUntraced is the --trace 0 run: warm-up, the measured window, the
// write epilogue, the after-run checks, and the end-to-end metrics.
func (b *bench) runUntraced() (*runResult, error) {
	clients, err := b.newClients(xqdb.QueryOptions{})
	if err != nil {
		return nil, err
	}
	defer closeClients(clients)
	if err := b.oracle(); err != nil {
		return nil, err
	}
	writes := window{slices: (windowParts + 1) * writeSlices}
	writer := client{b.writeStream(0, 1), &inproc{db: b.db, mode: modeDirect}}
	b.writeRound(writer, &writes, 0)
	warm := b.runWindow(clients, until(b.cfg.Warmup))
	runtime.GC()
	// The window runs in parts with a write round after each. Writes
	// between parts cost a point statement one probe-cache miss in the
	// thirty-odd times it runs per slice.
	w := window{slices: windowSlices, attempted: warm.failed, failed: warm.failed} // a failure during warm-up still fails the run
	part := bounds{Dur: time.Duration(b.cfg.Seconds * float64(time.Second) / windowParts), Slices: windowSlices / windowParts}
	for i := 0; i < windowParts; i++ {
		part.First = i * part.Slices
		w.add(b.runWindow(clients, part))
		b.writeRound(writer, &writes, (i+1)*writeSlices)
	}
	w.attempted += writes.attempted
	w.failed += writes.failed
	if b.cfg.Workload == "serve-rw" {
		writes = w // the mix has its own writes
	}
	closeClients(clients)
	if err := b.buildRound(); err != nil {
		return nil, err
	}
	checked, wrong := b.verifier.checkSpots(b.db)
	w.attempted += checked
	w.failed += wrong
	if b.cfg.Workload == "serve-rw" {
		lost := b.verifier.checkWrites(b.db, b.corpus.spec.Orders)
		w.attempted += lost
		w.failed += lost
	}

	res := b.result(w)
	ops := float64(len(w.samples))
	every := func(sample) bool { return true }
	read := func(s sample) bool { return !s.Class.write() }
	join := func(s sample) bool { return s.Class == classJoin }
	write := func(s sample) bool { return s.Class.write() }
	gm := latencies.geoMeanOfMedians
	p95 := func(l latencies) float64 { return l.p(0.95) }
	p50 := func(l latencies) float64 { return l.p(0.5) }
	sliceSeconds := w.wall.Seconds() / float64(w.slices)
	values := map[string]float64{
		"setup_s":         median(b.setups),
		"ops_per_s":       overSlices(w.samples, w.slices, every, func(l latencies) float64 { return float64(len(l.all)) / sliceSeconds }),
		"lat_gm_ms":       overSlices(w.samples, w.slices, every, gm),
		"p95_ms":          overSlices(w.samples, w.slices, every, p95),
		"join_p50_ms":     overSlices(w.samples, w.slices, join, p50),
		"read_gm_ms":      overSlices(w.samples, w.slices, read, gm),
		"read_p95_ms":     overSlices(w.samples, w.slices, read, p95),
		"write_gm_ms":     overSlices(writes.samples, writes.slices, write, gm),
		"write_p95_ms":    overSlices(writes.samples, writes.slices, write, p95),
		"alloc_kb_per_op": float64(w.allocBytes) / 1024 / ops,
		"allocs_per_op":   float64(w.mallocs) / ops,
		"space_amp":       b.spaceAmp,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	res.Templates = b.templateStats(w.samples)
	for i := 0; i < w.slices; i++ {
		res.SliceGM = append(res.SliceGM, collect(w.samples, func(s sample) bool { return int(s.Slice) == i }).geoMeanOfMedians())
	}
	return res, nil
}

// writeRound runs one round of INSERT/DELETE pairs in-process, outside
// the measured window, on the workloads whose mix has no writes, adding
// its samples to writes in the slices from firstSlice on.
func (b *bench) writeRound(writer client, writes *window, firstSlice int) {
	if b.cfg.Workload == "serve-rw" {
		return
	}
	dur := writeRoundTime
	if b.cfg.Small {
		dur /= 8
	}
	round := b.runWindow([]client{writer}, bounds{Dur: dur, Slices: writeSlices, First: firstSlice})
	if ws := writer.stream.(*writeStream); len(ws.live) > 0 {
		// Time ended the round between an INSERT and its DELETE: delete
		// now, untimed, so the table is as the oracle saw it.
		o := ws.next()
		round.attempted++
		if !b.verifier.check(&o, writer.exec.exec(&o)) {
			round.failed++
		}
	}
	writes.add(round)
}

func closeClients(clients []client) {
	for _, c := range clients {
		if h, ok := c.exec.(*httpClient); ok {
			h.close()
		}
	}
}

// result starts a runResult from a window's counts.
func (b *bench) result(w window) *runResult {
	return &runResult{
		Workload: b.cfg.Workload, Seed: b.cfg.Seed, Seconds: b.cfg.Seconds, Trace: b.cfg.Trace,
		Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed,
		Metrics: map[string]metricValue{}, Samples: len(w.samples),
		Failures: b.verifier.failures, SpaceBase: b.corpus.xmlBytes,
	}
}

// templateStats summarises a window per template.
func (b *bench) templateStats(samples []sample) []templateStat {
	l := collect(samples, func(sample) bool { return true })
	total := 0.0
	for _, v := range l.all {
		total += v
	}
	var out []templateStat
	for ti, t := range b.templates {
		v := l.byTpl[int32(ti)]
		if len(v) == 0 {
			continue
		}
		sum := 0.0
		for _, ms := range v {
			sum += ms
		}
		out = append(out, templateStat{Name: t.Name, Ops: len(v), P50MS: percentile(v, 0.5), TimeShare: sum / total})
	}
	return out
}
