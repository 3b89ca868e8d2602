package engine

import (
	"container/list"
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xquery"
)

// Lang identifies a query language; it is part of the plan-cache key
// because the same text could parse under both grammars.
type Lang uint8

// Query languages.
const (
	LangSQL Lang = iota
	LangXQuery
)

// ExecOptions tunes one execution.
type ExecOptions struct {
	// Guard bounds the execution (nil = unlimited).
	Guard *guard.Guard
	// UseIndexes lets the planner install Definition-1 pre-filters.
	UseIndexes bool
	// Parallelism caps the worker count for document-at-a-time
	// execution: <= 0 means GOMAXPROCS, 1 disables parallelism.
	Parallelism int
	// Prepared routes plan construction through the plan cache: the
	// parsed AST, analysis, and probe templates are reused across calls
	// until a schema change invalidates them.
	Prepared bool
	// Trace collects timed execution spans on Stats.Trace.
	Trace bool
	// SemiJoinMaxValues caps the distinct join values a semi-join probe
	// gathers before degrading to a full scan; <= 0 means the default
	// (4096).
	SemiJoinMaxValues int
	// NoProbeCache bypasses the per-index probe-result cache (neither
	// read nor populated) — the uncached baseline for determinism and
	// equivalence tests.
	NoProbeCache bool
	// NoSynopsis disables the path-synopsis execution paths: probes the
	// planner marked as short-circuited run against the index anyway,
	// and structural-only queries evaluate normally. The no-synopsis
	// baseline for equivalence tests. (Probe ranking is a
	// plan-time property and is unaffected — it never changes results.)
	NoSynopsis bool
	// NoIndexOnly disables index-only answers: fn:count/fn:exists over
	// a value predicate evaluates normally even when a node-granularity
	// probe could answer it. The doc-granular baseline for equivalence
	// tests.
	NoIndexOnly bool
	// NoNodeSeeds disables probe-guided re-evaluation: probes run at
	// document granularity only and the evaluator walks every candidate
	// node instead of jumping to index hits. The full-walk baseline.
	NoNodeSeeds bool
}

// plan is a prepared execution plan — everything derivable from the query
// text and the catalog schema alone. Data-dependent probe inputs (the
// distinct value set of a semi-join) are gathered per execution, so a
// cached plan never serves stale data.
type plan struct {
	// version is the catalog schema version the plan was built against;
	// the cache drops the plan when the catalog moves past it.
	version    uint64
	lang       Lang
	useIndexes bool

	xq      *xquery.Module
	sqlStmt sqlxml.Statement

	analysis *core.Analysis
	probes   []probePlan
	// decisions records the planner's per-predicate reasoning (candidate
	// verdicts, chosen index, skip notes) for EXPLAIN.
	decisions []predDecision

	// answer, when non-nil, marks a query answerable without walking
	// documents, from the path synopsis or one index probe; execution
	// falls back to normal evaluation when the source has no exact answer.
	answer *answerSource

	// explain marks a SQL EXPLAIN wrapper: execution renders the plan
	// report instead of running the statement.
	explain bool

	// partColl names the collection over which document-at-a-time
	// execution may be partitioned; "" forces serial evaluation.
	partColl string
}

// planKey identifies a cache entry.
type planKey struct {
	query      string
	lang       Lang
	useIndexes bool
}

// planCacheCap bounds the number of cached plans per engine.
const planCacheCap = 256

// planCache is an LRU map of prepared plans. Entries whose catalog
// version is stale are dropped on lookup; eviction removes the least
// recently used entry.
type planCache struct {
	mu    sync.Mutex
	items map[planKey]*list.Element
	order *list.List // front = most recently used

	// Cache traffic counters (nil-safe when built without a registry).
	mHits, mMisses, mStale, mEvict *metrics.Counter
	mSize                          *metrics.Gauge
}

type planEntry struct {
	key planKey
	p   *plan
}

func newPlanCache(reg *metrics.Registry) *planCache {
	return &planCache{
		items:   map[planKey]*list.Element{},
		order:   list.New(),
		mHits:   reg.Counter("plancache.hits"),
		mMisses: reg.Counter("plancache.misses"),
		mStale:  reg.Counter("plancache.stale"),
		mEvict:  reg.Counter("plancache.evictions"),
		mSize:   reg.Gauge("plancache.size"),
	}
}

// get returns the cached plan for k if it was built against the current
// catalog version; a stale entry is removed and nil returned.
func (c *planCache) get(k planKey, version uint64) *plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		c.mMisses.Inc()
		return nil
	}
	ent := el.Value.(*planEntry)
	if ent.p.version != version {
		c.order.Remove(el)
		delete(c.items, k)
		c.mStale.Inc()
		c.mMisses.Inc()
		c.mSize.Set(int64(len(c.items)))
		return nil
	}
	c.order.MoveToFront(el)
	c.mHits.Inc()
	return ent.p
}

// put inserts or replaces a plan, evicting the least recently used entry
// past capacity.
func (c *planCache) put(k planKey, p *plan) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*planEntry).p = p
		c.order.MoveToFront(el)
		return
	}
	c.items[k] = c.order.PushFront(&planEntry{key: k, p: p})
	for len(c.items) > planCacheCap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.items, el.Value.(*planEntry).key)
		c.mEvict.Inc()
	}
	c.mSize.Set(int64(len(c.items)))
}

func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// PlanCacheLen reports the number of cached plans (tests and monitoring).
func (e *Engine) PlanCacheLen() int { return e.plans.len() }

// Prepare parses, analyzes, and caches the plan for a query, surfacing
// parse and analysis errors now instead of at execution time. Probes
// still run per call — their inputs are data-dependent.
func (e *Engine) Prepare(query string, lang Lang, useIndexes bool) (err error) {
	defer recoverPanic(&err)
	_, err = e.planFor(query, lang, useIndexes, true, &Stats{})
	return err
}

// planFor returns the plan for a query, consulting the cache only for
// prepared execution: unprepared calls always pay the full parse +
// analysis cost, keeping the prepared/unprepared comparison honest. The
// cache outcome is reported on stats.PlanCache.
func (e *Engine) planFor(query string, lang Lang, useIndexes, prepared bool, stats *Stats) (*plan, error) {
	if !prepared {
		stats.PlanCache = "bypass"
		return e.buildPlan(query, lang, useIndexes)
	}
	//xqvet:cachekey-ok prepared only selects cache bypass above; the built plan does not depend on it
	k := planKey{query: query, lang: lang, useIndexes: useIndexes}
	if p := e.plans.get(k, e.Catalog.Version()); p != nil {
		stats.PlanCache = "hit"
		return p, nil
	}
	stats.PlanCache = "miss"
	p, err := e.buildPlan(query, lang, useIndexes)
	if err != nil {
		return nil, err
	}
	e.plans.put(k, p)
	return p, nil
}

// buildPlan constructs a fresh plan. The catalog version is read before
// planning: a DDL statement racing past this point makes the plan look
// stale on its next cache lookup, which errs on the safe side.
func (e *Engine) buildPlan(query string, lang Lang, useIndexes bool) (*plan, error) {
	p := &plan{version: e.Catalog.Version(), lang: lang, useIndexes: useIndexes}
	switch lang {
	case LangXQuery:
		m, err := xquery.Parse(query)
		if err != nil {
			return nil, err
		}
		p.xq = m
		if name, ok := xquery.Partitionable(m); ok {
			p.partColl = name
		}
		if useIndexes {
			p.analysis = core.AnalyzeXQuery(m, nil, true, "")
			p.probes, p.decisions, err = e.planProbes(p.analysis)
			if err != nil {
				return nil, err
			}
			if q, ok := core.DocFree(m); ok {
				p.answer = e.planAnswer(q)
			}
		}
	case LangSQL:
		stmt, err := sqlxml.Parse(query)
		if err != nil {
			return nil, err
		}
		if ex, ok := stmt.(*sqlxml.Explain); ok {
			// EXPLAIN <stmt>: plan the inner statement, but mark the plan
			// so execution renders the report instead of running it. The
			// analysis runs even with indexes off so the report can say
			// what the planner would have done.
			p.explain = true
			stmt = ex.Stmt
		}
		p.sqlStmt = stmt
		if useIndexes || p.explain {
			if _, ok := stmt.(*sqlxml.CreateIndex); !ok {
				p.analysis, err = core.AnalyzeSQL(stmt, e.Catalog)
				if err != nil {
					return nil, err
				}
				p.probes, p.decisions, err = e.planProbes(p.analysis)
				if err != nil {
					return nil, err
				}
			}
		}
	}
	return p, nil
}

// parallelism resolves the option default.
func parallelism(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// ExecXQueryOpts plans (or fetches a cached plan) and runs a stand-alone
// XQuery under the given options.
func (e *Engine) ExecXQueryOpts(query string, o ExecOptions) (_ xdm.Sequence, _ *Stats, err error) {
	stats := newStats(o)
	start := time.Now()
	defer func() { e.record(LangXQuery, start, stats, &err) }()
	defer recoverPanic(&err)
	t0 := stats.Trace.now()
	p, err := e.planFor(query, LangXQuery, o.UseIndexes, o.Prepared, stats)
	stats.Trace.add("plan", "cache="+stats.PlanCache, t0)
	if err != nil {
		return nil, nil, err
	}
	return e.execXQueryPlan(p, o, stats)
}

// newStats builds the Stats for one execution, attaching a live trace
// when requested.
func newStats(o ExecOptions) *Stats {
	stats := &Stats{}
	if o.Trace {
		stats.Trace = newTrace()
	}
	return stats
}

func (e *Engine) execXQueryPlan(p *plan, o ExecOptions, stats *Stats) (xdm.Sequence, *Stats, error) {
	g := o.Guard
	if p.answer != nil {
		seq, ok, err := e.answer(p.answer, g, o, stats)
		if err != nil {
			return nil, nil, err
		}
		if ok {
			return seq, stats, nil
		}
	}
	resolver := xquery.CollectionResolver(e.Catalog)
	var seeds xquery.Seeds
	if p.analysis != nil {
		collSets, _, probeSeeds, err := e.runProbes(g, p.probes, p.analysis, o, stats)
		if err != nil {
			return nil, nil, err
		}
		seeds = probeSeeds
		if len(collSets) > 0 {
			resolver = &filteredResolver{cat: e.Catalog, allowed: collSets}
		}
		countDocs(e, collSets, nil, nil, stats, collectCollections(p.analysis))
	}
	if err := g.Check(); err != nil {
		return nil, nil, err
	}
	t0 := stats.Trace.now()
	seq, err := e.evalXQuery(p, resolver, g, parallelism(o.Parallelism), seeds, stats)
	stats.Trace.add("eval", fmt.Sprintf("%d items, shards=%d", len(seq), stats.ParallelShards), t0)
	if err != nil {
		return nil, nil, err
	}
	if err := g.Items(len(seq)); err != nil {
		return nil, nil, err
	}
	return seq, stats, nil
}

// minParallelDocs is the smallest collection worth sharding; below it the
// goroutine overhead outweighs the work. A variable so tests can lower it.
var minParallelDocs = 32

// evalXQuery evaluates a planned XQuery, partitioning the collection
// across a worker pool when the plan is partitionable and the runtime
// preconditions hold; otherwise it evaluates serially.
func (e *Engine) evalXQuery(p *plan, resolver xquery.CollectionResolver, g *guard.Guard, par int, seeds xquery.Seeds, stats *Stats) (xdm.Sequence, error) {
	if par > 1 && p.partColl != "" {
		if seq, ok, err := evalPartitioned(p, resolver, g, par, seeds, stats); ok {
			return seq, err
		}
	}
	return xquery.EvalGuardedSeeded(p.xq, nil, resolver, g, seeds)
}

// treeOrdered reports whether the documents carry strictly increasing
// TreeIDs. Document order across trees is (TreeID, Ordinal), so
// concatenating per-shard document-order sorts reproduces the global sort
// exactly when contiguous shards are monotone in TreeID.
func treeOrdered(docs []*xdm.Node) bool {
	for i := 1; i < len(docs); i++ {
		if docs[i].TreeID <= docs[i-1].TreeID {
			return false
		}
	}
	return true
}

// evalPartitioned splits the partitionable collection into contiguous
// shards and evaluates the full query once per shard, concatenating the
// results in shard order — byte-identical to the serial result. ok=false
// means a runtime precondition failed and the caller must run serially.
func evalPartitioned(p *plan, resolver xquery.CollectionResolver, g *guard.Guard, par int, seeds xquery.Seeds, stats *Stats) (xdm.Sequence, bool, error) {
	docs, err := resolver.Collection(p.partColl)
	if err != nil {
		// Let serial evaluation surface the resolution error with its
		// ordinary message.
		return nil, false, nil
	}
	if len(docs) < minParallelDocs || !treeOrdered(docs) {
		return nil, false, nil
	}
	shards := par
	if shards > len(docs) {
		shards = len(docs)
	}
	outs := make([]xdm.Sequence, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		lo := i * len(docs) / shards
		hi := (i + 1) * len(docs) / shards
		wg.Add(1)
		go func(i int, chunk []*xdm.Node) {
			defer wg.Done()
			// A worker panic must not crash the process: convert it the
			// same way the query boundary does.
			defer func() {
				if r := recover(); r != nil {
					errs[i] = &guard.Violation{Kind: guard.Internal, Msg: fmt.Sprintf("panic: %v", r)}
				}
			}()
			sub := &xquery.ShardResolver{Name: p.partColl, Docs: chunk, Next: resolver}
			outs[i], errs[i] = xquery.EvalGuardedSeeded(p.xq, nil, sub, g, seeds)
		}(i, docs[lo:hi])
	}
	wg.Wait()
	t0 := stats.Trace.now()
	total := 0
	for i := range outs {
		if errs[i] != nil {
			// Report the first shard's error for determinism.
			return nil, true, errs[i]
		}
		total += len(outs[i])
	}
	seq := make(xdm.Sequence, 0, total)
	for i := range outs {
		seq = append(seq, outs[i]...)
	}
	stats.Trace.add("merge", fmt.Sprintf("%d shards, %d items", shards, total), t0)
	stats.ParallelShards = shards
	return seq, true, nil
}

// ExecSQLOpts plans (or fetches a cached plan) and runs a SQL/XML
// statement under the given options.
func (e *Engine) ExecSQLOpts(query string, o ExecOptions) (_ *sqlxml.Result, _ *Stats, err error) {
	stats := newStats(o)
	start := time.Now()
	defer func() { e.record(LangSQL, start, stats, &err) }()
	defer recoverPanic(&err)
	t0 := stats.Trace.now()
	p, err := e.planFor(query, LangSQL, o.UseIndexes, o.Prepared, stats)
	stats.Trace.add("plan", "cache="+stats.PlanCache, t0)
	if err != nil {
		return nil, nil, err
	}
	return e.execSQLPlan(p, o, stats)
}

func (e *Engine) execSQLPlan(p *plan, o ExecOptions, stats *Stats) (*sqlxml.Result, *Stats, error) {
	if p.explain {
		// EXPLAIN renders the plan report instead of touching any data:
		// no probes, no scans. One row, one column.
		text := e.renderPlan(p, stats.PlanCache)
		return &sqlxml.Result{
			Columns: []string{"plan"},
			Rows:    [][]sqlxml.ResultCell{{{V: xdm.NewString(text)}}},
		}, stats, nil
	}
	g := o.Guard
	pf := sqlxml.Prefilter{}
	coll := xquery.CollectionResolver(e.Catalog)
	if p.analysis != nil {
		// SQL execution routes through the sqlxml executor, which has no
		// seed channel; runProbes plans no node-granularity probes for
		// row-level predicates, so the seed set is empty here.
		collSets, rowSets, _, err := e.runProbes(g, p.probes, p.analysis, o, stats)
		if err != nil {
			return nil, nil, err
		}
		e.applyRelProbes(p.analysis, rowSets, stats)
		for fi, set := range rowSets {
			pf[fi] = set
		}
		if len(collSets) > 0 {
			coll = &filteredResolver{cat: e.Catalog, allowed: collSets}
		}
		countDocs(e, collSets, rowSets, rowCollections(p.analysis), stats, collectCollections(p.analysis))
	}
	if err := g.Check(); err != nil {
		return nil, nil, err
	}
	exec := &sqlxml.Executor{Catalog: e.Catalog, Coll: coll, Guard: g, Parallel: parallelism(o.Parallelism)}
	t0 := stats.Trace.now()
	res, err := exec.ExecFiltered(p.sqlStmt, pf)
	if err != nil {
		return nil, nil, err
	}
	label := fmt.Sprintf("%d rows, shards=%d", res.RowsScanned, res.ParallelShards)
	if res.HashJoin {
		label += fmt.Sprintf(", hash join %d candidates", res.JoinCandidates)
	}
	stats.Trace.add("scan", label, t0)
	// The executor's shard gather already combined per-worker counts;
	// fold its totals through the one canonical merge point.
	stats.merge(&Stats{RowsScanned: res.RowsScanned, ParallelShards: res.ParallelShards,
		HashJoin: res.HashJoin, JoinCandidates: res.JoinCandidates})
	return res, stats, nil
}
