// Package engine wires the pieces together: it parses queries, runs the
// eligibility analysis (internal/core), probes eligible XML indexes to
// build document pre-filters per Definition 1, and executes the query
// over the pre-filtered collections. Because the executor re-evaluates
// the full query on the surviving documents, an unsound eligibility
// decision would surface as a correctness bug, which the test suite
// checks by comparing filtered and unfiltered runs.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/lru"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xquery"
)

// Engine is one database instance.
type Engine struct {
	Catalog *storage.Catalog
	// Metrics aggregates engine-lifetime observability counters (query
	// counts, guard trips, plan-cache and index activity, latency). One
	// registry per engine, so two databases in a process never mix.
	Metrics *metrics.Registry
	// plans caches prepared plans keyed by (query, language,
	// useIndexes), invalidated by the catalog's schema version.
	plans *lru.Cache[planKey, *plan]
	inst  instruments
}

// New returns an empty database.
func New() *Engine {
	reg := metrics.NewRegistry()
	cat := storage.NewCatalog()
	cat.SetMetrics(reg)
	e := &Engine{Catalog: cat, Metrics: reg, plans: lru.New[planKey, *plan](planCacheSize, lru.Metrics{
		Hits:      reg.Counter("plancache.hits"),
		Misses:    reg.Counter("plancache.misses"),
		Stale:     reg.Counter("plancache.stale"),
		Evictions: reg.Counter("plancache.evictions"),
		Size:      reg.Gauge("plancache.size"),
	})}
	e.inst.init(reg)
	return e
}

// Stats reports what the planner and executor did for one query.
type Stats struct {
	// IndexesUsed lists "index(probe)" descriptions, one per probe.
	IndexesUsed []string
	// Probes and KeysVisited total the index work.
	Probes      int
	KeysVisited int
	// DocsTotal and DocsScanned compare the collection size with the
	// documents that survived pre-filtering (equal when no index was
	// used).
	DocsTotal   int
	DocsScanned int
	// RowsScanned is the SQL executor's base-row count.
	RowsScanned int
	// HashJoin marks a SQL XMLExists equality join run as a hash join;
	// JoinCandidates counts the row pairs its key match left for the
	// full XMLExists to re-check.
	HashJoin       bool
	JoinCandidates int
	// ParallelShards is the number of document or row shards execution
	// actually used (0 or 1 = serial).
	ParallelShards int
	// PlanCache reports how the plan was obtained: "hit" or "miss" for
	// prepared execution, "bypass" when the cache was not consulted.
	PlanCache string
	// Estimates records each probe's synopsis-derived selectivity
	// estimate, in the ranked order the plan holds them.
	Estimates []ProbeEstimate
	// SynopsisSkips counts probes short-circuited this execution because
	// their pattern matches no path in the column's synopsis.
	SynopsisSkips int
	// SynopsisAnswered marks a structural-only query answered entirely
	// from the path synopsis, without touching documents or indexes.
	SynopsisAnswered bool
	// IndexOnlyAnswered marks a value-predicate fn:count/fn:exists
	// answered entirely from a node-granularity index probe, without
	// touching documents.
	IndexOnlyAnswered bool
	// NodesDecoded totals the node references node-granularity probes
	// decoded this execution (index-only answers and seed probes).
	NodesDecoded int
	// NodesSeeded totals the index-matched nodes installed as
	// navigation seeds for probe-guided re-evaluation: the hits in
	// documents the combined pre-filter keeps, not every probed hit.
	NodesSeeded int
	// Trace holds timed execution spans when ExecOptions.Trace is set;
	// nil otherwise.
	Trace *Trace
}

// ProbeEstimate is one probe's synopsis-derived selectivity estimate.
type ProbeEstimate struct {
	// Label is the probe's IndexesUsed description.
	Label string
	// Docs and Nodes estimate how many documents and nodes the probe's
	// pattern reaches; -1 = unknown (no synopsis for the column).
	Docs  int64
	Nodes int64
	// Skipped marks a probe short-circuited by the synopsis.
	Skipped bool
}

// probePlan is one planned index probe — a template: everything here
// derives from the query and the schema, so plans are cacheable. A
// semi-join plan's document set is the union of one equality probe per
// distinct join value; the values are data, gathered at execution time.
type probePlan struct {
	index  *xmlindex.Index
	probe  xmlindex.Probe
	semi   *semiJoinSpec // non-nil marks a semi-join probe
	label  string
	table  *storage.Table
	forRow int // FROM index; -1 = collection-level
	coll   string
	occ    int
	// est and estNodes are the synopsis selectivity estimates for the
	// probe's pattern (documents and nodes); -1 = unknown. Estimates
	// rank probe order — they never change what a probe returns.
	est      int64
	estNodes int64
	// skip marks a probe whose pattern matches no synopsis path: no
	// stored document can satisfy it, so execution short-circuits to the
	// empty document set without touching the index. Sound because the
	// catalog version — and with it every cached plan — moves whenever a
	// column's path set changes.
	skip bool
	// seeds lists the compared-operand paths this probe's hits may seed
	// (the predicate's SeedPath, plus its between partner's). Non-empty
	// seeds upgrade the probe to node granularity unless
	// ExecOptions.NoNodeSeeds falls it back to the document level.
	seeds []*xquery.PathExpr
	// seedSingle marks a probe whose compared path yields at most one
	// node per context (single named-attribute step); seedScope is the
	// predicate's conjunction scope (core.Predicate.Scope). Probes of
	// one scope, pattern, and singleton operand may intersect at node
	// granularity — only then must a single node satisfy every
	// comparison. Across scopes the conjuncts are existentially
	// independent and their hits must stay separate.
	seedSingle bool
	seedScope  int
}

// semiJoinSpec names the SQL column whose distinct values a semi-join
// probes.
type semiJoinSpec struct {
	table  string
	column string
}

// planProbes turns the analysis into index probes. For each filtering
// predicate it picks the first eligible index on the owning table, and
// records a decision per predicate — every candidate's failed conditions
// plus the planner's choice — for EXPLAIN.
func (e *Engine) planProbes(a *core.Analysis) ([]probePlan, []predDecision, error) {
	var plans []probePlan
	decisions := make([]predDecision, 0, len(a.Predicates))
	consumed := map[int]bool{}
	// A structural (existence) probe scans the index's full value range;
	// it is pure overhead when a value predicate of the same binding
	// occurrence already pre-filters a subset.
	type occ struct {
		coll string
		row  int
		o    int
	}
	hasValueProbe := map[occ]bool{}
	for _, p := range a.Predicates {
		if p.Filtering && p.Value != nil {
			hasValueProbe[occ{p.Collection, p.FromIndex, p.Occurrence}] = true
		}
	}
	for pi, p := range a.Predicates {
		d := predDecision{pred: p, chosen: -1}
		if consumed[pi] {
			d.note = "merged into the between-range probe of its partner predicate"
			decisions = append(decisions, d)
			continue
		}
		dot := strings.IndexByte(p.Collection, '.')
		if dot < 0 {
			decisions = append(decisions, d)
			continue
		}
		tab, err := e.Catalog.Table(p.Collection[:dot])
		if err != nil {
			// The collection may not exist (dynamic names).
			d.collMissing = true
			decisions = append(decisions, d)
			continue
		}
		column := p.Collection[dot+1:]
		indexes := tab.XMLIndexes(column)
		if len(indexes) == 0 {
			d.noIndexes = true
			decisions = append(decisions, d)
			continue
		}
		// Check every candidate so the decision shows the whole field,
		// not just the indexes up to the first eligible one.
		d.cands = make([]candidate, len(indexes))
		for ci, xi := range indexes {
			d.cands[ci] = candidate{xi, core.Decide(xi.Index.Pattern, xi.Index.Type, p)}
		}
		switch {
		case !p.Filtering:
			// The decisions already carry the context failure.
		case p.Value == nil && p.Op == 0 && hasValueProbe[occ{p.Collection, p.FromIndex, p.Occurrence}]:
			d.note = "structural probe skipped: a value probe on the same binding occurrence already pre-filters"
		default:
			for vi, xi := range indexes {
				if !d.cands[vi].fail.Eligible() {
					continue
				}
				// Decided once per plan: the probe keeps entries on these paths.
				paths := tab.Synopsis(column).Dict().Match(p.Pattern)
				var pl probePlan
				if p.Value == nil && p.JoinColumn != "" && p.Op == xdm.OpEq {
					// Index semi-join (Query 13): probe once per distinct
					// value of the SQL column the comparison references.
					var ok bool
					if pl, ok = e.buildSemiJoinPlan(p, paths, xi, tab); !ok {
						d.note = "semi-join not plannable: join table or column not found"
						break
					}
				} else {
					probe, label, partner := buildProbe(p, pi, a, paths)
					if probe == nil {
						d.note = fmt.Sprintf("operator %s cannot be answered by a single range probe", p.Op.GeneralSymbol())
						break
					}
					if partner >= 0 {
						consumed[partner] = true
					}
					pl = probePlan{
						index: xi.Index, probe: *probe,
						label: fmt.Sprintf("%s(%s)", xi.Name, label),
						table: tab, forRow: p.FromIndex, coll: p.Collection, occ: p.Occurrence,
					}
					if p.FromIndex < 0 && p.Value != nil && p.SeedPath != nil {
						// Node-granularity candidate: the probe's hits seed
						// the compared path's re-evaluation (and the between
						// partner's — a merged range is exact for both
						// bounds of the provably singleton item).
						pl.seeds = append(pl.seeds, p.SeedPath)
						pl.seedSingle = p.SeedSingle
						pl.seedScope = p.Scope
						if partner >= 0 {
							if q := a.Predicates[partner]; q.SeedPath != nil {
								pl.seeds = append(pl.seeds, q.SeedPath)
							}
						}
					}
				}
				e.annotateProbe(&pl, column)
				plans = append(plans, pl)
				d.chosen, d.chosenLabel = vi, pl.label
				break
			}
		}
		decisions = append(decisions, d)
	}
	rankProbes(plans)
	return plans, decisions, nil
}

// annotateProbe attaches the synopsis statistics of the probed column
// to a freshly planned probe: selectivity estimates, the short-circuit
// mark when the pattern matches no existing path, and — for semi-joins
// against large join tables — the probe direction decision.
func (e *Engine) annotateProbe(pl *probePlan, column string) {
	pl.estNodes, pl.est = pl.table.Synopsis(column).Count(pl.probe.Paths)
	if pl.estNodes == 0 {
		// No stored document contains the pattern, so the probe cannot
		// produce anything. Definition-1 pre-filters only need a superset
		// of the matching documents per occurrence — here the empty set
		// is exact.
		pl.skip = true
		return
	}
	if pl.semi != nil && pl.estNodes > 0 {
		// Semi-join direction: probing once per distinct join value wins
		// when the value set is small, but past the value cap the probe
		// used to degrade to "no filter". With an estimate in hand, flip
		// direction instead: one structural probe over the pattern still
		// pre-filters to the documents containing it.
		if joinTab, err := e.Catalog.Table(pl.semi.table); err == nil && joinTab.Len() > defaultSemiJoinCap {
			idx, _, _ := strings.Cut(pl.label, "(")
			pl.label = fmt.Sprintf("%s(structural %s; direction flipped: %s.%s exceeds %d values)",
				idx, pl.probe.Paths.Pattern(), pl.semi.table, pl.semi.column, defaultSemiJoinCap)
			pl.semi = nil
		}
	}
}

// rankProbes orders probes by estimated selectivity, cheapest first with
// unknown estimates last. The sort is stable, and safe by construction:
// probe results merge by intersection within a binding occurrence and
// union across occurrences — both commutative — so ranking changes probe
// order and nothing else. The equivalence property tests pin that.
func rankProbes(plans []probePlan) {
	sort.SliceStable(plans, func(i, j int) bool {
		ei, ej := plans[i].est, plans[j].est
		switch {
		case ei < 0:
			return false
		case ej < 0:
			return true
		}
		return ei < ej
	})
}

// defaultSemiJoinCap bounds the number of distinct values a semi-join
// probes; larger joins fall back to scans.
const defaultSemiJoinCap = 4096

// buildSemiJoinPlan plans a Query 13-style semi-join probe (XML path
// compared with a SQL scalar variable): one equality probe per distinct
// value of the join column, restricted to paths. Only the column
// reference is resolved here — the values themselves are gathered per
// execution, so a cached plan sees inserts and deletes on the join table.
func (e *Engine) buildSemiJoinPlan(p core.Predicate, paths *pattern.PathSet, xi *storage.XMLIndex, tab *storage.Table) (probePlan, bool) {
	joinTab, err := e.Catalog.Table(p.JoinTable)
	if err != nil {
		return probePlan{}, false
	}
	if _, err := joinTab.ColumnIndex(p.JoinColumn); err != nil {
		return probePlan{}, false
	}
	return probePlan{
		index: xi.Index,
		probe: xmlindex.Probe{Paths: paths},
		semi:  &semiJoinSpec{table: p.JoinTable, column: p.JoinColumn},
		label: fmt.Sprintf("%s(semi-join %s in %s.%s)",
			xi.Name, p.Pattern, p.JoinTable, p.JoinColumn),
		table: tab, forRow: p.FromIndex, coll: p.Collection, occ: p.Occurrence,
	}, true
}

// semiJoinValues gathers the distinct non-null values of the join column,
// iterating under the table's read lock without snapshotting the rows.
// ok=false (join table gone, or more than defaultSemiJoinCap distinct values)
// degrades the probe to "no filter"; a guard violation (cancellation,
// timeout, step budget) aborts instead — the walk is proportional to the
// join table's row count, so it must answer to the query's guard like
// every other data-sized loop.
func (e *Engine) semiJoinValues(g *guard.Guard, spec *semiJoinSpec) ([]xdm.Value, bool, error) {
	joinTab, err := e.Catalog.Table(spec.table)
	if err != nil {
		return nil, false, nil
	}
	ci, err := joinTab.ColumnIndex(spec.column)
	if err != nil {
		return nil, false, nil
	}
	seen := map[string]bool{}
	var values []xdm.Value
	ok := true
	var gerr error
	joinTab.ForEachRow(func(row *storage.Row) bool {
		if gerr = g.Step(); gerr != nil {
			return false
		}
		cell := row.Cells[ci]
		if cell.Null {
			return true
		}
		key := cell.V.Lexical()
		if seen[key] {
			return true
		}
		// The cap check precedes the append: exactly the cap's distinct
		// values are admitted, and one more stops the iteration early
		// instead of collecting it first.
		if len(values) >= defaultSemiJoinCap {
			ok = false
			return false
		}
		seen[key] = true
		values = append(values, cell.V)
		return true
	})
	if gerr != nil {
		return nil, false, gerr
	}
	if !ok {
		return nil, false, nil
	}
	return values, true, nil
}

// buildProbe converts a predicate (and its between partner, if any) to an
// index probe restricted to paths, the predicate pattern's path set. It
// returns nil when the operator cannot probe (e.g. !=).
func buildProbe(p core.Predicate, pi int, a *core.Analysis, paths *pattern.PathSet) (*xmlindex.Probe, string, int) {
	probe := &xmlindex.Probe{Paths: paths}
	if p.Value == nil {
		// Structural probe: full range.
		return probe, "structural " + p.Pattern.String(), -1
	}
	r, ok := opRange(p.Op, *p.Value)
	if !ok {
		return nil, "", -1
	}
	label := fmt.Sprintf("%s %s %s", p.Pattern, p.Op.GeneralSymbol(), p.Value.Lexical())
	partner := -1
	if p.Between >= 0 && p.Between < len(a.Predicates) {
		// §3.10: merge the partner bound into a single range scan.
		q := a.Predicates[p.Between]
		if q.Value != nil {
			r2, ok2 := opRange(q.Op, *q.Value)
			if ok2 {
				if r.Lo == nil {
					r.Lo, r.LoInc = r2.Lo, r2.LoInc
				} else {
					r.Hi, r.HiInc = r2.Hi, r2.HiInc
				}
				partner = p.Between
				label = fmt.Sprintf("%s between %s and %s", p.Pattern, loStr(r), hiStr(r))
			}
		}
	}
	probe.Range = r
	return probe, label, partner
}

func loStr(r xmlindex.Range) string {
	if r.Lo == nil {
		return "-inf"
	}
	return r.Lo.Lexical()
}

func hiStr(r xmlindex.Range) string {
	if r.Hi == nil {
		return "+inf"
	}
	return r.Hi.Lexical()
}

// opRange converts (op, value) to a probe range.
func opRange(op xdm.CompareOp, v xdm.Value) (xmlindex.Range, bool) {
	switch op {
	case xdm.OpEq:
		return xmlindex.Equality(v), true
	case xdm.OpGt:
		return xmlindex.Range{Lo: &v}, true
	case xdm.OpGe:
		return xmlindex.Range{Lo: &v, LoInc: true}, true
	case xdm.OpLt:
		return xmlindex.Range{Hi: &v}, true
	case xdm.OpLe:
		return xmlindex.Range{Hi: &v, HiInc: true}, true
	}
	return xmlindex.Range{}, false // != cannot be answered by one range
}

// probeOutcome is one plan's probe result. Plans run one at a time in
// plan order, so Stats (probe counts, IndexesUsed order, trace spans,
// the violation that aborts the query) are deterministic.
type probeOutcome struct {
	docs postings.List
	// nodes carries the node-granularity result when the probe ran for
	// a seeded predicate; docs is then its document projection.
	nodes  postings.NodeList
	label  string
	cached bool
	// ok=false marks a non-probeable outcome (semi-join too large, bound
	// does not cast): the occurrence stays unprobed and poisons its
	// collection below — a full scan, never a wrong answer.
	ok bool
	// skipped marks a probe the synopsis short-circuited: ok with an
	// empty document set, zero index work.
	skipped bool
	// err aborts the query: runProbePlans returns it.
	err error
	// stats is this outcome's Stats delta: indexProbe counts probes and
	// visited keys into it as they run, statsDelta completes it, and
	// runProbePlans folds it into the query's Stats via (*Stats).merge.
	stats Stats
}

// indexProbe runs one index probe on behalf of a query: view is the
// index's NodeList or DocList, whichever projection of the probe result
// the caller consumes. The probe runs under the query's guard and
// probe-cache knob and is counted into st, failed or not — the index
// work that ran before an error is real work. A guard violation
// (cancellation or timeout mid-scan) is the only error: it aborts the
// query and must not degrade into "no filter". ok=false without an error
// marks a bound that does not cast to the index type (a constant that
// type checking should have rejected, a join value that is not a
// number): the caller treats the probe as non-probeable or as matching
// nothing, never as a failure.
func indexProbe[L any](view func(xmlindex.Probe) (L, int, bool, error), p xmlindex.Probe, g *guard.Guard, o ExecOptions, st *Stats) (list L, cached, ok bool, err error) {
	p.Guard = g
	p.NoCache = o.NoProbeCache
	list, visited, cached, err := view(p)
	st.Probes++
	st.KeysVisited += visited
	if err != nil {
		if _, isViolation := guard.AsViolation(err); !isViolation {
			err = nil
		}
		return list, false, false, err
	}
	return list, cached, true, nil
}

// cachedLabel marks a probe label whose result came from the probe cache.
func cachedLabel(label string, cached bool) string {
	if cached {
		return label + " [cached]"
	}
	return label
}

// runProbe executes one probe plan to completion.
func (e *Engine) runProbe(g *guard.Guard, pl probePlan, o ExecOptions) probeOutcome {
	out := probeOutcome{label: pl.label}
	if pl.skip && !o.NoSynopsis {
		// Short-circuit: the pattern matches no stored path, so the empty
		// set is this probe's exact answer. The guard still gets its say —
		// a canceled query must abort even when every probe is free.
		if err := g.Check(); err != nil {
			out.err = err
			return out
		}
		out.ok = true
		out.skipped = true
		out.label += " [skipped: no matching path in synopsis]"
		return out
	}
	if pl.semi != nil {
		// Semi-join: union of one equality probe per distinct value of
		// the join column, gathered now — the values are data.
		values, ok, gerr := e.semiJoinValues(g, pl.semi)
		if gerr != nil {
			out.err = gerr
			return out
		}
		if !ok {
			return out
		}
		lists := make([]postings.List, 0, len(values))
		out.cached = len(values) > 0
		for _, v := range values {
			probe := pl.probe
			probe.Range = xmlindex.Equality(v)
			docs, cached, ok, err := indexProbe(pl.index.DocList, probe, g, o, &out.stats)
			if err != nil {
				out.err = err
				return out
			}
			if !ok {
				continue // non-castable join value matches nothing
			}
			out.cached = out.cached && cached
			lists = append(lists, docs)
		}
		out.docs = postings.Union(lists...)
		out.label = fmt.Sprintf("%s, %d values)", strings.TrimSuffix(pl.label, ")"), len(values))
	} else if len(pl.seeds) > 0 && !o.NoNodeSeeds && !annotatedColumn(pl.table, pl.coll) {
		// Node granularity: the same probe also names the matched nodes,
		// so the hits can seed re-evaluation. The document projection
		// keeps the Definition-1 pre-filter identical to the doc-granular
		// probe.
		hits, cached, ok, err := indexProbe(pl.index.Hits, pl.probe, g, o, &out.stats)
		if !ok {
			out.err = err
			return out
		}
		out.nodes, out.docs, out.cached = hits.Nodes, hits.Docs, cached
		out.label += fmt.Sprintf(" [node-granular: %d nodes]", len(hits.Nodes))
	} else {
		docs, cached, ok, err := indexProbe(pl.index.DocList, pl.probe, g, o, &out.stats)
		if !ok {
			out.err = err
			return out
		}
		out.docs, out.cached = docs, cached
	}
	out.ok = true
	out.label = cachedLabel(out.label, out.cached)
	return out
}

// runProbes executes the plans and turns their results into the query's
// Definition-1 pre-filters — per collection for XQuery bindings, per FROM
// item for SQL rows — and the evaluator seeds of node-granular probes.
// The order is run → intersect node scopes → combine → seed: the
// pre-filters are decided from the postings alone, and only hits in the
// documents they keep are seeded.
func (e *Engine) runProbes(g *guard.Guard, plans []probePlan, a *core.Analysis, o ExecOptions, stats *Stats) (map[string]postings.List, map[int]postings.List, xquery.Seeds, error) {
	outcomes, err := e.runProbePlans(g, plans, o, stats)
	if err != nil {
		return nil, nil, nil, err
	}
	intersectNodeScopes(plans, outcomes)
	collSets, rowSets := combineProbes(plans, outcomes, a)
	seeds, err := e.seedProbes(g, plans, outcomes, collSets, stats)
	if err != nil {
		return nil, nil, nil, err
	}
	return collSets, rowSets, seeds, nil
}

// runProbePlans executes the plans serially in plan order, folding each
// outcome into stats as it completes. The first outcome error aborts; a
// probe panic unwinds to the query boundary's recoverPanic.
func (e *Engine) runProbePlans(g *guard.Guard, plans []probePlan, o ExecOptions, stats *Stats) ([]probeOutcome, error) {
	outcomes := make([]probeOutcome, len(plans))
	for i, pl := range plans {
		t0 := stats.Trace.now()
		r := &outcomes[i]
		*r = e.runProbe(g, pl, o)
		r.stats = pl.statsDelta(r)
		stats.merge(&r.stats)
		if r.err != nil {
			return nil, r.err
		}
		if r.ok && stats.Trace != nil {
			stats.Trace.add("probe", fmt.Sprintf("%s: %d keys, %d docs", r.label, r.stats.KeysVisited, len(r.docs)), t0)
		}
	}
	return outcomes, nil
}

// nodeHits reports whether outcome i carries collection-level node hits.
func nodeHits(plans []probePlan, outcomes []probeOutcome, i int) bool {
	return outcomes[i].ok && outcomes[i].nodes != nil && plans[i].forRow < 0
}

// intersectNodeScopes refines node-granular outcomes that share one
// conjunction scope. When several node probes are direct conjuncts of
// ONE scope (the same bracket or where clause) over the same occurrence
// and pattern through a singleton compared path, one node must satisfy
// every comparison: the hit lists intersect at node granularity — a
// per-document refinement the doc-level intersection cannot see — and
// each member's document projection narrows to the intersection's, which
// combineProbes then folds into the occurrence's pre-filter. Probes from
// different scopes never intersect, even over the same occurrence and
// pattern: the conjuncts are existentially independent (a document may
// satisfy each with a different node), and a positional predicate
// between two brackets observes the intermediate sequence, which
// intersection-pruned seeds would reshape.
func intersectNodeScopes(plans []probePlan, outcomes []probeOutcome) {
	type scopeKey struct {
		coll       string
		occ, scope int
		pattern    string
	}
	groups := map[scopeKey][]int{}
	for i, pl := range plans {
		if nodeHits(plans, outcomes, i) && pl.seedScope > 0 && pl.seedSingle {
			k := scopeKey{pl.coll, pl.occ, pl.seedScope, pl.probe.Paths.Pattern().String()}
			groups[k] = append(groups[k], i)
		}
	}
	for _, group := range groups {
		if len(group) < 2 {
			continue
		}
		inter := outcomes[group[0]].nodes
		for _, i := range group[1:] {
			inter = postings.IntersectNodes(inter, outcomes[i].nodes)
		}
		docs := inter.Docs()
		for _, i := range group {
			outcomes[i].nodes, outcomes[i].docs = inter, docs
		}
	}
}

// seedProbes turns each node-granular outcome's hits into the evaluator
// seed of its compared path(s), keeping only hits in documents the
// resolver will serve: collSets[coll], the union across the collection's
// occurrences. A hit outside it sits in a document no binding of the
// collection ever sees, so its seed could never be consulted. The filter
// is not one occurrence's own intersection: the resolver hands every
// occurrence the union, so a seeded path may navigate a document another
// occurrence kept. A poisoned collection (no entry) is served whole and
// seeds every hit.
func (e *Engine) seedProbes(g *guard.Guard, plans []probePlan, outcomes []probeOutcome, collSets map[string]postings.List, stats *Stats) (xquery.Seeds, error) {
	t0 := stats.Trace.now()
	var seeds xquery.Seeds
	probed, seeded, docs := 0, 0, 0
	for i, pl := range plans {
		if !nodeHits(plans, outcomes, i) {
			continue
		}
		survivors, filtered := collSets[pl.coll]
		seed, n, err := e.buildSeed(g, pl.table, pl.coll, outcomes[i].nodes, survivors, filtered)
		if err != nil {
			return nil, err
		}
		if seed == nil {
			continue
		}
		probed += len(outcomes[i].nodes)
		seeded += n
		docs += len(seed.Hits)
		if seeds == nil {
			seeds = xquery.Seeds{}
		}
		for _, pe := range pl.seeds {
			seeds[pe] = seed
		}
	}
	stats.NodesSeeded += seeded
	if seeds != nil && stats.Trace != nil {
		stats.Trace.add("seed", fmt.Sprintf("%d/%d hits, %d docs", seeded, probed, docs), t0)
	}
	return seeds, nil
}

// combineProbes merges the outcomes' document sets: within one binding
// occurrence (or one SQL FROM item) probe results intersect; across
// occurrences of the same collection they union (a document needed by
// one binding must survive even if another binding's predicate rejects
// it). A collection with an occurrence that has no probe cannot be
// pre-filtered at all.
func combineProbes(plans []probePlan, outcomes []probeOutcome, a *core.Analysis) (map[string]postings.List, map[int]postings.List) {
	type occKey struct {
		coll string
		occ  int
	}
	occSets := map[occKey]postings.List{}
	rowSets := map[int]postings.List{}
	for i, pl := range plans {
		r := &outcomes[i]
		if !r.ok {
			continue
		}
		if pl.forRow >= 0 {
			// SQL row-level predicates on the same FROM item all
			// constrain the same document: intersect.
			if cur, ok := rowSets[pl.forRow]; ok {
				rowSets[pl.forRow] = postings.Intersect(cur, r.docs)
			} else {
				rowSets[pl.forRow] = r.docs
			}
		} else {
			k := occKey{pl.coll, pl.occ}
			if cur, ok := occSets[k]; ok {
				occSets[k] = postings.Intersect(cur, r.docs)
			} else {
				occSets[k] = r.docs
			}
		}
	}

	// Occurrences of a collection that produced no probe poison the
	// whole collection's pre-filter: union with everything = no filter.
	poisoned := map[string]bool{}
	for _, p := range a.Predicates {
		if p.FromIndex >= 0 || p.Collection == "" {
			continue
		}
		if _, probed := occSets[occKey{p.Collection, p.Occurrence}]; !probed {
			poisoned[p.Collection] = true
		}
	}

	collSets := map[string]postings.List{}
	for k, set := range occSets {
		if poisoned[k.coll] {
			continue
		}
		if cur, ok := collSets[k.coll]; ok {
			collSets[k.coll] = postings.Union(cur, set)
		} else {
			collSets[k.coll] = set
		}
	}
	return collSets, rowSets
}

// applyRelProbes installs relational-index row filters for SQL equality
// predicates on scalar columns (the Query 14 side of §3.3: when the join
// or comparison lives on the SQL side, only a relational index applies).
func (e *Engine) applyRelProbes(a *core.Analysis, rowSets map[int]postings.List, stats *Stats) {
	for _, rp := range a.RelPredicates {
		if !rp.Filtering || rp.Value == nil || rp.Op != xdm.OpEq {
			continue
		}
		tab, err := e.Catalog.Table(rp.Table)
		if err != nil {
			continue
		}
		for _, ri := range tab.RelIndexes(rp.Column) {
			ids, err := ri.Lookup(*rp.Value)
			if err != nil {
				break // value does not cast to the column type
			}
			// Lookup returns a fresh slice, strictly ascending for an
			// equality probe (fixed value prefix, big-endian row-id
			// suffix): one run, which FromRuns returns as-is.
			set := postings.FromRuns(ids)
			stats.IndexesUsed = append(stats.IndexesUsed,
				fmt.Sprintf("%s(%s.%s = %s)", ri.Name, rp.Table, rp.Column, rp.Value.Lexical()))
			stats.Probes++
			if cur, ok := rowSets[rp.FromIndex]; ok {
				rowSets[rp.FromIndex] = postings.Intersect(cur, set)
			} else {
				rowSets[rp.FromIndex] = set
			}
			break
		}
	}
}

// filteredResolver serves pre-filtered collections.
type filteredResolver struct {
	cat     *storage.Catalog
	allowed map[string]postings.List
}

func (f *filteredResolver) Collection(name string) ([]*xdm.Node, error) {
	if set, ok := f.allowed[strings.ToLower(name)]; ok {
		return f.cat.CollectionFiltered(name, set)
	}
	return f.cat.Collection(name)
}

// countDocs measures collection sizes touched by the filter sets; SQL
// row-level filters count against their table's row count. Sizes come
// from the catalog's maintained document counts, so the cost does not
// grow with the collections.
func countDocs(e *Engine, collSets map[string]postings.List, rowSets map[int]postings.List, rowColl map[int]string, stats *Stats, collections []string) {
	seen := map[string]bool{}
	for fi, set := range rowSets {
		c := strings.ToLower(rowColl[fi])
		if c == "" {
			continue
		}
		seen[c] = true
		n, err := e.Catalog.DocCount(c)
		if err != nil {
			continue
		}
		stats.DocsTotal += n
		stats.DocsScanned += len(set)
	}
	for _, c := range collections {
		c = strings.ToLower(c)
		if seen[c] {
			continue
		}
		seen[c] = true
		n, err := e.Catalog.DocCount(c)
		if err != nil {
			continue
		}
		stats.DocsTotal += n
		if set, ok := collSets[c]; ok {
			stats.DocsScanned += len(set)
		} else {
			stats.DocsScanned += n
		}
	}
}

// rowCollections maps FROM positions to the collection they carry,
// derived from the analysis predicates.
func rowCollections(a *core.Analysis) map[int]string {
	out := map[int]string{}
	for _, p := range a.Predicates {
		if p.FromIndex >= 0 && p.Collection != "" {
			out[p.FromIndex] = p.Collection
		}
	}
	return out
}

// collectCollections lists collections referenced by the analysis.
func collectCollections(a *core.Analysis) []string {
	var out []string
	seen := map[string]bool{}
	for _, p := range a.Predicates {
		if p.Collection != "" && !seen[p.Collection] {
			seen[p.Collection] = true
			out = append(out, p.Collection)
		}
	}
	return out
}

// recoverPanic converts an evaluator panic into a structured guard
// violation so one hostile query cannot take the process down. The panic
// value is preserved in the message; callers at the public boundary wrap
// it into *xqdb.QueryError.
func recoverPanic(err *error) {
	if r := recover(); r != nil {
		*err = &guard.Violation{Kind: guard.Internal, Msg: fmt.Sprintf("panic: %v", r)}
	}
}
