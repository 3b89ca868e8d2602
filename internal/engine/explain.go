package engine

import (
	"fmt"
	"runtime"
	"strings"

	"github.com/xqdb/xqdb/internal/core"
	"github.com/xqdb/xqdb/internal/sqlxml"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xquery"
)

// predDecision records the planner's full reasoning for one predicate:
// every candidate index with its eligibility decision, which index (if
// any) was chosen for a probe, and planner-level notes for predicates the
// planner skipped before or after index selection. Decisions are recorded
// during planning — not re-derived at explain time — so the report shows
// what the plan actually does; only their wording waits for EXPLAIN.
type predDecision struct {
	pred  core.Predicate
	cands []candidate
	// chosen indexes into cands; -1 = no index chosen.
	chosen      int
	chosenLabel string
	// note carries a planner-level reason independent of any single
	// index: a skip, a merge, or an unprobeable operator.
	note        string
	collMissing bool
	noIndexes   bool
}

// candidate is one index the planner decided for a predicate.
type candidate struct {
	xi   *storage.XMLIndex
	fail core.Failure
}

// renderPlan renders the full report for a plan: per-predicate index
// decisions with rejection reasons, relational predicates, tip warnings,
// and a plan summary (language, cache state, partitionability).
func (e *Engine) renderPlan(p *plan, cache string) string {
	var b strings.Builder
	if p.analysis == nil || len(p.analysis.Predicates) == 0 {
		b.WriteString("no indexable predicates found\n")
	}
	renderDecisions(&b, p.decisions)
	if p.analysis != nil {
		for _, rp := range p.analysis.RelPredicates {
			fmt.Fprintf(&b, "relational predicate: %s.%s %s ...\n", rp.Table, rp.Column, rp.Op.GeneralSymbol())
		}
		for _, w := range p.analysis.Warnings {
			fmt.Fprintf(&b, "warning (Tip %d — %s): %s\n", w.Tip, core.TipTitle(w.Tip), w.Message)
		}
	}
	if p.answer != nil {
		b.WriteString(p.answer.explain())
	}
	for _, pl := range p.probes {
		seeded := ""
		if n := len(pl.seeds); n > 0 {
			if n == 1 {
				seeded = ", node-granular (seeds 1 path operand)"
			} else {
				seeded = fmt.Sprintf(", node-granular (seeds %d path operands)", n)
			}
		}
		switch {
		case pl.skip:
			fmt.Fprintf(&b, "probe %s: skipped — no matching path in synopsis (est=0 docs), probe cache: %s\n",
				pl.label, probeCacheState(pl))
		case pl.est >= 0:
			fmt.Fprintf(&b, "probe %s: est=%d docs (%d nodes)%s, probe cache: %s\n",
				pl.label, pl.est, pl.estNodes, seeded, probeCacheState(pl))
		default:
			fmt.Fprintf(&b, "probe %s: est=unknown%s, probe cache: %s\n", pl.label, seeded, probeCacheState(pl))
		}
	}
	indexes := "off"
	if p.useIndexes {
		indexes = "on"
	}
	fmt.Fprintf(&b, "plan: language=%s, indexes=%s, cache=%s, probes=%d\n", langName(p.lang), indexes, cache, len(p.probes))
	if join, ok := sqlxml.ExplainHashJoin(p.sqlStmt); ok {
		fmt.Fprintf(&b, "join: hash on %s (nested-loop fallback on non-double keys or key errors)\n", join)
	}
	if p.lang == LangXQuery {
		if p.partColl != "" {
			fmt.Fprintf(&b, "partitionable: yes — document-at-a-time over collection %q (up to %d shards)\n",
				p.partColl, runtime.GOMAXPROCS(0))
		} else {
			b.WriteString("partitionable: no — not a single top-level collection iteration\n")
		}
	}
	return b.String()
}

// probeCacheState reports whether running this probe now would hit the
// index's probe-result cache. EXPLAIN never runs probes, so the check is
// a metrics-free peek that leaves the cache untouched.
func probeCacheState(pl probePlan) string {
	if pl.semi != nil {
		return "per-value (semi-join values probed at execution)"
	}
	if pl.index.ProbeCached(pl.probe) {
		return "hit"
	}
	return "cold"
}

func langName(l Lang) string {
	if l == LangSQL {
		return "sql"
	}
	return "xquery"
}

// renderDecisions writes the per-predicate blocks, wording each recorded
// decision's failed conditions. The line formats for eligible/ineligible
// indexes are stable — they are part of the public Explain output.
func renderDecisions(b *strings.Builder, decisions []predDecision) {
	for _, d := range decisions {
		fmt.Fprintf(b, "predicate: %s\n", d.pred.Describe())
		switch {
		case d.collMissing:
			fmt.Fprintf(b, "  (collection %s not found)\n", d.pred.Collection)
			continue
		case d.noIndexes:
			b.WriteString("  no XML indexes on this column\n")
			continue
		}
		for ci, c := range d.cands {
			idx := c.xi.Index
			head := fmt.Sprintf("  index %s [%s AS %s]", c.xi.Name, idx.Pattern, idx.Type)
			switch {
			case c.fail.Eligible() && ci == d.chosen:
				fmt.Fprintf(b, "%s: ELIGIBLE (chosen: %s)\n", head, d.chosenLabel)
			case c.fail.Eligible() && d.chosen >= 0:
				fmt.Fprintf(b, "%s: ELIGIBLE (not chosen: index %s selected first)\n", head, d.cands[d.chosen].xi.Name)
			case c.fail.Eligible():
				fmt.Fprintf(b, "%s: ELIGIBLE (not chosen)\n", head)
			default:
				fmt.Fprintf(b, "%s: not eligible\n", head)
				for _, r := range c.fail.Reasons(idx.Pattern, idx.Type, d.pred) {
					fmt.Fprintf(b, "    - %s\n", r)
				}
			}
		}
		if d.note != "" {
			fmt.Fprintf(b, "  note: %s\n", d.note)
		}
	}
}

// Explain analyzes a query (SQL if it parses as SQL, else XQuery)
// without running it and renders the plan report: extracted predicates,
// per-index decisions with Definition-1 / pitfall rejection reasons, tip
// warnings, and the plan summary. The plan is built fresh, bypassing the
// plan cache, so the report reflects the current schema.
func (e *Engine) Explain(query string) (_ string, err error) {
	defer recoverPanic(&err)
	lang := LangSQL
	if _, serr := sqlxml.Parse(query); serr != nil {
		if _, xerr := xquery.Parse(query); xerr != nil {
			return "", fmt.Errorf("not parseable as SQL (%v) nor as XQuery (%v)", serr, xerr)
		}
		lang = LangXQuery
	}
	p, err := e.buildPlan(query, lang, true)
	if err != nil {
		return "", err
	}
	return e.renderPlan(p, "bypass"), nil
}

// ExplainPrepared renders the plan report for a prepared query, going
// through the plan cache so the report's cache line reflects a real hit
// or miss. The plan it builds (or finds) is the one Exec would run.
func (e *Engine) ExplainPrepared(query string, lang Lang, useIndexes bool) (_ string, err error) {
	defer recoverPanic(&err)
	stats := &Stats{}
	p, err := e.planFor(query, lang, useIndexes, true, stats)
	if err != nil {
		return "", err
	}
	return e.renderPlan(p, stats.PlanCache), nil
}
