package engine

import (
	"fmt"
	"strings"
)

// merge folds one delta — a probe's outcome, the document shard count,
// or the SQL executor's scan totals — into s. It is THE combining point
// for Stats: each stage fills a private Stats and merge folds it in on
// the query goroutine, probes in plan order, so a field missed here
// ships uncounted, as SynopsisSkips and NodesDecoded once almost did.
// The statsmerge analyzer enforces that every Stats field is handled
// below; when you add a field, decide its merge semantics here (sum,
// append, max, or latest-wins) in the same commit.
func (s *Stats) merge(o *Stats) {
	// Ordered slices append: deltas arrive in plan order.
	s.IndexesUsed = append(s.IndexesUsed, o.IndexesUsed...)
	s.Estimates = append(s.Estimates, o.Estimates...)
	// Work counters sum.
	s.Probes += o.Probes
	s.KeysVisited += o.KeysVisited
	s.DocsTotal += o.DocsTotal
	s.DocsScanned += o.DocsScanned
	s.RowsScanned += o.RowsScanned
	s.JoinCandidates += o.JoinCandidates
	s.SynopsisSkips += o.SynopsisSkips
	s.NodesDecoded += o.NodesDecoded
	s.NodesSeeded += o.NodesSeeded
	// Shard count is a high-water mark, not a sum: a query reports its
	// widest fan-out.
	if o.ParallelShards > s.ParallelShards {
		s.ParallelShards = o.ParallelShards
	}
	// Latest non-empty state wins: one plan lookup per execution.
	if o.PlanCache != "" {
		s.PlanCache = o.PlanCache
	}
	// Flags or.
	s.SynopsisAnswered = s.SynopsisAnswered || o.SynopsisAnswered
	s.IndexOnlyAnswered = s.IndexOnlyAnswered || o.IndexOnlyAnswered
	s.HashJoin = s.HashJoin || o.HashJoin
	// Spans concatenate onto the parent trace (nil-safe both ways).
	if o.Trace != nil {
		if s.Trace == nil {
			s.Trace = o.Trace
		} else {
			s.Trace.absorb(o.Trace)
		}
	}
}

// Summary renders the one-line, human-facing digest of the execution —
// the line xqshell prints after each statement. Every Stats field is
// visible here (or in the span dump Trace.Render provides), enforced by
// the statsmerge analyzer: a counter that renders nowhere is a counter
// nobody can see regress.
func (s *Stats) Summary() string {
	var b strings.Builder
	if len(s.IndexesUsed) > 0 {
		fmt.Fprintf(&b, "; indexes: %s; docs %d/%d", strings.Join(s.IndexesUsed, ", "), s.DocsScanned, s.DocsTotal)
	}
	if s.Probes > 0 {
		fmt.Fprintf(&b, "; probes %d (%d keys)", s.Probes, s.KeysVisited)
	}
	if s.RowsScanned > 0 {
		fmt.Fprintf(&b, "; rows scanned %d", s.RowsScanned)
	}
	if s.HashJoin {
		fmt.Fprintf(&b, "; hash join %d candidates", s.JoinCandidates)
	}
	if s.ParallelShards > 1 {
		fmt.Fprintf(&b, "; shards %d", s.ParallelShards)
	}
	if s.PlanCache != "" {
		fmt.Fprintf(&b, "; plan cache: %s", s.PlanCache)
	}
	if n := len(s.Estimates); n > 0 {
		fmt.Fprintf(&b, "; estimates %d", n)
	}
	if s.SynopsisSkips > 0 {
		fmt.Fprintf(&b, "; synopsis skips %d", s.SynopsisSkips)
	}
	if s.SynopsisAnswered {
		b.WriteString("; synopsis-answered")
	}
	if s.IndexOnlyAnswered {
		b.WriteString("; index-only")
	}
	if s.NodesDecoded > 0 {
		fmt.Fprintf(&b, "; nodes decoded %d", s.NodesDecoded)
	}
	if s.NodesSeeded > 0 {
		fmt.Fprintf(&b, "; nodes seeded %d", s.NodesSeeded)
	}
	if s.Trace != nil && len(s.Trace.Spans) > 0 {
		fmt.Fprintf(&b, "; trace %d spans", len(s.Trace.Spans))
	}
	return b.String()
}

// statsDelta builds the Stats contribution of one probe outcome, which
// runProbePlans folds into the query's Stats right after the probe runs.
func (pl probePlan) statsDelta(r *probeOutcome) Stats {
	// Probe and key counts record even for failed or non-probeable
	// outcomes: the index work that ran before the error is real work.
	s := Stats{Probes: r.stats.Probes, KeysVisited: r.stats.KeysVisited}
	if r.err != nil || !r.ok {
		return s
	}
	s.IndexesUsed = []string{r.label}
	if r.nodes != nil {
		s.NodesDecoded = len(r.nodes)
	}
	if r.skipped {
		s.SynopsisSkips = 1
	}
	s.Estimates = []ProbeEstimate{{Label: r.label, Docs: pl.est, Nodes: pl.estNodes, Skipped: r.skipped}}
	return s
}
