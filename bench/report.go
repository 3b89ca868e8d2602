package main

import (
	"fmt"
	"io"
	"sort"
)

// printResult prints every metric of a run by name, with its unit and,
// for end-to-end metrics, its bound.
func printResult(w io.Writer, r *runResult) {
	kind := "end-to-end (tracing off)"
	defs := endToEnd
	if r.Trace {
		kind, defs = "per-layer (traced run)", perLayer
	}
	fmt.Fprintf(w, "== %s seed=%d seconds=%g: %s; %d samples, %d attempted, %d failed\n",
		r.Workload, r.Seed, r.Seconds, kind, r.Samples, r.Attempted, r.Failed)
	for _, m := range defs {
		v, ok := r.Metrics[m.Name]
		if !ok {
			continue
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better; regression beyond %.0f%%)", m.Better, 100*m.Bound)
		}
		fmt.Fprintf(w, "%-36s %14.6g %-6s%s\n", m.Name, v.Value, v.Unit, bound)
	}
	if !r.Trace {
		fmt.Fprintf(w, "space_amp base: %d bytes of corpus XML; fail_ratio %d/%d\n", r.SpaceBase, r.Failed, r.Attempted)
		if r.Samples < 200 {
			fmt.Fprintf(w, "warning: %d samples leave fewer than 10 beyond p95\n", r.Samples)
		}
	}
	for _, t := range r.Templates {
		fmt.Fprintf(w, "  template %-22s ops %7d  p50 %10.4f ms  time share %5.1f%%\n", t.Name, t.Ops, t.P50MS, 100*t.TimeShare)
	}
	if len(r.Shares) > 0 {
		names := make([]string, 0, len(r.Shares))
		for n := range r.Shares {
			names = append(names, n)
		}
		sort.Slice(names, func(i, j int) bool { return r.Shares[names[i]] > r.Shares[names[j]] })
		for _, n := range names {
			fmt.Fprintf(w, "  layer %-24s %5.1f%% of traced op time\n", n, 100*r.Shares[n])
		}
	}
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED %s\n", f)
	}
}
