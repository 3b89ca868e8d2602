package engine

import (
	"fmt"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
)

// twoProbeDB builds a corpus where `price > 100 and price < 200` plans
// two probes (the element form is existential, so the bounds cannot merge
// into one between-range scan).
func twoProbeDB(t *testing.T, orders int) (*Engine, string) {
	t.Helper()
	e := New()
	mustSQL(t, e, `create table orders (ordid integer, orddoc XML)`)
	for i := 0; i < orders; i++ {
		doc := fmt.Sprintf(`<order><lineitem><price>%d</price><price>%d</price></lineitem></order>`,
			10+i%300, 5+i%97)
		mustSQL(t, e, fmt.Sprintf(`insert into orders values (%d, '%s')`, i, doc))
	}
	mustSQL(t, e, `CREATE INDEX price_el ON orders(orddoc) USING XMLPATTERN '//price' AS double`)
	return e, `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[price > 100 and price < 200]`
}

// stripCached removes the execution-time cache annotation so label sets
// can be compared across cached and uncached runs.
func stripCached(labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = strings.TrimSuffix(l, " [cached]")
	}
	return out
}

// The tentpole invariant: concurrent probes served from the cache must be
// byte-identical to a serial uncached run — and both to the full scan.
func TestProbePipelineDeterminism(t *testing.T) {
	e, q := twoProbeDB(t, 120)

	serial, sstats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true, Parallelism: 1, NoProbeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if sstats.Probes != 2 {
		t.Fatalf("probes = %d, want 2", sstats.Probes)
	}
	full, _, err := e.ExecXQueryOpts(q, ExecOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := xdm.SerializeSequence(serial)
	if xdm.SerializeSequence(full) != want {
		t.Fatal("serial uncached run differs from the full scan")
	}

	// Concurrent + cache-warming runs: every one must serialize to the
	// same bytes, and IndexesUsed must keep the serial plan order.
	for run := 0; run < 4; run++ {
		res, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true, Parallelism: 8})
		if err != nil {
			t.Fatal(err)
		}
		if got := xdm.SerializeSequence(res); got != want {
			t.Fatalf("run %d (parallel, cached) diverged from serial uncached", run)
		}
		got, wantLabels := stripCached(stats.IndexesUsed), stripCached(sstats.IndexesUsed)
		if fmt.Sprint(got) != fmt.Sprint(wantLabels) {
			t.Fatalf("run %d: IndexesUsed order changed: %v vs %v", run, got, wantLabels)
		}
	}
}

// The second identical run must be served from the probe cache: zero keys
// visited, labels annotated, hits counted in the registry.
func TestProbeCacheVisibleInStatsAndMetrics(t *testing.T) {
	e, q := twoProbeDB(t, 60)
	_, cold, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.KeysVisited == 0 {
		t.Fatal("cold run must visit keys")
	}
	_, warm, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if warm.KeysVisited != 0 {
		t.Fatalf("warm run visited %d keys, want 0 (cache hit)", warm.KeysVisited)
	}
	for _, l := range warm.IndexesUsed {
		if !strings.HasSuffix(l, " [cached]") {
			t.Fatalf("warm label %q missing the [cached] annotation", l)
		}
	}
	snap := e.Metrics.Snapshot()
	if snap.Counters["probecache.hits"] < 2 {
		t.Fatalf("probecache.hits = %d, want >= 2", snap.Counters["probecache.hits"])
	}

	// A document insert invalidates: the next run scans again.
	mustSQL(t, e, `insert into orders values (999, '<order><lineitem><price>150</price></lineitem></order>')`)
	res, after, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true})
	if err != nil {
		t.Fatal(err)
	}
	if after.KeysVisited == 0 {
		t.Fatal("post-insert run must rescan, not serve the stale cache entry")
	}
	found := false
	for _, it := range res {
		if strings.Contains(xdm.SerializeSequence(xdm.Sequence{it}), "150") {
			found = true
		}
	}
	if !found {
		t.Fatal("post-insert result does not include the new document")
	}
}

// EXPLAIN reports per-probe cache state without running probes: cold on a
// fresh index, hit once an identical probe has executed.
func TestExplainShowsProbeCacheState(t *testing.T) {
	e, q := twoProbeDB(t, 30)
	rep, err := e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "probe cache: cold") || strings.Contains(rep, "probe cache: hit") {
		t.Fatalf("fresh plan must be cold:\n%s", rep)
	}
	if _, _, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true}); err != nil {
		t.Fatal(err)
	}
	rep, err = e.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "probe cache: hit") {
		t.Fatalf("after execution the probes must report hit:\n%s", rep)
	}
	// EXPLAIN itself must not have perturbed the cache into a miss.
	if !strings.Contains(rep, "probe cache: hit") {
		t.Fatalf("peek must not evict:\n%s", rep)
	}
}

// NoProbeCache rides through ExecOptions; an uncached run after a
// cached one must still match.
func TestNoProbeCacheOptionBypasses(t *testing.T) {
	e, q := twoProbeDB(t, 40)
	if _, _, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true}); err != nil { // warm the cache
		t.Fatal(err)
	}
	_, stats, err := e.ExecXQueryOpts(q, ExecOptions{UseIndexes: true, NoProbeCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats.KeysVisited == 0 {
		t.Fatal("NoProbeCache run must scan even with a warm cache")
	}
	for _, l := range stats.IndexesUsed {
		if strings.Contains(l, "[cached]") {
			t.Fatalf("NoProbeCache label claims a hit: %q", l)
		}
	}
}
