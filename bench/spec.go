package main

// metricDef is one named metric of the benchmark: the vocabulary later
// issues use in their claims. BENCHMARK.json at the repo root lists the
// same names, units and bounds; the self-test fails when the two drift.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the parent's median by which the metric may
	// worsen before it counts as a regression (end-to-end metrics only).
	Bound float64
}

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"point", "index-eligible selective statements from a fixed pool that fits the plan cache and every probe cache: cache lookup, seed build, evaluator over a few documents, serialization"},
	{"adhoc", "the same templates with a fresh constant each time, so the working set exceeds both caches: parse, analysis, planning, B+Tree range scan and postings decode run cold"},
	{"analytic", "the paper's ineligible and low-selectivity shapes plus the XMLExists value join over the small corpus: evaluator walk, SQL/XML executor and join, compare and serialize; caches and B+Tree bypassed"},
	{"serve-rw", "keep-alive HTTP clients against the server, 80% reads and 20% INSERT/DELETE: writes drive parse, storage and index maintenance and invalidate the probe caches the reads depend on"},
}

// endToEnd lists the end-to-end metrics, all measured with tracing off.
// Every workload reports every one of them; README.md says how the
// class metrics (join, read, write) are obtained on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_gm_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"join_p50_ms", "ms", "lower", 0.25},
	{"read_gm_ms", "ms", "lower", 0.25},
	{"read_p95_ms", "ms", "lower", 0.25},
	{"write_gm_ms", "ms", "lower", 0.25},
	{"write_p95_ms", "ms", "lower", 0.25},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"space_amp", "ratio", "lower", 0.05},
}

// perLayer lists the per-layer metrics of the traced run. They carry no
// bound: they attribute an end-to-end change to a layer.
var perLayer = []metricDef{
	{Name: "server.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "server.resp_bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "server.non200", Unit: "count", Better: "lower"},

	{Name: "admission.acquire_us", Unit: "us", Better: "lower"},
	{Name: "admission.queued", Unit: "count", Better: "lower"},
	{Name: "admission.shed", Unit: "count", Better: "lower"},
	{Name: "admission.wait_ms", Unit: "ms", Better: "lower"},

	{Name: "sqlxml.parse_us", Unit: "us", Better: "lower"},
	{Name: "sqlxml.exec_self_ms", Unit: "ms", Better: "lower"},
	{Name: "sqlxml.rows_scanned_per_row_out", Unit: "ratio", Better: "lower"},

	{Name: "xquery.parse_us", Unit: "us", Better: "lower"},
	{Name: "xquery.eval_ms", Unit: "ms", Better: "lower"},
	{Name: "xquery.docs_walked_per_item", Unit: "ratio", Better: "lower"},

	{Name: "core.analyze_us", Unit: "us", Better: "lower"},

	{Name: "engine.plan_us", Unit: "us", Better: "lower"},
	{Name: "engine.plancache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.probe_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.merge_ms", Unit: "ms", Better: "lower"},
	{Name: "engine.docs_scanned_ratio", Unit: "ratio", Better: "lower"},
	{Name: "engine.nodes_seeded", Unit: "count", Better: "lower"},
	{Name: "engine.index_only_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.synopsis_answer_ratio", Unit: "ratio", Better: "higher"},
	{Name: "engine.shards", Unit: "count", Better: "higher"},

	{Name: "xmlindex.doclist_us", Unit: "us", Better: "lower"},
	{Name: "xmlindex.nodelist_us", Unit: "us", Better: "lower"},
	{Name: "xmlindex.probecache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "xmlindex.keys_per_probe", Unit: "count", Better: "lower"},
	{Name: "xmlindex.nodes_decoded", Unit: "count", Better: "lower"},
	{Name: "xmlindex.insertdoc_us", Unit: "us", Better: "lower"},
	{Name: "xmlindex.deletedoc_us", Unit: "us", Better: "lower"},
	{Name: "xmlindex.entries", Unit: "count", Better: "lower"},

	{Name: "btree.scans", Unit: "count", Better: "lower"},
	{Name: "btree.keys_visited", Unit: "count", Better: "lower"},
	{Name: "btree.scan_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "btree.insert_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.delete_ns", Unit: "ns", Better: "lower"},
	{Name: "btree.bulkload_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "btree.height", Unit: "count", Better: "lower"},

	{Name: "postings.intersect_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "postings.union_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "postings.fromruns_ns_per_elem", Unit: "ns", Better: "lower"},
	{Name: "postings.intersect_nodes_ns_per_elem", Unit: "ns", Better: "lower"},

	{Name: "synopsis.match_us", Unit: "us", Better: "lower"},
	{Name: "synopsis.adddoc_us", Unit: "us", Better: "lower"},
	{Name: "synopsis.removedoc_us", Unit: "us", Better: "lower"},
	{Name: "synopsis.paths", Unit: "count", Better: "lower"},
	{Name: "synopsis.skips", Unit: "count", Better: "higher"},

	{Name: "storage.insert_us", Unit: "us", Better: "lower"},
	{Name: "storage.delete_us", Unit: "us", Better: "lower"},
	{Name: "storage.collection_filtered_us", Unit: "us", Better: "lower"},
	{Name: "storage.bulkappend_ms", Unit: "ms", Better: "lower"},

	{Name: "xmlparse.parse_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "xmlparse.stream_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "xmlparse.nodes_per_doc", Unit: "count", Better: "lower"},

	{Name: "ingest.docs_per_s", Unit: "1/s", Better: "higher"},
	{Name: "ingest.parse_share", Unit: "ratio", Better: "lower"},
	{Name: "ingest.index_share", Unit: "ratio", Better: "lower"},
	{Name: "ingest.runs_merged", Unit: "count", Better: "lower"},

	{Name: "xdm.serialize_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "xdm.general_compare_ns", Unit: "ns", Better: "lower"},
	{Name: "xdm.bytes_per_node", Unit: "count", Better: "lower"},

	{Name: "pattern.match_ns", Unit: "ns", Better: "lower"},
	{Name: "pattern.contains_ns", Unit: "ns", Better: "lower"},

	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_peak_mb", Unit: "MB", Better: "lower"},

	{Name: "harness.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "harness.trace_coverage", Unit: "ratio", Better: "higher"},
	{Name: "harness.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "harness.loadavg_1m", Unit: "count", Better: "lower"},
	{Name: "harness.samples", Unit: "count", Better: "higher"},
	{Name: "harness.fail_ratio", Unit: "ratio", Better: "lower"},
}
