package xmlindex

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"github.com/xqdb/xqdb/internal/lru"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/xdm"
)

// allFFValue is the one value whose order-preserving encoding is all
// 0xff bytes: the positive NaN with every mantissa/exponent bit set.
// encodeFloat flips the sign bit of a positive double, turning
// 0x7fffffffffffffff into 0xffffffffffffffff. (String encodings always
// end in the 0x00 0x00 terminator, so they can never reach this edge.)
func allFFValue() *xdm.Value {
	v := xdm.Value{T: xdm.Double, F: math.Float64frombits(0x7fffffffffffffff)}
	return &v
}

// Regression: an exclusive lower bound at the maximal encodable value has
// no successor — prefixSuccessor returns nil. nil-as-lo means
// "scan from the start", the exact opposite of "nothing is greater", so
// the old code returned every entry in the index. The probe must return
// none.
func TestExclusiveLoAtMaxEncodingReturnsNothing(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="80"/></order>`)

	p := Probe{Range: Range{Lo: allFFValue(), LoInc: false}}
	entries, visited, err := scanEntries(ix, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || visited != 0 {
		t.Fatalf("exclusive > max-encoding must match nothing, got %d entries (%d visited)", len(entries), visited)
	}
	docs, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if docs == nil || len(docs) != 0 || visited != 0 || cached {
		t.Fatalf("DocList past max encoding = %v (visited %d, cached %v), want empty", docs, visited, cached)
	}
	nodes, visited, cached, err := ix.NodeList(p)
	if err != nil {
		t.Fatal(err)
	}
	if nodes == nil || len(nodes) != 0 || visited != 0 || cached {
		t.Fatalf("NodeList past max encoding = %v (visited %d, cached %v), want empty", nodes, visited, cached)
	}
	// The sentinel must not degrade the inclusive form: >= max-encoding
	// scans normally (and here matches nothing real either).
	if _, _, _, err := ix.NodeList(Probe{Range: Range{Lo: allFFValue(), LoInc: true}}); err != nil {
		t.Fatal(err)
	}
}

// DocList must agree with the map-based docSet reference on every probe
// shape — it is the streaming form of the same Definition-1 pre-filter.
func TestDocListMatchesDocSet(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 3, `<order><lineitem price="150"/><lineitem price="90"/></order>`)
	insert(t, ix, 1, `<order><lineitem price="110"/><lineitem price="120"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="50"/></order>`)
	insert(t, ix, 7, `<order><other price="150"/></order>`)

	probes := []Probe{
		{Range: Range{Lo: dbl(100), LoInc: false}},
		{Range: Range{Lo: dbl(40), LoInc: true, Hi: dbl(115), HiInc: true}},
		{Range: Equality(xdm.NewDouble(150))},
		{}, // structural: full range
		{Range: Range{Lo: dbl(100)}, Paths: pathsOf(ix, "/order/lineitem/@price")},
	}
	for i, p := range probes {
		want, _, err := docSetStats(ix, p)
		if err != nil {
			t.Fatal(err)
		}
		p.NoCache = true
		got, _, cached, err := ix.DocList(p)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("probe %d: NoCache probe reported cached", i)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: DocList %v vs DocSet %v", i, got, want)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("probe %d: DocList has %d, DocSet %v", i, id, want)
			}
		}
		for j := 1; j < len(got); j++ {
			if got[j] <= got[j-1] {
				t.Fatalf("probe %d: DocList not strictly ascending: %v", i, got)
			}
		}
	}
}

// The version counter moves only when the entry set changes, so cached
// probes survive inserts of documents the index does not cover.
func TestVersionBumpsOnlyOnEntryChange(t *testing.T) {
	ix := liPrice(t)
	v0 := ix.Version()
	doc := insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	v1 := ix.Version()
	if v1 == v0 {
		t.Fatal("insert with entries must bump the version")
	}
	insert(t, ix, 2, `<order><cancel-date>2001-01-01</cancel-date></order>`) // no price
	if ix.Version() != v1 {
		t.Fatal("insert without matching entries must not bump the version")
	}
	ix.DeleteDoc(1, doc)
	if ix.Version() == v1 {
		t.Fatal("delete with entries must bump the version")
	}
}

func TestProbeCacheHitAndInvalidation(t *testing.T) {
	ix := liPrice(t)
	reg := metrics.NewRegistry()
	ix.Instrument(reg)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="80"/></order>`)

	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}}
	cold, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached || visited == 0 {
		t.Fatalf("first probe must scan: cached=%v visited=%d", cached, visited)
	}
	if !ix.ProbeCached(p) {
		t.Fatal("ProbeCached must see the stored result")
	}
	warm, visited, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || visited != 0 {
		t.Fatalf("second probe must hit: cached=%v visited=%d", cached, visited)
	}
	if len(warm) != len(cold) {
		t.Fatalf("cached result differs: %v vs %v", warm, cold)
	}

	// An insert that changes the entry set invalidates the cached probe.
	insert(t, ix, 3, `<order><lineitem price="120"/></order>`)
	if ix.ProbeCached(p) {
		t.Fatal("ProbeCached must report stale after an entry-set change")
	}
	after, _, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("post-insert probe must rescan")
	}
	if _, ok := slices.BinarySearch(after, 3); !ok {
		t.Fatalf("rescan missed the new document: %v", after)
	}

	snap := reg.Snapshot()
	if snap.Counters["probecache.hits"] != 1 {
		t.Fatalf("hits = %d, want 1", snap.Counters["probecache.hits"])
	}
	if snap.Counters["probecache.invalidations"] != 1 {
		t.Fatalf("invalidations = %d, want 1", snap.Counters["probecache.invalidations"])
	}
	if snap.Counters["probecache.misses"] != 2 {
		t.Fatalf("misses = %d, want 2 (cold + post-invalidation)", snap.Counters["probecache.misses"])
	}
}

func TestProbeCacheNoCacheBypass(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}, NoCache: true}
	for i := 0; i < 2; i++ {
		_, visited, cached, err := ix.DocList(p)
		if err != nil {
			t.Fatal(err)
		}
		if cached || visited == 0 {
			t.Fatalf("run %d: NoCache must always scan (cached=%v visited=%d)", i, cached, visited)
		}
	}
	if ix.cache.Len() != 0 {
		t.Fatalf("NoCache populated the cache: %d entries", ix.cache.Len())
	}
}

func TestProbeCacheLRUEviction(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	for i := 0; i <= probeCacheSize+10; i++ {
		lo := xdm.NewDouble(float64(i))
		if _, _, _, err := ix.DocList(Probe{Range: Range{Lo: &lo, LoInc: true}}); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.cache.Len(); n != probeCacheSize {
		t.Fatalf("cache holds %d entries, want the cap %d", n, probeCacheSize)
	}
}

// An index's probe cache built small keeps the most recent probes and
// drops the cold end.
func TestProbeCacheConfiguredCapacity(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	ix.cache = lru.New[string, Hits](3, lru.Metrics{})
	probe := func(i int) Probe {
		lo := xdm.NewDouble(float64(i))
		return Probe{Range: Range{Lo: &lo, LoInc: true}}
	}
	for i := 0; i < 10; i++ {
		if _, _, _, err := ix.DocList(probe(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := ix.cache.Len(); n != 3 {
		t.Fatalf("cache holds %d entries, want the configured cap 3", n)
	}
	if !ix.ProbeCached(probe(9)) || ix.ProbeCached(probe(0)) {
		t.Fatal("eviction must drop the cold end and keep the hot end")
	}
}

// Distinct bounds must never collide to one cache key: the key uses
// length-prefixed bound encodings and the query-pattern source. The two
// path sets are decided on an empty dictionary, so they hold the same
// (no) IDs: their patterns still disagree on paths interned later, and
// so must their keys.
func TestProbeKeyDistinguishesBounds(t *testing.T) {
	dict := pattern.NewDict()
	keys := map[string]bool{
		probeKey([]byte{1, 2}, []byte{3}, nil):                                 true,
		probeKey([]byte{1}, []byte{2, 3}, nil):                                 true,
		probeKey([]byte{1, 2, 3}, nil, nil):                                    true,
		probeKey(nil, []byte{1, 2, 3}, nil):                                    true,
		probeKey(nil, nil, nil):                                                true,
		probeKey(nil, nil, dict.Match(pattern.MustParse("//lineitem/@price"))): true,
		probeKey(nil, nil, dict.Match(pattern.MustParse("/order/lineitem"))):   true,
	}
	if len(keys) != 7 {
		t.Fatalf("probe keys collided: %d distinct of 7", len(keys))
	}
}

// A cached list is shared between the cache and callers; combining ops
// must not mutate it (postings ops are copy-on-write by contract).
func TestCachedListSurvivesCombination(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="120"/></order>`)
	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}}
	first, _, _, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	_ = postings.Intersect(first, postings.List{1})
	_ = postings.Union(first, postings.List{9})
	again, _, cached, err := ix.DocList(p)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || len(again) != 2 || again[0] != 1 || again[1] != 2 {
		t.Fatalf("cached list corrupted: %v (cached=%v)", again, cached)
	}
}

// NodeList decodes the matched entries' (docID, ordinal) pairs: the doc
// projection of the node list must equal the DocList result on every
// probe shape, and the ordinals must identify exactly the entries the
// reference walk scanEntries reports.
func TestNodeListMatchesScanEntries(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 3, `<order><lineitem price="150"/><lineitem price="90"/></order>`)
	insert(t, ix, 1, `<order><lineitem price="110"/><lineitem price="120"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="50"/></order>`)
	insert(t, ix, 7, `<order><other price="150"/></order>`)

	probes := []Probe{
		{Range: Range{Lo: dbl(100), LoInc: false}},
		{Range: Range{Lo: dbl(40), LoInc: true, Hi: dbl(115), HiInc: true}},
		{Range: Equality(xdm.NewDouble(150))},
		{},
		{Range: Range{Lo: dbl(100)}, Paths: pathsOf(ix, "/order/lineitem/@price")},
	}
	for i, p := range probes {
		p.NoCache = true
		entries, _, err := scanEntries(ix, p)
		if err != nil {
			t.Fatal(err)
		}
		want := map[uint64]bool{}
		for _, e := range entries {
			want[postings.PackNode(e.DocID, e.NodeID)] = true
		}
		nodes, _, cached, err := ix.NodeList(p)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("probe %d: NoCache NodeList reported a cache hit", i)
		}
		if len(nodes) != len(want) {
			t.Fatalf("probe %d: %d node refs, want %d", i, len(nodes), len(want))
		}
		for _, r := range nodes {
			if !want[r] {
				t.Fatalf("probe %d: node ref (%d,%d) not among scan entries", i, postings.NodeDoc(r), postings.NodeOrd(r))
			}
		}
		docs, _, _, err := ix.DocList(p)
		if err != nil {
			t.Fatal(err)
		}
		proj := nodes.Docs()
		if len(proj) != len(docs) {
			t.Fatalf("probe %d: doc projection %v != DocList %v", i, proj, docs)
		}
		for j := range docs {
			if proj[j] != docs[j] {
				t.Fatalf("probe %d: doc projection %v != DocList %v", i, proj, docs)
			}
		}
	}
}

// DocList and NodeList are projections of one probe result, so they
// share one cache entry: whichever runs first warms the other, and the
// entry is evicted and invalidated once for both.
func TestProbeCacheSharedAcrossProjections(t *testing.T) {
	p := Probe{Range: Range{Lo: dbl(100), LoInc: false}}
	for _, nodeFirst := range []bool{false, true} {
		ix := liPrice(t)
		reg := metrics.NewRegistry()
		ix.Instrument(reg)
		insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
		insert(t, ix, 2, `<order><lineitem price="120"/><lineitem price="80"/></order>`)

		var (
			docs             postings.List
			nodes            postings.NodeList
			visited          int
			dCached, nCached bool
			err              error
		)
		runDocs := func() {
			if docs, visited, dCached, err = ix.DocList(p); err != nil {
				t.Fatal(err)
			}
		}
		runNodes := func() {
			if nodes, visited, nCached, err = ix.NodeList(p); err != nil {
				t.Fatal(err)
			}
		}
		first, second := runDocs, runNodes
		if nodeFirst {
			first, second = runNodes, runDocs
		}
		first()
		if dCached || nCached || visited == 0 {
			t.Fatalf("nodeFirst=%v: first probe must scan (visited %d)", nodeFirst, visited)
		}
		second()
		if dCached == nCached || visited != 0 {
			t.Fatalf("nodeFirst=%v: the other projection must hit the shared entry (doc cached %v, node cached %v, visited %d)",
				nodeFirst, dCached, nCached, visited)
		}
		if len(docs) != 2 || len(nodes) != 2 {
			t.Fatalf("nodeFirst=%v: docs %v nodes %v, want 2 and 2", nodeFirst, docs, nodes)
		}
		snap := reg.Snapshot()
		if ix.cache.Len() != 1 || snap.Gauges["probecache.entries"] != 1 {
			t.Fatalf("nodeFirst=%v: %d entries (gauge %d), want one shared entry",
				nodeFirst, ix.cache.Len(), snap.Gauges["probecache.entries"])
		}
		if snap.Counters["probecache.hits"] != 1 || snap.Counters["probecache.misses"] != 1 {
			t.Fatalf("nodeFirst=%v: hits %d misses %d, want 1 and 1", nodeFirst,
				snap.Counters["probecache.hits"], snap.Counters["probecache.misses"])
		}
		// An entry-set change invalidates the one entry for both projections.
		insert(t, ix, 3, `<order><lineitem price="130"/></order>`)
		if ix.ProbeCached(p) {
			t.Fatal("entry must report stale after an entry-set change")
		}
		runNodes()
		if nCached || len(nodes) != 3 {
			t.Fatalf("post-insert NodeList = %v (cached=%v), want 3 refs rescanned", nodes, nCached)
		}
		runDocs()
		if !dCached || len(docs) != 3 {
			t.Fatalf("post-insert DocList = %v (cached=%v), want 3 docs from the refilled entry", docs, dCached)
		}
		if got := reg.Snapshot().Counters["probecache.invalidations"]; got != 1 {
			t.Fatalf("invalidations = %d, want 1", got)
		}
	}
}

// Stale-read property: after every insert and delete of a random
// sequence, what the cache serves at either projection equals the
// uncached answer, and the document list is the node list's projection.
func TestProbeCacheNeverStaleProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ix := liPrice(t)
		// The path set is decided on the empty dictionary, so every path
		// it meets is one interned after it.
		probes := []Probe{
			{Range: Range{Lo: dbl(100)}},
			{Range: Range{Lo: dbl(40), LoInc: true, Hi: dbl(115), HiInc: true}},
			{Range: Equality(xdm.NewDouble(150))},
			{},
			{Range: Range{Lo: dbl(60)}, Paths: pathsOf(ix, "/order/lineitem/@price")},
		}
		// From smaller than the probe set (evictions interleave with
		// invalidations) to large enough to keep every entry.
		ix.cache = lru.New[string, Hits](3+rng.Intn(4), lru.Metrics{})
		live := map[uint32]*xdm.Node{}
		for step := 0; step < 40; step++ {
			id := uint32(rng.Intn(8))
			if doc, ok := live[id]; ok {
				ix.DeleteDoc(id, doc)
				delete(live, id)
			} else {
				// One item in four sits on a second concrete path, which the
				// query-pattern probe rejects.
				shape := `<order><lineitem price="%d"/><lineitem price="%d"/></order>`
				if rng.Intn(4) == 0 {
					shape = `<order><archive><lineitem price="%d"/></archive><lineitem price="%d"/></order>`
				}
				src := fmt.Sprintf(shape, 30*rng.Intn(7), 30*rng.Intn(7))
				live[id] = insert(t, ix, id, src)
			}
			for _, pi := range rng.Perm(len(probes)) {
				p := probes[pi]
				fresh := p
				fresh.NoCache = true
				wantNodes, _, _, err := ix.NodeList(fresh)
				if err != nil {
					t.Fatal(err)
				}
				wantDocs, _, _, err := ix.DocList(fresh)
				if err != nil {
					t.Fatal(err)
				}
				// Alternate which projection touches the cache first.
				var nodes postings.NodeList
				var docs postings.List
				if (step+pi)%2 == 0 {
					nodes, _, _, err = ix.NodeList(p)
					if err == nil {
						docs, _, _, err = ix.DocList(p)
					}
				} else {
					docs, _, _, err = ix.DocList(p)
					if err == nil {
						nodes, _, _, err = ix.NodeList(p)
					}
				}
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(nodes, wantNodes) || !slices.Equal(docs, wantDocs) || !slices.Equal(nodes.Docs(), docs) {
					t.Logf("seed %d step %d probe %d: cached nodes %v docs %v, uncached nodes %v docs %v",
						seed, step, pi, nodes, docs, wantNodes, wantDocs)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// A cache hit hands out the stored lists: beyond deriving the key (the
// bounds encoding and the key string) it allocates nothing, at either
// projection.
func TestProbeCacheHitAllocatesNothing(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/><lineitem price="130"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="120"/></order>`)
	p := Probe{Range: Range{Lo: dbl(100), LoInc: true, Hi: dbl(160)}, Paths: pathsOf(ix, "/order/lineitem/@price")}
	if _, _, _, err := ix.NodeList(p); err != nil {
		t.Fatal(err)
	}
	keyAllocs := testing.AllocsPerRun(200, func() {
		lo, hi, _, _ := ix.bounds(p.Range)
		_ = probeKey(lo, hi, p.Paths)
	})
	docAllocs := testing.AllocsPerRun(200, func() {
		if docs, _, cached, _ := ix.DocList(p); !cached || len(docs) != 2 {
			t.Fatalf("DocList = %v (cached=%v), want a 2-doc hit", docs, cached)
		}
	})
	nodeAllocs := testing.AllocsPerRun(200, func() {
		if nodes, _, cached, _ := ix.NodeList(p); !cached || len(nodes) != 3 {
			t.Fatalf("NodeList = %v (cached=%v), want a 3-ref hit", nodes, cached)
		}
	})
	if docAllocs != keyAllocs || nodeAllocs != keyAllocs {
		t.Fatalf("cache hit allocates: DocList %.0f, NodeList %.0f, key derivation alone %.0f", docAllocs, nodeAllocs, keyAllocs)
	}
}

// A cold probe whose keys span many (value, path) runs decodes inside a
// recycled buffer: neither its allocation count nor its bytes per
// decoded node grow with the result. Collecting into a fresh slice grew
// it once per append doubling, and the radix sort of three or more runs
// allocated a scratch as long as the list.
func TestColdMultiRunProbeAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	docs := make([]*xdm.Node, 7)
	for v := range docs {
		docs[v] = mustDoc(t, fmt.Sprintf(`<order><lineitem price="%d"/></order>`, v))
	}
	// price = docID mod 7: seven value runs, each restarting the doc ids.
	build := func(n int) *Index {
		ix := liPrice(t)
		for id := 1; id <= n; id++ {
			if err := ix.InsertDoc(uint32(id), docs[id%7]); err != nil {
				t.Fatal(err)
			}
		}
		return ix
	}
	p := Probe{Range: Range{Lo: dbl(0), LoInc: true}, NoCache: true}
	measure := func(ix *Index, n int) (allocs, bytesPerNode float64) {
		probe := func() {
			if nodes, _, _, err := ix.NodeList(p); err != nil || len(nodes) != n {
				t.Fatalf("NodeList: %d refs, %v; want %d", len(nodes), err, n)
			}
		}
		allocs = testing.AllocsPerRun(20, probe)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			probe()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / 20 / float64(n)
	}
	smallAllocs, _ := measure(build(200), 200)
	bigAllocs, bigBytes := measure(build(20000), 20000)
	t.Logf("cold multi-run probe: %.1f allocs at 200 refs, %.1f at 20000 (%.1f bytes a ref)", smallAllocs, bigAllocs, bigBytes)
	if bigAllocs > smallAllocs+2 {
		t.Errorf("cold multi-run probe allocs grow with the result: %.1f at 200 refs, %.1f at 20000", smallAllocs, bigAllocs)
	}
	// The result (8 bytes a ref) and its document projection (4 bytes a
	// document, one document a ref here) are what must be allocated.
	if bigBytes > 16 {
		t.Errorf("cold multi-run probe allocates %.1f bytes per decoded ref, want at most 16", bigBytes)
	}
}
