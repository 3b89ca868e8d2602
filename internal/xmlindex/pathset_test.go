package xmlindex

import (
	"slices"
	"testing"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/synopsis"
)

// A cold probe restricted by a path set allocates no more than the same
// probe without one: the set answers each key by its path ID, with no
// per-probe verdict map, whether it decided the key's path up front or
// meets a path interned after it was decided.
func TestColdPathSetProbeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	ix := liPrice(t)
	early := pathsOf(ix, "/order/lineitem/@price") // decided on the empty dictionary
	for id := uint32(1); id <= 50; id++ {
		insert(t, ix, id, `<order><lineitem price="150"/><archive><lineitem price="160"/></archive></order>`)
	}
	plain := Probe{Range: Range{Lo: dbl(100)}, NoCache: true}
	allocs := func(p Probe) float64 {
		return testing.AllocsPerRun(50, func() {
			if _, _, _, err := ix.NodeList(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(plain)
	for i, paths := range []*pattern.PathSet{early, pathsOf(ix, "/order/lineitem/@price")} {
		p := plain
		p.Paths = paths
		if got := allocs(p); got > base {
			t.Errorf("set %d (decided %s the inserts): a path-set probe allocates %.1f times, the unrestricted probe %.1f",
				i, []string{"before", "after"}[i], got, base)
		}
	}
}

// A path set decided before a document brings a new path the pattern
// matches still names that path's nodes, through a probe and through the
// synopsis count.
func TestPathSetSeesPathsInternedLater(t *testing.T) {
	dict := pattern.NewDict()
	syn := synopsis.New(dict)
	ix := New("li_price", pattern.MustParse("//lineitem/@price"), Double, dict)
	add := func(id uint32, src string) {
		t.Helper()
		doc := mustDoc(t, src)
		if err := ix.InsertDoc(id, doc); err != nil {
			t.Fatal(err)
		}
		syn.AddDoc(doc)
	}
	add(1, `<order><lineitem price="150"/></order>`)
	paths := dict.Match(pattern.MustParse("//order/lineitem/@price"))
	add(2, `<batch><order><lineitem price="170"/></order></batch>`) // a new matching path
	add(3, `<quote><lineitem price="180"/></quote>`)                // a new path it does not match
	for _, noCache := range []bool{true, false, false} {
		hits, _, _, err := ix.Hits(Probe{Range: Range{Lo: dbl(100)}, Paths: paths, NoCache: noCache})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(hits.Docs, postings.List{1, 2}) {
			t.Fatalf("probe docs %v, want [1 2] (cache bypassed: %v)", hits.Docs, noCache)
		}
	}
	if nodes, docs := syn.Count(paths); nodes != 2 || docs != 2 {
		t.Fatalf("synopsis count (%d nodes, %d docs), want (2, 2)", nodes, docs)
	}
}
