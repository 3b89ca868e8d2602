package synopsis

import (
	"sort"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

func doc(t testing.TB, src string) *xdm.Node {
	t.Helper()
	d, err := xmlparse.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return d
}

func pat(t testing.TB, src string) *pattern.Pattern {
	t.Helper()
	p, err := pattern.Parse(src)
	if err != nil {
		t.Fatalf("pattern %q: %v", src, err)
	}
	return p
}

func TestAddDocCounts(t *testing.T) {
	s := New(pattern.NewDict())
	s.AddDoc(doc(t, `<order date="d"><lineitem price="1"/><lineitem price="2">x</lineitem></order>`))
	s.AddDoc(doc(t, `<order><lineitem price="3"/></order>`))

	cases := []struct {
		pattern     string
		nodes, docs int64
	}{
		{"/order", 2, 2},
		{"/order/@date", 1, 1},
		{"//lineitem", 3, 2},
		{"//lineitem/@price", 3, 2},
		{"/order/lineitem/text()", 1, 1},
		{"//missing", 0, 0},
		{"//lineitem/@missing", 0, 0},
	}
	for _, c := range cases {
		nodes, docs := s.Match(pat(t, c.pattern))
		if nodes != c.nodes || docs != c.docs {
			t.Errorf("Match(%s) = (%d nodes, %d docs), want (%d, %d)", c.pattern, nodes, docs, c.nodes, c.docs)
		}
	}
}

func TestNilSynopsisIsInert(t *testing.T) {
	var s *Synopsis
	if n, d := s.Match(pat(t, "/a")); n != -1 || d != -1 {
		t.Fatalf("nil Match = (%d, %d), want (-1, -1)", n, d)
	}
	if s.AddDoc(doc(t, `<a/>`)) || s.RemoveDoc(doc(t, `<a/>`)) || s.Merge(NewBatch()) {
		t.Fatal("nil synopsis reported a path-set change")
	}
	if s.Len() != 0 || s.Paths() != nil {
		t.Fatal("nil synopsis reported contents")
	}
	s.Instrument(nil) // must not panic
}

// AddDoc and RemoveDoc report a path-set change, which is what bumps the
// catalog version (storage), for new and vanished paths only.
func TestVersionTracksPathSetOnly(t *testing.T) {
	s := New(pattern.NewDict())
	if !s.AddDoc(doc(t, `<a><b/></a>`)) {
		t.Fatal("first AddDoc: path set unchanged")
	}
	if s.AddDoc(doc(t, `<a><b/></a>`)) {
		t.Fatal("identical AddDoc: path set reported changed")
	}
	if s.RemoveDoc(doc(t, `<a><b/></a>`)) {
		t.Fatal("partial RemoveDoc: path set reported changed")
	}
	if !s.RemoveDoc(doc(t, `<a><b/></a>`)) {
		t.Fatal("final RemoveDoc: path set unchanged")
	}
	if s.Len() != 0 {
		t.Fatalf("Len after removing everything = %d", s.Len())
	}
}

func TestInstrumentGaugeTracksPaths(t *testing.T) {
	reg := metrics.NewRegistry()
	g := reg.Gauge("synopsis.paths")
	s := New(pattern.NewDict())
	s.AddDoc(doc(t, `<a><b/></a>`)) // /a, /a/b
	s.Instrument(g)
	if g.Value() != 2 {
		t.Fatalf("gauge after Instrument = %d, want 2", g.Value())
	}
	s.AddDoc(doc(t, `<a><c/></a>`)) // adds /a/c
	if g.Value() != 3 {
		t.Fatalf("gauge after growth = %d, want 3", g.Value())
	}
	s.RemoveDoc(doc(t, `<a><c/></a>`)) // /a survives (count 1), /a/c goes
	if g.Value() != 2 {
		t.Fatalf("gauge after shrink = %d, want 2", g.Value())
	}
}

func TestPathsSortedAndRendered(t *testing.T) {
	s := New(pattern.NewDict())
	s.AddDoc(doc(t, `<order date="d"><!-- c --><lineitem price="1">x</lineitem><?tgt data?></order>`))
	paths := s.Paths()
	if !sort.SliceIsSorted(paths, func(i, j int) bool { return paths[i].Path < paths[j].Path }) {
		t.Fatalf("Paths not sorted: %+v", paths)
	}
	want := map[string]int64{
		"/order":                             1,
		"/order/@date":                       1,
		"/order/comment()":                   1,
		"/order/lineitem":                    1,
		"/order/lineitem/@price":             1,
		"/order/lineitem/text()":             1,
		"/order/processing-instruction(tgt)": 1,
	}
	if len(paths) != len(want) {
		t.Fatalf("got %d paths, want %d: %+v", len(paths), len(want), paths)
	}
	for _, ps := range paths {
		if want[ps.Path] != ps.Count {
			t.Errorf("path %q count %d, want %d", ps.Path, ps.Count, want[ps.Path])
		}
	}
}

// TestMergeMatchesPerDocAdd: folding per-worker batches produces exactly
// the synopsis that per-document AddDoc builds, including under
// concurrent merges (run with -race).
func TestMergeMatchesPerDocAdd(t *testing.T) {
	docs := []string{
		`<order><lineitem price="1"/></order>`,
		`<order note="n"><lineitem price="2">x</lineitem><lineitem price="3"/></order>`,
		`<invoice><total>9</total></invoice>`,
		`<order><archived><lineitem price="4"/></archived></order>`,
	}
	serial := New(pattern.NewDict())
	for _, src := range docs {
		serial.AddDoc(doc(t, src))
	}

	merged := New(pattern.NewDict())
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			b := NewBatch()
			for i, src := range docs {
				if i%2 == w {
					b.AddDoc(doc(t, src))
				}
			}
			merged.Merge(b)
		}(w)
	}
	wg.Wait()

	sp, mp := serial.Paths(), merged.Paths()
	if len(sp) != len(mp) {
		t.Fatalf("serial %d paths, merged %d", len(sp), len(mp))
	}
	for i := range sp {
		if sp[i] != mp[i] {
			t.Fatalf("path %d: serial %+v, merged %+v", i, sp[i], mp[i])
		}
	}
}

// Once the dictionary knows a document's paths, adding and removing the
// document walk it straight into the counts: no batch, no path key, no
// label copy. (Building a throwaway batch per call cost 52 allocations
// for this 13-path order.)
func TestKnownPathsAllocateNothing(t *testing.T) {
	s := New(pattern.NewDict())
	d := doc(t, `<order date="d" id="1"><custid>7</custid><lineitem price="1" qty="2"><product><id>p</id><name>n</name></product></lineitem></order>`)
	s.AddDoc(d)
	if n := s.Len(); n != 13 {
		t.Fatalf("order has %d paths, want 13", n)
	}
	add := testing.AllocsPerRun(100, func() { s.AddDoc(d) })
	remove := testing.AllocsPerRun(100, func() { s.RemoveDoc(d) })
	if add != 0 || remove != 0 {
		t.Fatalf("AddDoc allocates %.0f, RemoveDoc %.0f; want 0", add, remove)
	}
}
