package xmlindex

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/xqdb/xqdb/internal/btree"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

func mustDoc(t *testing.T, src string) *xdm.Node {
	t.Helper()
	doc, err := xmlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// orderDoc varies both values and concrete paths so the bulk path has to
// get path IDs right, not just key ordering.
func orderDoc(i int) string {
	if i%3 == 0 {
		return fmt.Sprintf(`<order><archive><lineitem price="%d.50"/></archive></order>`, i)
	}
	return fmt.Sprintf(`<order><lineitem price="%d"/><lineitem price="%d.25"/></order>`, i, i+1000)
}

// scanAll dumps every entry of a structural (unbounded) probe.
func scanAll(t *testing.T, ix *Index) []Entry {
	t.Helper()
	entries, _, err := scanEntries(ix, Probe{})
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestExtractorBulkEquivalence loads one corpus through InsertDoc and
// the same corpus through several extractors + PrepareBulk/CommitBulk,
// then checks the two indexes are observationally identical: same
// entries, same range-probe results, same query-pattern filtering.
func TestExtractorBulkEquivalence(t *testing.T) {
	const docs = 40
	ref := New("li", pattern.MustParse("//lineitem/@price"), Double, pattern.NewDict())
	bulk := New("li", pattern.MustParse("//lineitem/@price"), Double, pattern.NewDict())

	// Pre-existing rows on both sides: the bulk path must merge with,
	// not replace, what is already indexed.
	for id := uint32(1); id <= 3; id++ {
		doc := mustDoc(t, orderDoc(int(id)))
		if err := ref.InsertDoc(id, doc); err != nil {
			t.Fatal(err)
		}
		if err := bulk.InsertDoc(id, doc); err != nil {
			t.Fatal(err)
		}
	}

	// Three extractors, round-robin, like three load workers.
	exts := []*Extractor{bulk.NewExtractor(), bulk.NewExtractor(), bulk.NewExtractor()}
	for id := uint32(4); id <= docs; id++ {
		doc := mustDoc(t, orderDoc(int(id)))
		if err := ref.InsertDoc(id, doc); err != nil {
			t.Fatal(err)
		}
		if err := exts[int(id)%len(exts)].AddDoc(id, doc); err != nil {
			t.Fatal(err)
		}
	}
	runs := make([][][]byte, len(exts))
	for i, e := range exts {
		runs[i] = e.Run()
	}
	vBefore := bulk.Version()
	pre := bulk.Stats().Entries
	bb, err := bulk.PrepareBulk(nil, runs...)
	if err != nil {
		t.Fatal(err)
	}
	bulk.CommitBulk(bb)
	if bulk.Version() == vBefore {
		t.Fatal("CommitBulk with new entries did not bump the version")
	}

	if r, b := ref.Stats().Entries, bulk.Stats().Entries; r != b || bb.delta != b-pre {
		t.Fatalf("entries: ref %d, bulk %d, delta %d", r, b, bb.delta)
	}
	if got, want := scanAll(t, bulk), scanAll(t, ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("structural scan diverged:\nbulk %v\nref  %v", got, want)
	}
	for _, p := range []struct {
		r Range
		q string
	}{
		{r: Equality(xdm.NewDouble(7))},
		{r: Range{Lo: dbl(1000), LoInc: true}},
		{r: Range{Lo: dbl(5), Hi: dbl(20), LoInc: true, HiInc: false}},
		// Query pattern more restrictive than the index pattern: only
		// the archive-nested lineitems. This probes the path IDs the
		// extractors stamp — a wrong ID mislabels paths and filters the
		// wrong entries.
		{q: "/order/archive/lineitem/@price"},
	} {
		// Each index resolves the query pattern in its own dictionary.
		probe := func(ix *Index) Probe {
			if p.q == "" {
				return Probe{Range: p.r, NoCache: true}
			}
			return Probe{Range: p.r, Paths: pathsOf(ix, p.q), NoCache: true}
		}
		want, _, err := scanEntries(ref, probe(ref))
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := scanEntries(bulk, probe(bulk))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("probe %+v diverged:\nbulk %v\nref  %v", p, got, want)
		}
		wd, _, _, err := ref.DocList(probe(ref))
		if err != nil {
			t.Fatal(err)
		}
		gd, _, _, err := bulk.DocList(probe(bulk))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gd, wd) {
			t.Fatalf("doc list for %+v diverged: bulk %v, ref %v", p, gd, wd)
		}
	}
}

// TestBulkThenIncrementalMaintenance checks a bulk-built index keeps
// honoring the incremental contract: later InsertDoc/DeleteDoc work and
// the version moves.
func TestBulkThenIncrementalMaintenance(t *testing.T) {
	ix := New("li", pattern.MustParse("//lineitem/@price"), Double, pattern.NewDict())
	e := ix.NewExtractor()
	for id := uint32(1); id <= 10; id++ {
		if err := e.AddDoc(id, mustDoc(t, orderDoc(int(id)))); err != nil {
			t.Fatal(err)
		}
	}
	bb, err := ix.PrepareBulk(nil, e.Run())
	if err != nil {
		t.Fatal(err)
	}
	ix.CommitBulk(bb)
	n := ix.Stats().Entries

	doc := mustDoc(t, `<order><lineitem price="42"/></order>`)
	if err := ix.InsertDoc(99, doc); err != nil {
		t.Fatal(err)
	}
	if got := ix.Stats().Entries; got != n+1 {
		t.Fatalf("entries after insert = %d, want %d", got, n+1)
	}
	ix.DeleteDoc(99, doc)
	if got := ix.Stats().Entries; got != n {
		t.Fatalf("entries after delete = %d, want %d", got, n)
	}
}

// TestCommitBulkNoChangeKeepsVersion: a bulk build that adds nothing
// must not invalidate cached probe results.
func TestCommitBulkNoChangeKeepsVersion(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="5"/></order>`)
	v := ix.Version()
	e := ix.NewExtractor()
	if err := e.AddDoc(2, mustDoc(t, `<order><note>no prices here</note></order>`)); err != nil {
		t.Fatal(err)
	}
	bb, err := ix.PrepareBulk(nil, e.Run())
	if err != nil {
		t.Fatal(err)
	}
	ix.CommitBulk(bb)
	if bb.delta != 0 || ix.Version() != v {
		t.Fatalf("no-op bulk build: delta %d, version %d -> %d", bb.delta, v, ix.Version())
	}
}

// TestExtractorListTypeError mirrors InsertDoc's one hard error.
func TestExtractorListTypeError(t *testing.T) {
	ix := New("scores", pattern.MustParse("//scores"), Double, pattern.NewDict())
	doc := mustDoc(t, `<r><scores>1 2 3</scores></r>`)
	if err := xmlschema.New("v").DeclareList("scores", xdm.Double).Validate(doc); err != nil {
		t.Fatal(err)
	}
	if err := ix.NewExtractor().AddDoc(1, doc); err == nil {
		t.Fatal("list-typed match extracted without error")
	}
}

// TestPrepareBulkDuplicateDocID: reusing a docID double-extracts every
// key of that document, which the merge must reject rather than build a
// corrupt index.
func TestPrepareBulkDuplicateDocID(t *testing.T) {
	ix := liPrice(t)
	doc := mustDoc(t, `<order><lineitem price="5"/></order>`)
	a, b := ix.NewExtractor(), ix.NewExtractor()
	if err := a.AddDoc(1, doc); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDoc(1, doc); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.PrepareBulk(nil, a.Run(), b.Run()); !errors.Is(err, btree.ErrUnsorted) {
		t.Fatalf("duplicate docID: err = %v, want btree.ErrUnsorted", err)
	}
}

// TestPrepareBulkCheckAborts threads an aborting check through a build
// big enough to cross the periodic check interval.
func TestPrepareBulkCheckAborts(t *testing.T) {
	ix := liPrice(t)
	e := ix.NewExtractor()
	for id := uint32(1); id <= 600; id++ {
		if err := e.AddDoc(id, mustDoc(t, orderDoc(int(id)))); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("canceled")
	_, err := ix.PrepareBulk(func(done int) error {
		if done >= 512 {
			return boom
		}
		return nil
	}, e.Run())
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the check's error", err)
	}
}

// TestCommitBulkCarriesInstruments: probes against the swapped-in tree
// must keep feeding the same registry counters.
func TestCommitBulkCarriesInstruments(t *testing.T) {
	reg := metrics.NewRegistry()
	ix := liPrice(t)
	ix.Instrument(reg)
	e := ix.NewExtractor()
	if err := e.AddDoc(1, mustDoc(t, `<order><lineitem price="5"/></order>`)); err != nil {
		t.Fatal(err)
	}
	bb, err := ix.PrepareBulk(nil, e.Run())
	if err != nil {
		t.Fatal(err)
	}
	ix.CommitBulk(bb)
	if got := reg.Gauge("xmlindex.entries").Value(); got != 1 {
		t.Fatalf("entries gauge = %d, want 1", got)
	}
	before := reg.Counter("btree.scans").Value()
	if _, _, _, err := ix.NodeList(Probe{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("btree.scans").Value(); got != before+1 {
		t.Fatalf("btree.scans = %d, want %d: bulk tree lost its instruments", got, before+1)
	}
}
