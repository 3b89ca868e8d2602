package storage

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// bulkRows parses n order documents and stages them as rows with
// reserved ids plus one extractor run per given index.
func bulkRows(t *testing.T, tab *Table, n int, indexes ...*XMLIndex) ([]Row, map[*xmlindex.Index][][][]byte) {
	t.Helper()
	first := tab.ReserveIDs(n)
	exts := make(map[*xmlindex.Index]*xmlindex.Extractor, len(indexes))
	for _, xi := range indexes {
		exts[xi.Index] = xi.Index.NewExtractor()
	}
	rows := make([]Row, n)
	for i := range rows {
		id := first + uint32(i)
		doc, err := xmlparse.Parse(fmt.Sprintf(`<order><custid>%d</custid><lineitem price="%d"/></order>`, i, 100+i))
		if err != nil {
			t.Fatal(err)
		}
		rows[i] = Row{ID: id, Cells: []Cell{{V: xdm.NewInteger(int64(i))}, {Doc: doc}}}
		for _, e := range exts {
			if err := e.AddDoc(id, doc); err != nil {
				t.Fatal(err)
			}
		}
	}
	runs := make(map[*xmlindex.Index][][][]byte, len(exts))
	for ix, e := range exts {
		runs[ix] = [][][]byte{e.Run()}
	}
	return rows, runs
}

func TestBulkAppendMatchesInsert(t *testing.T) {
	_, tab := ordersTable(t)
	xi, err := tab.CreateXMLIndex("li_price", "orddoc", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	insertOrder(t, tab, 1, `<order><lineitem price="7"/></order>`)

	rows, runs := bulkRows(t, tab, 20, xi)
	if err := tab.BulkAppend(rows, runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 21 {
		t.Fatalf("Len = %d, want 21", tab.Len())
	}
	if got := xi.Index.Stats().Entries; got != 21 {
		t.Fatalf("index entries = %d, want 21", got)
	}
	// Every bulk row is fetchable and probe-visible.
	for _, row := range rows {
		got, ok := tab.RowByID(row.ID)
		if !ok || got.Cells[1].Doc == nil {
			t.Fatalf("row %d missing after bulk append", row.ID)
		}
	}
	v := xdm.NewDouble(110)
	nodes, _, _, err := xi.Index.NodeList(xmlindex.Probe{Range: xmlindex.Equality(v)})
	if err != nil || len(nodes) != 1 {
		t.Fatalf("probe after bulk append: %v, %v", nodes, err)
	}
	// The reserved range really was consumed: a later insert gets a
	// fresh id beyond it.
	id := insertOrder(t, tab, 99, `<order><lineitem price="1"/></order>`)
	if id <= rows[len(rows)-1].ID {
		t.Fatalf("post-bulk insert id %d inside the reserved range", id)
	}
}

// TestBulkAppendAtomicRollback: a failure in phase A leaves rows and
// indexes exactly as they were.
func TestBulkAppendAtomicRollback(t *testing.T) {
	_, tab := ordersTable(t)
	xi, err := tab.CreateXMLIndex("li_price", "orddoc", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	insertOrder(t, tab, 1, `<order><lineitem price="7"/></order>`)

	rows, runs := bulkRows(t, tab, 5, xi)
	// Wrong shape on the last row: phase A must reject the whole batch.
	rows[4].Cells = rows[4].Cells[:1]
	if err := tab.BulkAppend(rows, runs, nil, nil); err == nil {
		t.Fatal("short row accepted")
	}
	if tab.Len() != 1 {
		t.Fatalf("Len = %d after failed bulk append, want 1", tab.Len())
	}
	if got := xi.Index.Stats().Entries; got != 1 {
		t.Fatalf("index entries = %d after failed bulk append, want 1", got)
	}

	// A duplicate row id is likewise rejected up front.
	rows2, runs2 := bulkRows(t, tab, 2, xi)
	rows2[1].ID = 1
	if err := tab.BulkAppend(rows2, runs2, nil, nil); err == nil || !strings.Contains(err.Error(), "row id") {
		t.Fatalf("duplicate id: err = %v", err)
	}
	if tab.Len() != 1 || xi.Index.Stats().Entries != 1 {
		t.Fatal("duplicate-id batch left residue")
	}
}

// TestBulkAppendMidLoadIndex: an index created between extraction and
// append (no runs entry) is extracted from the rows by the append — and
// left untouched on failure.
func TestBulkAppendMidLoadIndex(t *testing.T) {
	_, tab := ordersTable(t)
	rows, runs := bulkRows(t, tab, 4) // extracted against zero indexes
	late, err := tab.CreateXMLIndex("late", "orddoc", "//custid", xmlindex.Varchar)
	if err != nil {
		t.Fatal(err)
	}
	if err := tab.BulkAppend(rows, runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := late.Index.Stats().Entries; got != 4 {
		t.Fatalf("late index entries = %d, want 4", got)
	}

	// A failed append leaves the late index as it was.
	rows2, runs2 := bulkRows(t, tab, 3)
	rows2[2].Cells = rows2[2].Cells[:1]
	if err := tab.BulkAppend(rows2, runs2, nil, nil); err == nil {
		t.Fatal("short row accepted")
	}
	if got := late.Index.Stats().Entries; got != 4 {
		t.Fatalf("late index entries = %d after rollback, want 4", got)
	}

	// A row whose extraction is rejected mid-document (a list-typed node
	// after an indexable match) leaves neither entries nor a version bump.
	rows3, runs3 := bulkRows(t, tab, 2)
	mixed, err := xmlparse.Parse(`<order><custid>9</custid><w><custid>1 2</custid></w></order>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlschema.New("v").DeclareList("/order/w/custid", xdm.Double).Validate(mixed); err != nil {
		t.Fatal(err)
	}
	rows3[0].Cells[1].Doc = mixed
	v := late.Index.Version()
	if err := tab.BulkAppend(rows3, runs3, nil, nil); err == nil {
		t.Fatal("list-typed row accepted")
	}
	if got := late.Index.Stats().Entries; got != 4 || late.Index.Version() != v {
		t.Fatalf("rejected row: late index entries = %d (want 4), version %d -> %d", got, v, late.Index.Version())
	}
}

// TestBulkAppendCheckAborts: the caller's check aborts the append with a
// full rollback.
func TestBulkAppendCheckAborts(t *testing.T) {
	_, tab := ordersTable(t)
	xi, err := tab.CreateXMLIndex("li_price", "orddoc", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	rows, runs := bulkRows(t, tab, 6, xi)
	boom := errors.New("canceled")
	err = tab.BulkAppend(rows, runs, nil, func(int) error { return boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the check's error", err)
	}
	if tab.Len() != 0 || xi.Index.Stats().Entries != 0 {
		t.Fatal("aborted bulk append left residue")
	}
}

// TestBulkAppendMaintainsRelIndexes: relational indexes see bulk rows.
func TestBulkAppendMaintainsRelIndexes(t *testing.T) {
	_, tab := ordersTable(t)
	ri, err := tab.CreateRelIndex("by_id", "ordid")
	if err != nil {
		t.Fatal(err)
	}
	rows, runs := bulkRows(t, tab, 3)
	if err := tab.BulkAppend(rows, runs, nil, nil); err != nil {
		t.Fatal(err)
	}
	ids, err := ri.Lookup(xdm.NewInteger(2))
	if err != nil || len(ids) != 1 || ids[0] != rows[2].ID {
		t.Fatalf("rel lookup = %v, %v", ids, err)
	}
}

// indexView renders what an index answers — its entry count, the node
// of every entry (a full-range probe) and the nodes at each of values —
// so indexes holding the same keys over the same path dictionary render
// alike: a key is (value, path ID, docID, node) and a node has one value
// and one path.
func indexView(ix *xmlindex.Index, values []string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d entries\n", ix.Name, ix.Stats().Entries)
	probes := []xmlindex.Probe{{NoCache: true}}
	for _, v := range values {
		probes = append(probes, xmlindex.Probe{Range: xmlindex.Equality(xdm.NewString(v)), NoCache: true})
	}
	for _, p := range probes {
		nodes, _, _, err := ix.NodeList(p)
		fmt.Fprintf(&b, "%v %v\n", nodes, err)
	}
	return b.String()
}

// TestCreateXMLIndexMatchesInsert: an index built over a populated table
// holds exactly the entries per-row maintenance gives, and a list-typed
// document still rejects the index.
func TestCreateXMLIndexMatchesInsert(t *testing.T) {
	_, early := ordersTable(t)
	_, late := ordersTable(t)
	ei, err := early.CreateXMLIndex("li", "orddoc", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	var values []string
	for i := range 30 {
		src := fmt.Sprintf(`<order><lineitem price="%d"/><lineitem price="%d.5"/><lineitem price="n/a"/></order>`, i%7, i)
		insertOrder(t, early, int64(i), src)
		insertOrder(t, late, int64(i), src)
		values = append(values, fmt.Sprint(i%7), fmt.Sprintf("%d.5", i))
	}
	li, err := late.CreateXMLIndex("li", "orddoc", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := indexView(li.Index, values), indexView(ei.Index, values); got != want {
		t.Fatalf("index built over the rows:\n%s\nper-row index:\n%s", got, want)
	}

	list, err := xmlparse.Parse(`<order><lineitem price="1 2"/></order>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlschema.New("v").DeclareList("@price", xdm.Double).Validate(list); err != nil {
		t.Fatal(err)
	}
	if _, err := late.Insert([]Cell{{V: xdm.NewInteger(99)}, {Doc: list}}); err == nil {
		t.Fatal("list-typed row accepted under an index")
	}
	late.DropIndex("li")
	if _, err := late.Insert([]Cell{{V: xdm.NewInteger(99)}, {Doc: list}}); err != nil {
		t.Fatal(err)
	}
	if _, err := late.CreateXMLIndex("li2", "orddoc", "//lineitem/@price", xmlindex.Double); err == nil || !strings.Contains(err.Error(), "list type") {
		t.Fatalf("index over a list-typed document: err = %v", err)
	}
	if xis := late.XMLIndexes(""); len(xis) != 0 {
		t.Fatalf("rejected index registered: %v", xis)
	}
}

// fuzzIndexes are the indexes FuzzBulkAppendMatchesInsert builds; only
// il can meet a list-typed node.
var fuzzIndexes = []struct {
	name, pattern string
	typ           xmlindex.Type
}{
	{"ib", "//b", xmlindex.Double},
	{"ix", "//@x", xmlindex.Varchar},
	{"ic", "/a/c", xmlindex.Double},
	{"il", "//l", xmlindex.Double},
}

var fuzzValues = []string{"1", "2", "3", "z"}

// fuzzDoc generates a small document; list reports a list-typed /a/l.
func fuzzDoc(r *rand.Rand) (src string, list bool) {
	val := func() string { return fuzzValues[r.IntN(len(fuzzValues))] }
	var b strings.Builder
	b.WriteString("<a>")
	for range r.IntN(4) {
		name := []string{"b", "c"}[r.IntN(2)]
		b.WriteString("<" + name)
		if r.IntN(2) == 0 {
			fmt.Fprintf(&b, ` x="%s"`, val())
		}
		b.WriteString(">")
		switch r.IntN(3) {
		case 0:
			b.WriteString(val())
		case 1:
			fmt.Fprintf(&b, "<b>%s</b>", val())
		}
		b.WriteString("</" + name + ">")
	}
	switch r.IntN(10) {
	case 0:
		b.WriteString("<l>1 2</l>")
		list = true
	case 1:
		b.WriteString("<l>3</l>")
	}
	b.WriteString("</a>")
	return b.String(), list
}

func fuzzParse(t *testing.T, src string, list bool) *xdm.Node {
	doc, err := xmlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if list {
		if err := xmlschema.New("v").DeclareList("/a/l", xdm.Double).Validate(doc); err != nil {
			t.Fatal(err)
		}
	}
	return doc
}

// listErr is an error's text from its index on: "index il: node /a/l
// has a list type", whichever path reported it.
func listErr(err error) string {
	if err == nil {
		return ""
	}
	_, after, _ := strings.Cut(err.Error(), "index ")
	return after
}

// FuzzBulkAppendMatchesInsert: BulkAppend of generated documents, with
// caller runs for a random subset of the indexes and the rest left to
// BulkAppend's own extraction, matches per-row Insert on a twin table:
// the same rows, index entries and synopsis paths; or, when a list-typed
// document makes Insert fail, the same error and nothing changed.
func FuzzBulkAppendMatchesInsert(f *testing.F) {
	f.Add(uint64(1), uint8(8), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(12), uint8(0b1111), uint8(3))
	f.Add(uint64(3), uint8(20), uint8(0b0101), uint8(1))
	f.Add(uint64(7), uint8(30), uint8(0b1000), uint8(0))
	f.Fuzz(func(t *testing.T, seed uint64, nDocs, withRuns, nPre uint8) {
		r := rand.New(rand.NewPCG(seed, 0))
		_, bulk := ordersTable(t)
		_, twin := ordersTable(t)
		var bxi, txi []*XMLIndex
		for _, fi := range fuzzIndexes {
			b, err := bulk.CreateXMLIndex(fi.name, "orddoc", fi.pattern, fi.typ)
			if err != nil {
				t.Fatal(err)
			}
			tw, err := twin.CreateXMLIndex(fi.name, "orddoc", fi.pattern, fi.typ)
			if err != nil {
				t.Fatal(err)
			}
			bxi, txi = append(bxi, b), append(txi, tw)
		}
		// Rows already in both tables, inserted one by one.
		for i := range int(nPre % 4) {
			src, _ := fuzzDoc(r)
			for _, tab := range []*Table{bulk, twin} {
				if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(int64(i))}, {Doc: fuzzParse(t, src, false)}}); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := make([]string, len(bxi))
		for i, xi := range bxi {
			before[i] = indexView(xi.Index, fuzzValues)
		}
		synBefore := fmt.Sprint(bulk.Synopsis("orddoc").Paths())

		n := int(nDocs%32) + 1
		first := bulk.ReserveIDs(n)
		rows := make([]Row, n)
		var insertErr error
		for i := range rows {
			src, list := fuzzDoc(r)
			rows[i] = Row{ID: first + uint32(i), Cells: []Cell{{V: xdm.NewInteger(int64(100 + i))}, {Doc: fuzzParse(t, src, list)}}}
			if insertErr == nil {
				_, err := twin.Insert([]Cell{{V: xdm.NewInteger(int64(100 + i))}, {Doc: fuzzParse(t, src, list)}})
				insertErr = err
			}
		}

		// The caller's runs, extracted as a load does; the first
		// extraction error ends the load as it ends LoadDir.
		runs := map[*xmlindex.Index][][][]byte{}
		var bulkErr error
		for i, xi := range bxi {
			if withRuns&(1<<i) == 0 {
				continue
			}
			e := xi.Index.NewExtractor()
			for _, row := range rows {
				if bulkErr = e.AddDoc(row.ID, row.Cells[1].Doc); bulkErr != nil {
					break
				}
			}
			if bulkErr != nil {
				break
			}
			runs[xi.Index] = [][][]byte{e.Run()}
		}
		if bulkErr == nil {
			bulkErr = bulk.BulkAppend(rows, runs, nil, nil)
		}

		if listErr(bulkErr) != listErr(insertErr) || (bulkErr == nil) != (insertErr == nil) {
			t.Fatalf("bulk error %v, per-row error %v", bulkErr, insertErr)
		}
		if bulkErr != nil {
			for i, xi := range bxi {
				if got := indexView(xi.Index, fuzzValues); got != before[i] {
					t.Fatalf("failed append changed index:\n%s\nwas\n%s", got, before[i])
				}
			}
			if bulk.Len() != int(nPre%4) || fmt.Sprint(bulk.Synopsis("orddoc").Paths()) != synBefore {
				t.Fatalf("failed append left residue: %d rows", bulk.Len())
			}
			return
		}
		brows, trows := bulk.Rows(), twin.Rows()
		if len(brows) != len(trows) {
			t.Fatalf("rows: bulk %d, per-row %d", len(brows), len(trows))
		}
		for i := range brows {
			b, tw := brows[i], trows[i]
			if b.ID != tw.ID || b.Cells[0].V.Lexical() != tw.Cells[0].V.Lexical() || xdm.Serialize(b.Cells[1].Doc) != xdm.Serialize(tw.Cells[1].Doc) {
				t.Fatalf("row %d: bulk %d %s, per-row %d %s", i, b.ID, xdm.Serialize(b.Cells[1].Doc), tw.ID, xdm.Serialize(tw.Cells[1].Doc))
			}
		}
		if b, tw := bulk.Synopsis("orddoc").Dict().Paths(), twin.Synopsis("orddoc").Dict().Paths(); !reflect.DeepEqual(b, tw) {
			t.Fatalf("path dictionaries: bulk %v, per-row %v", b, tw)
		}
		for i := range bxi {
			if b, tw := indexView(bxi[i].Index, fuzzValues), indexView(txi[i].Index, fuzzValues); b != tw {
				t.Fatalf("bulk index:\n%s\nper-row index:\n%s", b, tw)
			}
		}
		if b, tw := fmt.Sprint(bulk.Synopsis("orddoc").Paths()), fmt.Sprint(twin.Synopsis("orddoc").Paths()); b != tw {
			t.Fatalf("synopsis: bulk %s, per-row %s", b, tw)
		}
	})
}
