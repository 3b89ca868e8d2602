package storage

import (
	"errors"
	"fmt"
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
// append (no runs entry) is maintained per row — and unwound on failure.
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

	// Failure after some per-row inserts unwinds them.
	rows2, runs2 := bulkRows(t, tab, 3)
	rows2[2].Cells = rows2[2].Cells[:1]
	if err := tab.BulkAppend(rows2, runs2, nil, nil); err == nil {
		t.Fatal("short row accepted")
	}
	if got := late.Index.Stats().Entries; got != 4 {
		t.Fatalf("late index entries = %d after rollback, want 4", got)
	}

	// A per-row insert rejected mid-document (a list-typed node after an
	// indexable match) leaves neither entries nor a version bump.
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
