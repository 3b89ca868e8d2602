package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// scanFiltered is the reference for CollectionFiltered: a scan of every
// row, testing its id against allowed.
func scanFiltered(tab *Table, ci int, allowed postings.List) []*xdm.Node {
	var docs []*xdm.Node
	for _, row := range tab.Rows() {
		if _, ok := slices.BinarySearch(allowed, row.ID); !ok {
			continue
		}
		if cell := row.Cells[ci]; !cell.Null && cell.Doc != nil {
			docs = append(docs, cell.Doc)
		}
	}
	return docs
}

// orderDoc parses a small order document.
func orderDoc(t *testing.T, i int) *xdm.Node {
	t.Helper()
	doc, err := xmlparse.Parse(fmt.Sprintf(`<order><custid>%d</custid><lineitem price="%d"/></order>`, i, i))
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// orderCell is an XML cell holding an order document, or NULL for one
// row in five.
func orderCell(t *testing.T, rng *rand.Rand, i int) Cell {
	if rng.Intn(5) == 0 {
		return Cell{Null: true}
	}
	return Cell{Doc: orderDoc(t, i)}
}

// TestByIDAccessPreservesRowOrder builds a table whose row order is not
// its id order — ids reserved for a bulk load, then Inserts that take
// later ids but land first, then the load, with deletes in between — and
// checks by-ID access against a full scan for random id subsets that
// include deleted, never-landed and never-issued ids.
func TestByIDAccessPreservesRowOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c, tab := ordersTable(t)
	if _, err := tab.CreateXMLIndex("li_price", "orddoc", "//lineitem/@price", xmlindex.Double); err != nil {
		t.Fatal(err)
	}
	var maxID uint32
	n := 0
	for round := 0; round < 6; round++ {
		reserved := 4 + rng.Intn(12)
		first := tab.ReserveIDs(reserved)
		for k := rng.Intn(4); k >= 0; k-- {
			id, err := tab.Insert([]Cell{{V: xdm.NewInteger(int64(n))}, orderCell(t, rng, n)})
			if err != nil {
				t.Fatal(err)
			}
			maxID = max(maxID, id)
			n++
		}
		// The load leaves the last two reserved ids unused.
		rows := make([]Row, reserved-2)
		for i := range rows {
			rows[i] = Row{ID: first + uint32(i), Cells: []Cell{{V: xdm.NewInteger(int64(n))}, orderCell(t, rng, n)}}
			n++
		}
		if err := tab.BulkAppend(rows, nil, nil, nil); err != nil {
			t.Fatal(err)
		}
		live := tab.Rows()
		for k := rng.Intn(4); k > 0 && len(live) > 0; k-- {
			if err := tab.Delete(live[rng.Intn(len(live))].ID); err != nil && !strings.Contains(err.Error(), "no row") {
				t.Fatal(err)
			}
		}
	}

	live := tab.Rows()
	monotone := true
	for i := 1; i < len(live); i++ {
		if live[i].ID < live[i-1].ID {
			monotone = false
		}
	}
	if monotone {
		t.Fatal("construction left row order equal to id order; the test would prove nothing")
	}

	for trial := 0; trial < 200; trial++ {
		var allowed postings.List
		if trial > 0 {
			allowed = postings.List{}
			p := rng.Float64()
			for id := uint32(0); id <= maxID+3; id++ {
				if rng.Float64() < p {
					allowed = append(allowed, id)
				}
			}
		}
		got, err := c.CollectionFiltered("ORDERS.ORDDOC", allowed)
		if err != nil {
			t.Fatal(err)
		}
		if want := scanFiltered(tab, 1, allowed); !slices.Equal(got, want) {
			t.Fatalf("trial %d: CollectionFiltered = %d docs, scan = %d docs (or a different order)", trial, len(got), len(want))
		}
		var want []Row
		for _, row := range tab.Rows() {
			if _, ok := slices.BinarySearch(allowed, row.ID); ok {
				want = append(want, row)
			}
		}
		gotRows := tab.RowsByID(allowed)
		if len(gotRows) != len(want) {
			t.Fatalf("trial %d: RowsByID = %d rows, want %d", trial, len(gotRows), len(want))
		}
		for i := range want {
			if gotRows[i].ID != want[i].ID {
				t.Fatalf("trial %d: RowsByID[%d] = row %d, want row %d", trial, i, gotRows[i].ID, want[i].ID)
			}
		}
	}
}

// TestDocCountNeverDrifts drives a random mix of every mutation path —
// including the ones that fail — and requires DocCount to equal the
// length of Collection for each XML column after every step.
func TestDocCountNeverDrifts(t *testing.T) {
	defer guard.SetFaultHook(nil)
	rng := rand.New(rand.NewSource(11))
	c := NewCatalog()
	tab, err := c.CreateTable("t", []Column{
		{Name: "k", Type: Integer},
		{Name: "a", Type: XML},
		{Name: "b", Type: XML},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateXMLIndex("sc", "a", "//scores", xmlindex.Double); err != nil {
		t.Fatal(err)
	}
	schema := xmlschema.New("v").DeclareList("scores", xdm.Double)
	check := func(step string) {
		t.Helper()
		for _, col := range []string{"T.A", "t.b"} {
			docs, err := c.Collection(col)
			if err != nil {
				t.Fatal(err)
			}
			n, err := c.DocCount(col)
			if err != nil {
				t.Fatal(err)
			}
			if n != len(docs) {
				t.Fatalf("after %s: DocCount(%s) = %d, Collection has %d", step, col, n, len(docs))
			}
			annotated := slices.ContainsFunc(docs, func(d *xdm.Node) bool { return d.TypeAnn.Valid })
			if got := tab.HasAnnotatedDocs(col[2:]); got != annotated {
				t.Fatalf("after %s: HasAnnotatedDocs(%s) = %v, want %v", step, col, got, annotated)
			}
		}
	}
	row := func(k int) []Cell {
		return []Cell{{V: xdm.NewInteger(int64(k))}, orderCell(t, rng, k), orderCell(t, rng, k)}
	}
	for step := 0; step < 300; step++ {
		var name string
		switch op := rng.Intn(7); op {
		case 0:
			name = "insert"
			if _, err := tab.Insert(row(step)); err != nil {
				t.Fatal(err)
			}
		case 1:
			name = "insert-validated"
			doc := orderDoc(t, step)
			if err := xmlschema.New("v").Validate(doc); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(int64(step))}, {Null: true}, {Doc: doc}}); err != nil {
				t.Fatal(err)
			}
		case 2:
			name = "insert-null"
			if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(int64(step))}, {Null: true}, {Null: true}}); err != nil {
				t.Fatal(err)
			}
		case 3:
			name = "insert-rejected"
			doc, _ := xmlparse.Parse(`<order><scores>1 2</scores></order>`)
			if err := schema.Validate(doc); err != nil {
				t.Fatal(err)
			}
			if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(int64(step))}, {Doc: doc}, {Doc: orderDoc(t, step)}}); err == nil {
				t.Fatal("list-typed document accepted by a double index")
			}
		case 4:
			name = "delete"
			if live := tab.Rows(); len(live) > 0 {
				if err := tab.Delete(live[rng.Intn(len(live))].ID); err != nil {
					t.Fatal(err)
				}
			}
		case 5, 6:
			name = "bulkappend"
			k := 1 + rng.Intn(5)
			first := tab.ReserveIDs(k)
			rows := make([]Row, k)
			for i := range rows {
				rows[i] = Row{ID: first + uint32(i), Cells: row(step)}
			}
			boom := errors.New("injected bulk fault")
			if op == 6 {
				name = "bulkappend-faulted"
				guard.SetFaultHook(func(site string) error {
					if site == "storage.bulkappend:t" {
						return boom
					}
					return nil
				})
			}
			err := tab.BulkAppend(rows, nil, nil, nil)
			guard.SetFaultHook(nil)
			if op == 6 && !errors.Is(err, boom) {
				t.Fatalf("faulted bulk append: err = %v", err)
			}
			if op == 5 && err != nil {
				t.Fatal(err)
			}
		}
		check(name)
	}
	if _, err := c.DocCount("t.k"); err == nil {
		t.Error("DocCount of a non-XML column must fail")
	}
	if _, err := c.DocCount("nodot"); err == nil {
		t.Error("DocCount of a malformed name must fail")
	}
}

// TestCollectionFilteredFiresFaultSite: the filtered accessor honours
// the same storage.collection fault site as Collection.
func TestCollectionFilteredFiresFaultSite(t *testing.T) {
	defer guard.SetFaultHook(nil)
	c, tab := ordersTable(t)
	id := insertOrder(t, tab, 1, `<order/>`)
	boom := errors.New("injected collection fault")
	guard.SetFaultHook(func(site string) error {
		if site == "storage.collection:orders.orddoc" {
			return boom
		}
		return nil
	})
	if _, err := c.CollectionFiltered("ORDERS.ORDDOC", postings.List{id}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the injected fault", err)
	}
	if _, err := c.DocCount("ORDERS.ORDDOC"); err != nil {
		t.Fatalf("DocCount is not a document accessor and must not fire the site: %v", err)
	}
}
