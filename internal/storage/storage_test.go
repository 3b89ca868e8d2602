package storage

import (
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

func ordersTable(t *testing.T) (*Catalog, *Table) {
	t.Helper()
	c := NewCatalog()
	tab, err := c.CreateTable("orders", []Column{
		{Name: "ordid", Type: Integer},
		{Name: "orddoc", Type: XML},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, tab
}

func insertOrder(t *testing.T, tab *Table, id int64, doc string) uint32 {
	t.Helper()
	rid, err := tab.Insert([]Cell{
		{V: xdm.NewInteger(id)},
		{V: xdm.NewString(doc)},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rid
}

func TestInsertParsesXML(t *testing.T) {
	_, tab := ordersTable(t)
	id := insertOrder(t, tab, 1, `<order><lineitem price="5"/></order>`)
	row, ok := tab.RowByID(id)
	if !ok || row.Cells[1].Doc == nil {
		t.Fatal("XML cell not parsed")
	}
	if row.Cells[1].Doc.Kind != xdm.DocumentNode {
		t.Error("XML cell should hold a document node")
	}
	if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(2)}, {V: xdm.NewString("<broken")}}); err == nil {
		t.Error("malformed XML must be rejected")
	}
}

func TestTypeCoercionAndVarcharLimit(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("products", []Column{
		{Name: "id", Type: Varchar, Size: 13},
		{Name: "name", Type: Varchar, Size: 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Cell{{V: xdm.NewString("0123456789")}, {V: xdm.NewString("ok")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Cell{{V: xdm.NewString("01234567890123")}, {V: xdm.NewString("too long id")}}); err == nil {
		t.Error("varchar(13) overflow must be rejected")
	}
	tab2, _ := c.CreateTable("nums", []Column{{Name: "x", Type: Integer}})
	if _, err := tab2.Insert([]Cell{{V: xdm.NewString("12")}}); err != nil {
		t.Errorf("castable string into integer column: %v", err)
	}
	if _, err := tab2.Insert([]Cell{{V: xdm.NewString("abc")}}); err == nil {
		t.Error("non-numeric string into integer column must fail")
	}
}

func TestXMLIndexMaintenance(t *testing.T) {
	_, tab := ordersTable(t)
	insertOrder(t, tab, 1, `<order><lineitem price="150"/></order>`)
	xi, err := tab.CreateXMLIndex("li_price", "orddoc", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	if xi.Index.Stats().Entries != 1 {
		t.Fatal("index not built over existing rows")
	}
	id2 := insertOrder(t, tab, 2, `<order><lineitem price="80"/></order>`)
	if xi.Index.Stats().Entries != 2 {
		t.Fatal("insert did not maintain index")
	}
	if err := tab.Delete(id2); err != nil {
		t.Fatal(err)
	}
	if xi.Index.Stats().Entries != 1 {
		t.Fatal("delete did not maintain index")
	}
	if tab.Len() != 1 {
		t.Fatalf("len = %d", tab.Len())
	}
}

func TestListTypeRejectsInsert(t *testing.T) {
	_, tab := ordersTable(t)
	xi, err := tab.CreateXMLIndex("sc", "orddoc", "//scores", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := xmlparse.Parse(`<order><scores>1 2</scores></order>`)
	if err := xmlschema.New("v").DeclareList("scores", xdm.Double).Validate(doc); err != nil {
		t.Fatal(err)
	}
	_, err = tab.Insert([]Cell{{V: xdm.NewInteger(1)}, {Doc: doc}})
	if err == nil || !strings.Contains(err.Error(), "list type") {
		t.Fatalf("err = %v", err)
	}
	if tab.Len() != 0 {
		t.Error("rejected insert must not leave a row")
	}

	// The list-typed node follows an indexable match: the rejection must
	// not leave that earlier entry behind.
	mixed, _ := xmlparse.Parse(`<order><scores>7</scores><w><scores>1 2 3</scores></w></order>`)
	if err := xmlschema.New("v").DeclareList("/order/w/scores", xdm.Double).Validate(mixed); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(2)}, {Doc: mixed}}); err == nil {
		t.Fatal("list-typed node after an indexable match was accepted")
	}
	if got := xi.Index.Stats().Entries; got != 0 {
		t.Fatalf("rejected inserts left %d index entries", got)
	}

	// A rejected insert does not consume its row id, so the next row
	// reuses it: the index must answer exactly what a scan of the rows does.
	insertOrder(t, tab, 3, `<order><scores>1</scores></order>`)
	nodes, _, _, err := xi.Index.NodeList(xmlindex.Probe{Range: xmlindex.Equality(xdm.NewDouble(7))})
	if err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for _, row := range tab.Rows() {
		row.Cells[1].Doc.DescendAll(func(n *xdm.Node) {
			if n.Name.Local == "scores" && n.StringValue() == "7" {
				scanned++
			}
		})
	}
	if len(nodes) != scanned {
		t.Fatalf("index answers %d nodes with value 7, a scan finds %d", len(nodes), scanned)
	}
}

func TestRelIndexLookup(t *testing.T) {
	c := NewCatalog()
	tab, _ := c.CreateTable("products", []Column{
		{Name: "id", Type: Varchar, Size: 13},
		{Name: "name", Type: Varchar, Size: 32},
	})
	ri, err := tab.CreateRelIndex("p_id", "id")
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := tab.Insert([]Cell{{V: xdm.NewString("17")}, {V: xdm.NewString("widget")}})
	tab.Insert([]Cell{{V: xdm.NewString("18")}, {V: xdm.NewString("gadget")}})
	ids, err := ri.Lookup(xdm.NewString("17"))
	if err != nil || len(ids) != 1 || ids[0] != r1 {
		t.Fatalf("lookup = %v %v", ids, err)
	}
	// SQL semantics: trailing blanks insignificant.
	ids, err = ri.Lookup(xdm.NewString("17  "))
	if err != nil || len(ids) != 1 {
		t.Fatalf("padded lookup = %v %v", ids, err)
	}
	ids, _ = ri.Lookup(xdm.NewString("99"))
	if len(ids) != 0 {
		t.Fatal("missing key should be empty")
	}
}

func TestRelIndexOnXMLColumnRejected(t *testing.T) {
	_, tab := ordersTable(t)
	if _, err := tab.CreateRelIndex("bad", "orddoc"); err == nil {
		t.Error("relational index on XML column must be rejected")
	}
}

func TestCatalogBasics(t *testing.T) {
	c, _ := ordersTable(t)
	if _, err := c.CreateTable("ORDERS", nil); err == nil {
		t.Error("duplicate table (case-insensitive) must fail")
	}
	tab, err := c.Table("OrDeRs")
	if err != nil || tab.Name != "orders" {
		t.Fatalf("case-insensitive lookup: %v %v", tab, err)
	}
	if err := c.DropTable("orders"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("orders"); err == nil {
		t.Error("dropped table still resolvable")
	}
	if err := c.DropTable("orders"); err == nil {
		t.Error("double drop must fail")
	}
}

func TestNullCells(t *testing.T) {
	_, tab := ordersTable(t)
	id, err := tab.Insert([]Cell{{V: xdm.NewInteger(1)}, {Null: true}})
	if err != nil {
		t.Fatal(err)
	}
	row, _ := tab.RowByID(id)
	if !row.Cells[1].Null {
		t.Error("null lost")
	}
	// Null XML cells do not touch indexes.
	xi, _ := tab.CreateXMLIndex("ix", "orddoc", "//x", xmlindex.Varchar)
	if xi.Index.Stats().Entries != 0 {
		t.Error("null cell produced index entries")
	}
}

func TestDuplicateIndexName(t *testing.T) {
	_, tab := ordersTable(t)
	if _, err := tab.CreateXMLIndex("a", "orddoc", "//x", xmlindex.Varchar); err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateXMLIndex("A", "orddoc", "//y", xmlindex.Varchar); err == nil {
		t.Error("duplicate index name must fail")
	}
}
