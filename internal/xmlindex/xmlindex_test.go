package xmlindex

import (
	"testing"
	"testing/quick"
	"time"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

func liPrice(t *testing.T) *Index {
	t.Helper()
	return New("li_price", pattern.MustParse("//lineitem/@price"), Double, pattern.NewDict())
}

// pathsOf resolves a query pattern against ix's column dictionary.
func pathsOf(ix *Index, src string) *pattern.PathSet {
	return ix.dict.Match(pattern.MustParse(src))
}

func insert(t *testing.T, ix *Index, docID uint32, src string) *xdm.Node {
	t.Helper()
	doc, err := xmlparse.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDoc(docID, doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func dbl(f float64) *xdm.Value { v := xdm.NewDouble(f); return &v }

// Entry identifies one indexed node.
type Entry struct {
	DocID  uint32
	NodeID uint32
}

// scanEntries is the reference probe: it walks the B+Tree range with a
// plain closure and returns the matching entries in key order plus the
// visited-key count, sharing nothing with probe but the bounds and the
// key layout. It bypasses the guard, the cache and the counters.
func scanEntries(ix *Index, p Probe) ([]Entry, int, error) {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	lo, hi, empty, err := ix.bounds(p.Range)
	if err != nil || empty {
		return nil, 0, err
	}
	var out []Entry
	visited, err := ix.tree.ScanCheck(lo, hi, nil, func(key, _ []byte) bool {
		pathID, docID, nodeID := decodeSuffix(key)
		if p.Paths == nil || p.Paths.Pattern().Match(ix.dict.Paths()[pathID]) {
			out = append(out, Entry{DocID: docID, NodeID: nodeID})
		}
		return true
	})
	return out, visited, err
}

// docSetStats is the map-shaped reference probe these tests (and the
// DocList differential test) assert against: distinct matching doc ids
// derived entry-by-entry from scanEntries, independent of the
// posting-list path. Tests check membership, so the map shape is the
// convenient one.
func docSetStats(ix *Index, p Probe) (map[uint32]bool, int, error) {
	entries, visited, err := scanEntries(ix, p)
	if err != nil {
		return nil, visited, err
	}
	docs := make(map[uint32]bool)
	for _, e := range entries {
		docs[e.DocID] = true
	}
	return docs, visited, nil
}

func docSet(ix *Index, p Probe) (map[uint32]bool, error) {
	docs, _, err := docSetStats(ix, p)
	return docs, err
}

func TestInsertAndRangeScan(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="150"/><lineitem price="80"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="99.50"/></order>`)
	insert(t, ix, 3, `<order><cancel-date>2001-01-01</cancel-date></order>`) // no price at all
	if got := ix.Stats().Entries; got != 3 {
		t.Fatalf("entries = %d, want 3", got)
	}
	docs, err := docSet(ix, Probe{Range: Range{Lo: dbl(100), LoInc: false}})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || !docs[1] {
		t.Fatalf("docs = %v, want {1}", docs)
	}
}

func TestTolerantCastSkips(t *testing.T) {
	// §2.1: "20 USD" does not cast to double; the document still inserts
	// and the non-castable node is simply absent from the index.
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="20 USD"/><lineitem price="30"/></order>`)
	if got := ix.Stats().Entries; got != 1 {
		t.Fatalf("entries = %d, want 1", got)
	}
	// A varchar index on the same data holds both values.
	vix := New("li_price_s", pattern.MustParse("//lineitem/@price"), Varchar, pattern.NewDict())
	insert(t, vix, 1, `<order><lineitem price="20 USD"/><lineitem price="30"/></order>`)
	if got := vix.Stats().Entries; got != 2 {
		t.Fatalf("varchar entries = %d, want 2", got)
	}
}

func TestPostalCodeEvolution(t *testing.T) {
	// §2.1's schema evolution story: numeric and string indexes coexist
	// on the same data; Canadian postal codes never block insertion.
	num := New("zip_d", pattern.MustParse("//zip"), Double, pattern.NewDict())
	str := New("zip_s", pattern.MustParse("//zip"), Varchar, pattern.NewDict())
	for i, z := range []string{"95120", "10014", "K1A 0B1"} {
		doc, err := xmlparse.Parse("<addr><zip>" + z + "</zip></addr>")
		if err != nil {
			t.Fatal(err)
		}
		if err := num.InsertDoc(uint32(i), doc); err != nil {
			t.Fatalf("numeric index rejected document: %v", err)
		}
		if err := str.InsertDoc(uint32(i), doc); err != nil {
			t.Fatal(err)
		}
	}
	if num.Stats().Entries != 2 || str.Stats().Entries != 3 {
		t.Fatalf("entries: num=%d str=%d", num.Stats().Entries, str.Stats().Entries)
	}
	sv := xdm.NewString("K1A 0B1")
	docs, err := docSet(str, Probe{Range: Equality(sv)})
	if err != nil || len(docs) != 1 || !docs[2] {
		t.Fatalf("string probe = %v, %v", docs, err)
	}
}

func TestListTypeRejected(t *testing.T) {
	ix := New("scores", pattern.MustParse("//scores"), Double, pattern.NewDict())
	doc, err := xmlparse.Parse(`<r><scores>1 2 3</scores></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlschema.New("v").DeclareList("scores", xdm.Double).Validate(doc); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDoc(1, doc); err == nil {
		t.Fatal("list-typed node must reject insertion (§3.10 footnote)")
	}
}

// TestRejectedInsertChangesNothing: a list-typed match that follows an
// indexable one rejects the document before any entry is stored.
func TestRejectedInsertChangesNothing(t *testing.T) {
	ix := New("scores", pattern.MustParse("//scores"), Double, pattern.NewDict())
	insert(t, ix, 1, `<r><scores>5</scores></r>`)
	entries, version := ix.Stats().Entries, ix.Version()
	doc, err := xmlparse.Parse(`<r><scores>7</scores><w><scores>1 2 3</scores></w></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlschema.New("v").DeclareList("/r/w/scores", xdm.Double).Validate(doc); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDoc(2, doc); err == nil {
		t.Fatal("list-typed node after an indexable match was accepted")
	}
	if got := ix.Stats().Entries; got != entries || ix.Version() != version {
		t.Fatalf("rejected insert: entries %d -> %d, version %d -> %d", entries, got, version, ix.Version())
	}
	e := ix.NewExtractor()
	if err := e.AddDoc(2, doc); err == nil || len(e.keys) != 0 {
		t.Fatalf("rejected AddDoc: err %v, %d keys extracted", err, len(e.keys))
	}
}

func TestAnnotatedValueIndexed(t *testing.T) {
	// Validation-derived annotations feed the cast: a node typed double
	// indexes by its numeric value.
	ix := liPrice(t)
	doc, err := xmlparse.Parse(`<order><lineitem price="1e2"/></order>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := xmlschema.New("v").Declare("@price", xdm.Double).Validate(doc); err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDoc(1, doc); err != nil {
		t.Fatal(err)
	}
	docs, err := docSet(ix, Probe{Range: Equality(xdm.NewDouble(100))})
	if err != nil || len(docs) != 1 {
		t.Fatalf("1e2 should equal 100 in a double index: %v %v", docs, err)
	}
}

func TestQueryPatternRestriction(t *testing.T) {
	// §2.2: li_price can answer //order/lineitem/@price by applying the
	// extra path restriction per entry.
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="200"/></order>`)
	insert(t, ix, 2, `<quote><lineitem price="300"/></quote>`)
	docs, err := docSet(ix, Probe{Range: Range{Lo: dbl(100)}, Paths: pathsOf(ix, "//order/lineitem/@price")})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || !docs[1] {
		t.Fatalf("docs = %v, want {1}", docs)
	}
	// Without the restriction, both documents qualify.
	all, _ := docSet(ix, Probe{Range: Range{Lo: dbl(100)}})
	if len(all) != 2 {
		t.Fatalf("unrestricted docs = %v", all)
	}
}

func TestStructuralProbe(t *testing.T) {
	// A varchar index answers a pure structural predicate by scanning
	// the full value range (§2.2).
	ix := New("li", pattern.MustParse("//lineitem"), Varchar, pattern.NewDict())
	insert(t, ix, 1, `<order><lineitem>x</lineitem></order>`)
	insert(t, ix, 2, `<order><note>n</note></order>`)
	docs, err := docSet(ix, Probe{})
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) != 1 || !docs[1] {
		t.Fatalf("structural probe docs = %v", docs)
	}
}

func TestDeleteDoc(t *testing.T) {
	ix := liPrice(t)
	doc := insert(t, ix, 1, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="150"/></order>`)
	ix.DeleteDoc(1, doc)
	if got := ix.Stats().Entries; got != 1 {
		t.Fatalf("entries after delete = %d", got)
	}
	docs, _ := docSet(ix, Probe{Range: Equality(xdm.NewDouble(150))})
	if len(docs) != 1 || !docs[2] {
		t.Fatalf("docs = %v", docs)
	}
}

func TestRangeBoundsInclusive(t *testing.T) {
	ix := liPrice(t)
	insert(t, ix, 1, `<order><lineitem price="100"/></order>`)
	insert(t, ix, 2, `<order><lineitem price="150"/></order>`)
	insert(t, ix, 3, `<order><lineitem price="200"/></order>`)
	cases := []struct {
		r    Range
		want int
	}{
		{Range{Lo: dbl(100), LoInc: true, Hi: dbl(200), HiInc: true}, 3},
		{Range{Lo: dbl(100), LoInc: false, Hi: dbl(200), HiInc: false}, 1},
		{Range{Lo: dbl(100), LoInc: false}, 2},
		{Range{Hi: dbl(150), HiInc: true}, 2},
		{Equality(xdm.NewDouble(150)), 1},
		{Equality(xdm.NewDouble(151)), 0},
	}
	for i, c := range cases {
		docs, err := docSet(ix, Probe{Range: c.r})
		if err != nil {
			t.Fatal(err)
		}
		if len(docs) != c.want {
			t.Errorf("case %d: docs = %d, want %d", i, len(docs), c.want)
		}
	}
}

func TestDateIndex(t *testing.T) {
	ix := New("o_date", pattern.MustParse("/order/@date"), Date, pattern.NewDict())
	insert(t, ix, 1, `<order date="2001-01-01"/>`)
	insert(t, ix, 2, `<order date="2002-06-15"/>`)
	insert(t, ix, 3, `<order date="January 1, 2003"/>`) // tolerant skip
	if ix.Stats().Entries != 2 {
		t.Fatalf("entries = %d", ix.Stats().Entries)
	}
	lo := xdm.NewDate(mustDate(t, "2002-01-01"))
	docs, err := docSet(ix, Probe{Range: Range{Lo: &lo, LoInc: true}})
	if err != nil || len(docs) != 1 || !docs[2] {
		t.Fatalf("date probe = %v %v", docs, err)
	}
}

func mustDate(t *testing.T, s string) time.Time {
	t.Helper()
	v, err := xdm.NewString(s).Cast(xdm.Date)
	if err != nil {
		t.Fatal(err)
	}
	return v.M
}

func TestVarcharOrdering(t *testing.T) {
	ix := New("name", pattern.MustParse("//name"), Varchar, pattern.NewDict())
	insert(t, ix, 1, `<p><name>alice</name></p>`)
	insert(t, ix, 2, `<p><name>bob</name></p>`)
	insert(t, ix, 3, `<p><name>carol</name></p>`)
	lo, hi := xdm.NewString("alice"), xdm.NewString("bob")
	docs, err := docSet(ix, Probe{Range: Range{Lo: &lo, LoInc: false, Hi: &hi, HiInc: true}})
	if err != nil || len(docs) != 1 || !docs[2] {
		t.Fatalf("varchar range = %v %v", docs, err)
	}
}

func TestProbeBadBound(t *testing.T) {
	ix := liPrice(t)
	bad := xdm.NewString("not a number")
	if _, err := docSet(ix, Probe{Range: Range{Lo: &bad}}); err == nil {
		t.Fatal("non-castable probe bound must error")
	}
}

func TestFloatEncodingOrderProperty(t *testing.T) {
	f := func(a, b float64) bool {
		ka, kb := encodeFloat(a), encodeFloat(b)
		cmp := 0
		for i := range ka {
			if ka[i] != kb[i] {
				if ka[i] < kb[i] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		switch {
		case a < b:
			return cmp < 0
		case a > b:
			return cmp > 0
		default:
			return cmp == 0
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringEncodingOrderProperty(t *testing.T) {
	f := func(a, b string) bool {
		ka, kb := string(encodeString(a)), string(encodeString(b))
		switch {
		case a < b:
			return ka < kb
		case a > b:
			return ka > kb
		default:
			return ka == kb
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestElementConcatenationIndexed(t *testing.T) {
	// §3.8: the PRICE_TEXT scenario — an element with markup inside
	// indexes as the concatenated string value "99.50USD".
	ix := New("PRICE_TEXT", pattern.MustParse("//price"), Varchar, pattern.NewDict())
	insert(t, ix, 1, `<order><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>`)
	v1 := xdm.NewString("99.50")
	docs, _ := docSet(ix, Probe{Range: Equality(v1)})
	if len(docs) != 0 {
		t.Fatal("99.50 must not match: element value is 99.50USD")
	}
	v2 := xdm.NewString("99.50USD")
	docs, _ = docSet(ix, Probe{Range: Equality(v2)})
	if len(docs) != 1 {
		t.Fatal("99.50USD should match")
	}
}

func TestBroadAttributeIndex(t *testing.T) {
	// §2.1: //@* as double covers a numeric predicate on any attribute.
	ix := New("all_attrs", pattern.MustParse("//@*"), Double, pattern.NewDict())
	insert(t, ix, 1, `<a x="1" y="two"><b z="3"/></a>`)
	if ix.Stats().Entries != 2 {
		t.Fatalf("entries = %d, want 2", ix.Stats().Entries)
	}
	docs, err := docSet(ix, Probe{Range: Equality(xdm.NewDouble(3)), Paths: pathsOf(ix, "//b/@z")})
	if err != nil || len(docs) != 1 {
		t.Fatalf("broad index probe = %v %v", docs, err)
	}
}

func TestCommentAndPIIndexing(t *testing.T) {
	// §2.1: the pattern grammar admits comment() and
	// processing-instruction() kind tests; their string values index as
	// varchar.
	cix := New("comments", pattern.MustParse("//comment()"), Varchar, pattern.NewDict())
	pix := New("pis", pattern.MustParse("//processing-instruction(audit)"), Varchar, pattern.NewDict())
	doc, err := xmlparse.Parse(`<order><!--rush--><?audit checked?><?other x?></order>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := cix.InsertDoc(1, doc); err != nil {
		t.Fatal(err)
	}
	if err := pix.InsertDoc(1, doc); err != nil {
		t.Fatal(err)
	}
	if cix.Stats().Entries != 1 {
		t.Fatalf("comment entries = %d", cix.Stats().Entries)
	}
	if pix.Stats().Entries != 1 {
		t.Fatalf("pi entries = %d (target filter)", pix.Stats().Entries)
	}
	docs, err := docSet(cix, Probe{Range: Equality(xdm.NewString("rush"))})
	if err != nil || len(docs) != 1 {
		t.Fatalf("comment probe: %v %v", docs, err)
	}
}

func TestTextNodeIndexing(t *testing.T) {
	ix := New("pt", pattern.MustParse("//price/text()"), Varchar, pattern.NewDict())
	doc, err := xmlparse.Parse(`<o><price>99.50<currency>USD</currency></price></o>`)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.InsertDoc(1, doc); err != nil {
		t.Fatal(err)
	}
	// Only the first text node of price matches //price/text().
	docs, err := docSet(ix, Probe{Range: Equality(xdm.NewString("99.50"))})
	if err != nil || len(docs) != 1 {
		t.Fatalf("text probe: %v %v", docs, err)
	}
	docs, _ = docSet(ix, Probe{Range: Equality(xdm.NewString("99.50USD"))})
	if len(docs) != 0 {
		t.Fatal("concatenated value must not be in the text() index")
	}
}
