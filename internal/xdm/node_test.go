package xdm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// buildOrder constructs the paper's example order document:
// <order date="..."><lineitem price="99.50"><name>Dress</name></lineitem></order>
func buildOrder() *Node {
	doc := NewDocument()
	order := &Node{Kind: ElementNode, Name: QName{Local: "order"}}
	order.AppendAttr(&Node{Kind: AttributeNode, Name: QName{Local: "date"}, Text: "2002-01-01"})
	li := &Node{Kind: ElementNode, Name: QName{Local: "lineitem"}}
	li.AppendAttr(&Node{Kind: AttributeNode, Name: QName{Local: "price"}, Text: "99.50"})
	name := &Node{Kind: ElementNode, Name: QName{Local: "name"}}
	name.AppendChild(&Node{Kind: TextNode, Text: "Dress"})
	li.AppendChild(name)
	order.AppendChild(li)
	doc.AppendChild(order)
	doc.Renumber()
	return doc
}

func TestStringValueConcatenation(t *testing.T) {
	// §3.8: <price>99.50<currency>USD</currency></price> has string
	// value "99.50USD", not "99.50".
	price := &Node{Kind: ElementNode, Name: QName{Local: "price"}}
	price.AppendChild(&Node{Kind: TextNode, Text: "99.50"})
	cur := &Node{Kind: ElementNode, Name: QName{Local: "currency"}}
	cur.AppendChild(&Node{Kind: TextNode, Text: "USD"})
	price.AppendChild(cur)
	price.Renumber()
	if got := price.StringValue(); got != "99.50USD" {
		t.Errorf("string value = %q, want 99.50USD", got)
	}
	// The first text child alone is still "99.50".
	if got := price.Children[0].StringValue(); got != "99.50" {
		t.Errorf("text node string value = %q", got)
	}
}

func TestRenumberPreorder(t *testing.T) {
	doc := buildOrder()
	var ords []uint32
	doc.DescendAll(func(n *Node) {
		if n.TreeID != doc.TreeID {
			t.Errorf("node %v has tree %d, want %d", n.Name, n.TreeID, doc.TreeID)
		}
		ords = append(ords, n.Ordinal)
	})
	for i := 1; i < len(ords); i++ {
		if ords[i] <= ords[i-1] {
			t.Fatalf("ordinals not strictly increasing in preorder: %v", ords)
		}
	}
}

func TestNodeIdentityOfCopies(t *testing.T) {
	doc := buildOrder()
	order := doc.Children[0]
	cp := order.Copy()
	if cp.Is(order) {
		t.Error("copy must have distinct identity (§3.6)")
	}
	if cp.TreeID == order.TreeID {
		t.Error("copy must live in a fresh tree")
	}
	if cp.StringValue() != order.StringValue() {
		t.Error("copy must preserve content")
	}
	if len(cp.Attrs) != len(order.Attrs) {
		t.Error("copy must preserve attributes")
	}
	if cp.Attrs[0].TypeAnn.Valid {
		t.Error("copy must strip type annotations")
	}
}

func TestTypedValueUntyped(t *testing.T) {
	doc := buildOrder()
	li := doc.Children[0].Children[0]
	tv, err := li.Attrs[0].TypedValue()
	if err != nil || len(tv) != 1 {
		t.Fatalf("typed value: %v %v", tv, err)
	}
	v := tv[0].(Value)
	if v.T != UntypedAtomic || v.S != "99.50" {
		t.Errorf("attr typed value = %+v", v)
	}
}

func TestTypedValueAnnotated(t *testing.T) {
	n := &Node{Kind: ElementNode, Name: QName{Local: "price"}}
	n.AppendChild(&Node{Kind: TextNode, Text: "99.50"})
	n.TypeAnn = TypeAnnotation{Valid: true, T: Double}
	n.Renumber()
	tv, err := n.TypedValue()
	if err != nil {
		t.Fatal(err)
	}
	if v := tv[0].(Value); v.T != Double || v.F != 99.5 {
		t.Errorf("typed value = %+v", v)
	}
}

func TestTypedValueListType(t *testing.T) {
	n := &Node{Kind: ElementNode, Name: QName{Local: "prices"}}
	n.AppendChild(&Node{Kind: TextNode, Text: "10 20 30"})
	n.TypeAnn = TypeAnnotation{Valid: true, T: Double, IsList: true}
	n.Renumber()
	tv, err := n.TypedValue()
	if err != nil || len(tv) != 3 {
		t.Fatalf("list typed value: %v %v", tv, err)
	}
	if tv[1].(Value).F != 20 {
		t.Errorf("list typed value[1] = %+v", tv[1])
	}
}

func TestPathFromRoot(t *testing.T) {
	doc := buildOrder()
	li := doc.Children[0].Children[0]
	if got := li.PathFromRoot(); got != "/order/lineitem" {
		t.Errorf("path = %q", got)
	}
	if got := li.Attrs[0].PathFromRoot(); got != "/order/lineitem/@price" {
		t.Errorf("attr path = %q", got)
	}
	name := li.Children[0]
	if got := name.Children[0].PathFromRoot(); got != "/order/lineitem/name/text()" {
		t.Errorf("text path = %q", got)
	}
	if got := doc.PathFromRoot(); got != "/" {
		t.Errorf("doc path = %q", got)
	}
}

func TestPathFromRootNamespaced(t *testing.T) {
	doc := NewDocument()
	e := &Node{Kind: ElementNode, Name: QName{Space: "urn:o", Local: "nation"}}
	doc.AppendChild(e)
	doc.Renumber()
	if got := e.PathFromRoot(); got != "/{urn:o}nation" {
		t.Errorf("path = %q", got)
	}
}

func TestSortDocumentOrderDedup(t *testing.T) {
	doc := buildOrder()
	var all []*Node
	doc.DescendAll(func(n *Node) { all = append(all, n) })
	// Shuffle deterministically, duplicate everything, and re-sort.
	r := rand.New(rand.NewSource(7))
	dup := append(append([]*Node{}, all...), all...)
	r.Shuffle(len(dup), func(i, j int) { dup[i], dup[j] = dup[j], dup[i] })
	got := SortDocumentOrder(nodeSeq(dup))
	if len(got) != len(all) {
		t.Fatalf("dedup: got %d nodes, want %d", len(got), len(all))
	}
	for i := range got {
		if !got[i].(*Node).Is(all[i]) {
			t.Fatalf("order mismatch at %d", i)
		}
	}
}

func TestSortDocumentOrderProperty(t *testing.T) {
	doc := buildOrder()
	var all []*Node
	doc.DescendAll(func(n *Node) { all = append(all, n) })
	f := func(picks []uint8) bool {
		var in []*Node
		for _, p := range picks {
			in = append(in, all[int(p)%len(all)])
		}
		out := SortDocumentOrder(nodeSeq(in))
		for i := 1; i < len(out); i++ {
			if !out[i-1].(*Node).Before(out[i].(*Node)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBeforeAcrossTrees(t *testing.T) {
	a := NewDocument()
	b := NewDocument()
	a.Renumber()
	b.Renumber()
	if !a.Before(b) || b.Before(a) {
		t.Error("cross-tree order must be stable by tree id")
	}
}

func TestSerializeRoundTripShape(t *testing.T) {
	doc := buildOrder()
	got := Serialize(doc)
	want := `<order date="2002-01-01"><lineitem price="99.50"><name>Dress</name></lineitem></order>`
	if got != want {
		t.Errorf("serialize = %s", got)
	}
}

func TestSerializeEscaping(t *testing.T) {
	e := &Node{Kind: ElementNode, Name: QName{Local: "t"}}
	e.AppendAttr(&Node{Kind: AttributeNode, Name: QName{Local: "a"}, Text: `<"&>`})
	e.AppendChild(&Node{Kind: TextNode, Text: `a<b & "c"`})
	e.Renumber()
	got := Serialize(e)
	want := `<t a="&lt;&quot;&amp;&gt;">a&lt;b &amp; "c"</t>`
	if got != want {
		t.Errorf("serialize = %s", got)
	}
}

func TestSerializeSequenceSpacing(t *testing.T) {
	seq := Sequence{NewInteger(1), NewInteger(2), &Node{Kind: TextNode, Text: "x"}, NewInteger(3)}
	if got := SerializeSequence(seq); got != "1 2x3" {
		t.Errorf("sequence serialization = %q", got)
	}
}
