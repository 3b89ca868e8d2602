package xmlparse

import (
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
)

func mustParse(t *testing.T, s string) *xdm.Node {
	t.Helper()
	doc, err := Parse(s)
	if err != nil {
		t.Fatalf("Parse(%q): %v", s, err)
	}
	return doc
}

func TestParseSimpleOrder(t *testing.T) {
	doc := mustParse(t, `<order date="2001-01-01"><lineitem price="99.50"><name>Dress</name></lineitem></order>`)
	order := doc.Children[0]
	if order.Kind != xdm.ElementNode || order.Name.Local != "order" {
		t.Fatalf("root = %v", order.Name)
	}
	if len(order.Attrs) != 1 || order.Attrs[0].Text != "2001-01-01" {
		t.Fatalf("attrs = %v", order.Attrs)
	}
	li := order.Children[0]
	if li.Name.Local != "lineitem" || li.Attrs[0].Name.Local != "price" {
		t.Fatalf("lineitem = %v", li)
	}
	if got := li.Children[0].StringValue(); got != "Dress" {
		t.Errorf("name = %q", got)
	}
}

func TestParseNamespaces(t *testing.T) {
	doc := mustParse(t, `<order xmlns="http://ournamespaces.com/order" xmlns:c="http://ournamespaces.com/customer">
		<custid>7</custid><c:nation>1</c:nation>
	</order>`)
	order := doc.Children[0]
	if order.Name.Space != "http://ournamespaces.com/order" {
		t.Errorf("default ns = %q", order.Name.Space)
	}
	custid := order.Children[0]
	if custid.Name.Space != "http://ournamespaces.com/order" || custid.Name.Local != "custid" {
		t.Errorf("custid = %v", custid.Name)
	}
	nation := order.Children[1]
	if nation.Name.Space != "http://ournamespaces.com/customer" || nation.Name.Local != "nation" {
		t.Errorf("nation = %v", nation.Name)
	}
}

func TestParseAttributesHaveNoDefaultNamespace(t *testing.T) {
	// §3.7: default namespaces do not apply to attributes.
	doc := mustParse(t, `<order xmlns="urn:o"><lineitem price="5"/></order>`)
	li := doc.Children[0].Children[0]
	if li.Name.Space != "urn:o" {
		t.Errorf("element ns = %q", li.Name.Space)
	}
	if li.Attrs[0].Name.Space != "" {
		t.Errorf("attribute ns = %q, want empty", li.Attrs[0].Name.Space)
	}
}

func TestParseXmlnsNotAnAttribute(t *testing.T) {
	doc := mustParse(t, `<a xmlns="urn:x" xmlns:p="urn:y" id="1"/>`)
	a := doc.Children[0]
	if len(a.Attrs) != 1 || a.Attrs[0].Name.Local != "id" {
		t.Errorf("attrs = %v", a.Attrs)
	}
}

func TestParseMultipleTextChildren(t *testing.T) {
	// §3.8: price has two text nodes split by an element; string value
	// concatenates but the first text node is "99.50".
	doc := mustParse(t, `<order><lineitem><price>99.50<currency>USD</currency></price></lineitem></order>`)
	price := doc.Children[0].Children[0].Children[0]
	if got := price.StringValue(); got != "99.50USD" {
		t.Errorf("string value = %q", got)
	}
	if price.Children[0].Kind != xdm.TextNode || price.Children[0].Text != "99.50" {
		t.Errorf("first text = %v", price.Children[0])
	}
}

func TestParseCommentAndPI(t *testing.T) {
	doc := mustParse(t, `<?xml version="1.0"?><a><!--note--><?target data?><b/></a>`)
	a := doc.Children[0]
	if len(a.Children) != 3 {
		t.Fatalf("children = %d", len(a.Children))
	}
	if a.Children[0].Kind != xdm.CommentNode || a.Children[0].Text != "note" {
		t.Errorf("comment = %v", a.Children[0])
	}
	pi := a.Children[1]
	if pi.Kind != xdm.ProcessingInstructionNode || pi.Name.Local != "target" || pi.Text != "data" {
		t.Errorf("pi = %v", pi)
	}
}

func TestParseEntityMerging(t *testing.T) {
	doc := mustParse(t, `<a>x &amp; y</a>`)
	a := doc.Children[0]
	if len(a.Children) != 1 || a.Children[0].Text != "x & y" {
		t.Errorf("entity text = %v", a.Children[0])
	}
}

func TestParseWhitespaceHandling(t *testing.T) {
	src := `<a>
	<b>x</b>
</a>`
	doc := mustParse(t, src)
	if n := len(doc.Children[0].Children); n != 1 {
		t.Errorf("stripped parse children = %d, want 1", n)
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{"", "<a>", "<a></b>", "plain text", "<a/><b/>..."} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseRenumbered(t *testing.T) {
	doc := mustParse(t, `<a><b/><c/></a>`)
	if doc.TreeID == 0 {
		t.Error("tree id not assigned")
	}
	b, c := doc.Children[0].Children[0], doc.Children[0].Children[1]
	if !b.Before(c) {
		t.Error("document order broken")
	}
}

func TestParseSerializeRoundTrip(t *testing.T) {
	cases := []string{
		`<order date="2001-01-01"><lineitem price="99.50"><name>Dress</name></lineitem></order>`,
		`<a><b>x</b><b>y</b></a>`,
		`<p>99.50<c>USD</c></p>`,
	}
	for _, src := range cases {
		doc := mustParse(t, src)
		if got := xdm.Serialize(doc); got != src {
			t.Errorf("round trip:\n in  %s\n out %s", src, got)
		}
	}
}

func TestParseLargeFanout(t *testing.T) {
	var b strings.Builder
	b.WriteString("<r>")
	for i := 0; i < 1000; i++ {
		b.WriteString("<x/>")
	}
	b.WriteString("</r>")
	doc := mustParse(t, b.String())
	if len(doc.Children[0].Children) != 1000 {
		t.Error("fanout lost")
	}
}
