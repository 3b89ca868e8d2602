package xmlparse

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/xqdb/xqdb/internal/xdm"
)

// dumpTree renders every structural fact about a parsed tree — kinds,
// resolved names, text, preorder ordinals, parent links — so two trees
// compare equal exactly when queries cannot tell them apart. TreeIDs
// are process-global counters and deliberately excluded.
func dumpTree(n *xdm.Node) string {
	var b strings.Builder
	var walk func(n *xdm.Node, d int)
	walk = func(n *xdm.Node, d int) {
		fmt.Fprintf(&b, "%*s#%d %s", d*2, "", n.Ordinal, n.Kind)
		if n.Name != (xdm.QName{}) {
			fmt.Fprintf(&b, " %s", n.Name)
		}
		if n.Text != "" {
			fmt.Fprintf(&b, " %q", n.Text)
		}
		if n.Parent != nil {
			fmt.Fprintf(&b, " ^%d", n.Parent.Ordinal)
		}
		b.WriteByte('\n')
		for _, a := range n.Attrs {
			walk(a, d+1)
		}
		for _, c := range n.Children {
			walk(c, d+1)
		}
	}
	walk(n, 0)
	return b.String()
}

// oracleParse is the reference parser, an encoding/xml token loop. It
// shares no scanning code with StreamParser, which is what makes the
// differential tests below meaningful.
func oracleParse(input string, lim Limits) (*xdm.Node, error) {
	if len(input) > lim.bytes() {
		return nil, fmt.Errorf("xml parse: document is %d bytes (max %d): %w", len(input), lim.bytes(), ErrLimit)
	}
	maxDepth := lim.depth()
	dec := xml.NewDecoder(strings.NewReader(input))
	doc := xdm.NewDocument()
	stack := []*xdm.Node{doc}
	for {
		tok, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				break
			}
			return nil, fmt.Errorf("xml parse: %w", err)
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			el := &xdm.Node{
				Kind: xdm.ElementNode,
				Name: xdm.QName{Space: t.Name.Space, Local: t.Name.Local},
			}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || (a.Name.Space == "" && a.Name.Local == "xmlns") {
					continue // namespace declarations are not attribute nodes in XDM
				}
				el.AppendAttr(&xdm.Node{
					Kind: xdm.AttributeNode,
					Name: xdm.QName{Space: a.Name.Space, Local: a.Name.Local},
					Text: a.Value,
				})
			}
			top.AppendChild(el)
			stack = append(stack, el)
			if len(stack)-1 > maxDepth {
				return nil, fmt.Errorf("xml parse: nesting exceeds %d levels: %w", maxDepth, ErrLimit)
			}
		case xml.EndElement:
			if len(stack) == 1 {
				return nil, fmt.Errorf("xml parse: unbalanced end element %s", t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			// Merge with a preceding text node: the decoder splits
			// around entity references, but XDM never has adjacent
			// text siblings.
			if n := len(top.Children); n > 0 && top.Children[n-1].Kind == xdm.TextNode {
				top.Children[n-1].Text += s
				continue
			}
			if top.Kind == xdm.DocumentNode && strings.TrimSpace(s) == "" {
				continue
			}
			top.AppendChild(&xdm.Node{Kind: xdm.TextNode, Text: s})
		case xml.Comment:
			top.AppendChild(&xdm.Node{Kind: xdm.CommentNode, Text: string(t)})
		case xml.ProcInst:
			if t.Target == "xml" {
				continue // the XML declaration is not a PI node
			}
			top.AppendChild(&xdm.Node{
				Kind: xdm.ProcessingInstructionNode,
				Name: xdm.QName{Local: t.Target},
				Text: string(t.Inst),
			})
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("xml parse: %d unclosed elements", len(stack)-1)
	}
	roots := 0
	for _, c := range doc.Children {
		switch c.Kind {
		case xdm.ElementNode:
			roots++
		case xdm.TextNode:
			return nil, fmt.Errorf("xml parse: character data outside the root element")
		}
	}
	if roots != 1 {
		return nil, fmt.Errorf("xml parse: document must have exactly one root element, found %d", roots)
	}
	doc.Renumber()
	return doc, nil
}

// differentialCases is the accept/reject battery: every construct the
// reference parser has an opinion on, well-formed and not.
var differentialCases = []string{
	// Plain structure.
	`<a/>`,
	`<a></a>`,
	`<a b="1"><c>text</c></a>`,
	`<a><b><c><d/></c></b></a>`,
	`<a>text<b/>tail</a>`,
	`<order date="2002-06-24"><custid>847</custid><lineitem price="16.34" quantity="5"><product><id>300</id></product></lineitem></order>`,
	// Attributes.
	`<a b=""/>`,
	`<a b = "1" />`,
	`<a b="1"c="2"/>`,
	`<a b='sq' c="dq"/>`,
	`<a b="1" b="2"/>`,
	`<A B="1"/>`,
	"<a\tb=\"1\"\n/>",
	"<a b=\"x\ny\tz\"/>",
	"<a b=\"x\r\ny\rz\"/>",
	`<a b="x&#10;y&#9;z"/>`,
	`<a b="&lt;&amp;&gt;&quot;&apos;"/>`,
	`<a b="]]>"/>`,
	`<a b="1/>`,
	`<a b=1/>`,
	`<a b/>`,
	`<a b="x<y"/>`,
	`<a -->`,
	// Namespaces.
	`<x xmlns:p="urn:u"><p:y p:z="w"/></x>`,
	`<a xmlns="urn:d"><b/></a>`,
	`<a xmlns="urn:d"><b xmlns=""><c/></b><d/></a>`,
	`<a xmlns:p="u1"><p:b xmlns:p="u2"><p:c/></p:b><p:d/></a>`,
	`<p:a>unbound</p:a>`,
	`<a p:b="1"/>`,
	`<a xml:lang="en"/>`,
	`<xmlns/>`,
	`<a xmlns:P="u"><P:b/></a>`,
	`<a xmlns:p=""/>`,
	`<a:b:c xmlns:a="u"/>`,
	`<:a/>`,
	`<a:/>`,
	// Text, entities, line endings.
	`<a>&lt;&amp;&gt;</a>`,
	`<a>&amp;&apos;&quot;</a>`,
	`<a>&#65;&#x41;&#x1F600;</a>`,
	`<a>&#xD;</a>`,
	`<a>&#32;</a>`,
	`<a>&#0;</a>`,
	`<a>&#1114112;</a>`,
	`<a>&#X41;</a>`,
	`<a>&#x;</a>`,
	`<a>&unknown;</a>`,
	`<a>&;</a>`,
	`<a>&amp</a>`,
	"<a>x\r\ny\rz</a>",
	"<a>\x01</a>",
	"<a>\xff\xfe</a>",
	`<a>x]]&gt;y</a>`,
	`<a>x]]>y</a>`,
	`<a>]]></a>`,
	"<a>caf\u00e9 \u65e5\u672c</a>",
	// Whitespace handling.
	`<a>  </a>`,
	"<a>\n\t<b/>\n</a>",
	"<a> x </a>",
	"\n\n<a/>\n",
	"<a>\u00a0</a>",
	// CDATA.
	`<a><![CDATA[]]></a>`,
	`<a><![CDATA[ ]]></a>`,
	`<a>x<![CDATA[y]]>z</a>`,
	`<a><![CDATA[<not<markup>&amp;]]></a>`,
	`<a><![CDATA[a]]b]]>c]]></a>`,
	`<a><![CDAT[x]]></a>`,
	`<a><![CDATA[x</a>`,
	// Comments and PIs.
	`<!-- c --><a><?pi data?></a><!-- d -->`,
	`<a><!----></a>`,
	`<a><!-- x -- y --></a>`,
	`<!- x -><a/>`,
	`<a><!-- unterminated</a>`,
	`<?pi?>`,
	`<a><?pi?></a>`,
	`<?a:b:c data?><a/>`,
	`<a><?pi unterminated</a>`,
	// XML declaration.
	`<?xml version="1.0"?><a/>`,
	`<?xml version="1.0" encoding="utf-8"?><a/>`,
	`<?xml version="1.0" encoding="UTF-8"?><a/>`,
	`<?xml version="1.1"?><a/>`,
	`<?xml version="1.0" encoding="ISO-8859-1"?><a/>`,
	`<a/><?xml v?>`,
	// Directives.
	`<!DOCTYPE a><a/>`,
	`<!DOCTYPE a SYSTEM "f.dtd"><a/>`,
	`<!DOCTYPE a [<!ELEMENT a EMPTY><!ENTITY e "v">]><a/>`,
	`<!DOCTYPE a [<!-- <ignored> -->]><a/>`,
	`<!DOCTYPE a [<!ENTITY e "quoted > bracket">]><a/>`,
	`<!DOCTYPE a <<>>><a/>`,
	`<!DOCTYPE unterminated <a/>`,
	// Structural errors.
	``,
	` `,
	`x<a/>`,
	"\ufeff<a/>",
	`<a/>x`,
	`<a/><b/>`,
	`</a>`,
	`<a></b>`,
	`<a><b></a></b>`,
	`<a><b/></c>`,
	`<a`,
	`<a>`,
	`<a><b></b>`,
	`<a/ >`,
	`< a/>`,
	`<1a/>`,
	`<a.b-c_d/>`,
	`<a></a b="1">`,
	`<a></a >`,
	`<`,
	`<!`,
	`<a>&`,
	`<a b="`,
}

// TestParseReaderDifferential holds the parser to the oracle's exact
// accept set: both must agree on success, and on success the trees must
// be indistinguishable (same kinds, names, text, ordinals, parentage).
// One StreamParser is reused across the battery, every document also
// goes through the string entry point (a parser sized to the input),
// and is re-parsed through a one-byte-at-a-time reader so buffer refill
// boundaries land inside every token kind.
func TestParseReaderDifferential(t *testing.T) {
	sp := NewStreamParser()
	for _, src := range differentialCases {
		want, werr := oracleParse(src, Limits{})
		got, gerr := sp.Parse(strings.NewReader(src), Limits{})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("accept mismatch on %q:\n  oracle err: %v\n  ParseReader err: %v", src, werr, gerr)
		}
		str, serr := Parse(src)
		if (werr == nil) != (serr == nil) {
			t.Fatalf("accept mismatch on %q:\n  oracle err: %v\n  Parse err: %v", src, werr, serr)
		}
		if werr != nil {
			continue
		}
		if dw, dg := dumpTree(want), dumpTree(got); dw != dg {
			t.Fatalf("tree mismatch on %q:\n--- oracle ---\n%s--- ParseReader ---\n%s", src, dw, dg)
		}
		if dw, ds := dumpTree(want), dumpTree(str); dw != ds {
			t.Fatalf("tree mismatch on %q:\n--- oracle ---\n%s--- Parse ---\n%s", src, dw, ds)
		}
		slow, serr := sp.Parse(iotest.OneByteReader(strings.NewReader(src)), Limits{})
		if serr != nil {
			t.Fatalf("one-byte reader rejected %q: %v", src, serr)
		}
		if dw, ds := dumpTree(want), dumpTree(slow); dw != ds {
			t.Fatalf("one-byte reader tree mismatch on %q:\n%s\nvs\n%s", src, dw, ds)
		}
	}
}

// TestParseReaderByteLimitMidStream proves MaxBytes is enforced while
// streaming: an oversized document aborts with ErrLimit after reading
// only slightly more than the limit, never the whole input.
func TestParseReaderByteLimitMidStream(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<a>")
	for i := 0; i < 1<<16; i++ {
		doc.WriteString("<b>some repeated element content</b>")
	}
	doc.WriteString("</a>")
	src := doc.String()

	cr := &countingReader{r: strings.NewReader(src)}
	_, err := ParseReader(cr, Limits{MaxBytes: 4096})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("oversized stream: err = %v, want ErrLimit", err)
	}
	// 4096-byte limit + one 32KiB read-ahead buffer is the ceiling;
	// reading anywhere near the full input means limits weren't
	// streaming.
	if max := int64(4096 + 64<<10); cr.n > max {
		t.Fatalf("read %d bytes of a %d-byte input; limit enforcement is not incremental", cr.n, len(src))
	}

	// At or under the limit the same document parses.
	small := "<a><b>x</b></a>"
	if _, err := ParseReader(strings.NewReader(small), Limits{MaxBytes: len(small)}); err != nil {
		t.Fatalf("document exactly at MaxBytes rejected: %v", err)
	}
}

func TestParseReaderDepthLimit(t *testing.T) {
	src := strings.Repeat("<a>", 60) + "x" + strings.Repeat("</a>", 60)
	_, err := ParseReader(strings.NewReader(src), Limits{MaxDepth: 50})
	if !errors.Is(err, ErrLimit) {
		t.Fatalf("depth 60 under MaxDepth 50: err = %v, want ErrLimit", err)
	}
	if _, err := ParseReader(strings.NewReader(src), Limits{MaxDepth: 60}); err != nil {
		t.Fatalf("depth 60 under MaxDepth 60 rejected: %v", err)
	}
}

// TestStreamParserReuseIsolation checks documents parsed through one
// reusable parser don't leak state into each other: namespace bindings
// reset, trees get distinct TreeIDs, and an error mid-document leaves
// the parser usable.
func TestStreamParserReuseIsolation(t *testing.T) {
	sp := NewStreamParser()
	a, err := sp.Parse(strings.NewReader(`<a xmlns="urn:one"><b/></a>`), Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sp.Parse(strings.NewReader(`<broken`), Limits{}); err == nil {
		t.Fatal("malformed document accepted")
	}
	b, err := sp.Parse(strings.NewReader(`<a><b/></a>`), Limits{})
	if err != nil {
		t.Fatalf("parse after error: %v", err)
	}
	if a.TreeID == b.TreeID {
		t.Fatal("documents share a TreeID")
	}
	if got := b.Children[0].Children[0].Name.Space; got != "" {
		t.Fatalf("namespace binding leaked across documents: %q", got)
	}
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzParseReaderDifferential fuzzes the equivalence itself: for every
// input the two parsers must agree on acceptance, and accepted inputs
// must build identical trees.
func FuzzParseReaderDifferential(f *testing.F) {
	for _, seed := range differentialCases {
		f.Add(seed)
	}
	f.Add(`<x xmlns:p="urn:u"><p:y p:z="w"/></x>`)
	f.Add(`<a>&lt;&amp;&gt;</a>`)
	f.Fuzz(func(t *testing.T, src string) {
		lim := Limits{MaxDepth: 64, MaxBytes: 1 << 16}
		want, werr := oracleParse(src, lim)
		got, gerr := ParseLimited(src, lim)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("accept mismatch on %q: oracle err=%v ParseLimited err=%v", src, werr, gerr)
		}
		if errors.Is(werr, ErrLimit) != errors.Is(gerr, ErrLimit) {
			t.Fatalf("error kind mismatch on %q: oracle err=%v ParseLimited err=%v", src, werr, gerr)
		}
		if werr != nil {
			return
		}
		if dw, dg := dumpTree(want), dumpTree(got); dw != dg {
			t.Fatalf("tree mismatch on %q:\n%s\nvs\n%s", src, dw, dg)
		}
	})
}
