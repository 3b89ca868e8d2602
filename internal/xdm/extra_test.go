package xdm

import (
	"math"
	"testing"
	"time"
)

func TestNumberEdgeCases(t *testing.T) {
	if n := NewBoolean(true).Number(); n != 1 {
		t.Errorf("true = %v", n)
	}
	if n := NewBoolean(false).Number(); n != 0 {
		t.Errorf("false = %v", n)
	}
	if n := NewUntyped("1.5").Number(); n != 1.5 {
		t.Errorf("untyped = %v", n)
	}
	if n := NewUntyped("junk").Number(); !math.IsNaN(n) {
		t.Errorf("junk = %v", n)
	}
	if n := NewDecimal(2.5).Number(); n != 2.5 {
		t.Errorf("decimal = %v", n)
	}
}

func TestOpStrings(t *testing.T) {
	pairs := []struct {
		op   CompareOp
		name string
		sym  string
	}{
		{OpEq, "eq", "="}, {OpNe, "ne", "!="}, {OpLt, "lt", "<"},
		{OpLe, "le", "<="}, {OpGt, "gt", ">"}, {OpGe, "ge", ">="},
	}
	for _, p := range pairs {
		if p.op.String() != p.name || p.op.GeneralSymbol() != p.sym {
			t.Errorf("op %v: %s/%s", p.op, p.op.String(), p.op.GeneralSymbol())
		}
	}
}

func TestBooleanValueCompare(t *testing.T) {
	lt, err := ValueCompare(OpLt, NewBoolean(false), NewBoolean(true))
	if err != nil || !lt {
		t.Errorf("false lt true: %v %v", lt, err)
	}
}

func TestKindAndTypeStrings(t *testing.T) {
	if DocumentNode.String() != "document" || AttributeNode.String() != "attribute" {
		t.Error("kind names")
	}
	if Double.String() != "double" || UntypedAtomic.String() != "untypedAtomic" {
		t.Error("type names")
	}
	q := QName{Space: "urn:x", Local: "n"}
	if q.String() != "{urn:x}n" {
		t.Errorf("qname = %s", q)
	}
	if (QName{Local: "n"}).String() != "n" {
		t.Error("bare qname")
	}
}

func TestSerializeCommentAndPI(t *testing.T) {
	e := &Node{Kind: ElementNode, Name: QName{Local: "r"}}
	e.AppendChild(&Node{Kind: CommentNode, Text: "note"})
	e.AppendChild(&Node{Kind: ProcessingInstructionNode, Name: QName{Local: "tgt"}, Text: "data"})
	e.AppendChild(&Node{Kind: ProcessingInstructionNode, Name: QName{Local: "bare"}})
	e.Renumber()
	got := Serialize(e)
	want := `<r><!--note--><?tgt data?><?bare?></r>`
	if got != want {
		t.Errorf("serialize = %s", got)
	}
	// A namespaced element serializes in Clark notation.
	n := &Node{Kind: ElementNode, Name: QName{Space: "urn:x", Local: "e"}}
	n.Renumber()
	if Serialize(n) != "<{urn:x}e/>" {
		t.Errorf("namespaced = %s", Serialize(n))
	}
	// A standalone attribute serializes as name="value".
	a := &Node{Kind: AttributeNode, Name: QName{Local: "id"}, Text: "7"}
	a.Renumber()
	if Serialize(a) != `id="7"` {
		t.Errorf("attr = %s", Serialize(a))
	}
}

func TestDescendVisitsInOrder(t *testing.T) {
	doc := buildOrder()
	var names []string
	doc.Descend(func(n *Node) {
		if n.Kind == ElementNode {
			names = append(names, n.Name.Local)
		}
	})
	want := []string{"order", "lineitem", "name"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v", names)
		}
	}
}

func TestItemStringForms(t *testing.T) {
	doc := buildOrder()
	if doc.ItemString() != "Dress" {
		t.Errorf("doc item string = %q", doc.ItemString())
	}
	if NewInteger(5).ItemString() != "5" {
		t.Error("value item string")
	}
}

func TestCastDateTimeWithZone(t *testing.T) {
	v, err := NewString("2006-09-12T10:00:00+02:00").Cast(DateTime)
	if err != nil {
		t.Fatal(err)
	}
	if v.M.UTC().Hour() != 8 {
		t.Errorf("zone conversion: %v", v.M)
	}
	if _, err := NewDateTime(time.Now()).Cast(Boolean); err == nil {
		t.Error("dateTime to boolean must fail")
	}
}

func TestSQLCompareDates(t *testing.T) {
	a, _ := NewString("2001-01-01").Cast(Date)
	b, _ := NewString("2002-01-01").Cast(Date)
	lt, err := SQLCompare(OpLt, a, b)
	if err != nil || !lt {
		t.Errorf("sql date compare: %v %v", lt, err)
	}
}
