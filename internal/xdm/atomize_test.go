package xdm

import (
	"fmt"
	"testing"
)

// nodeSeq boxes nodes as a sequence.
func nodeSeq(nodes []*Node) Sequence {
	seq := make(Sequence, len(nodes))
	for i, n := range nodes {
		seq[i] = n
	}
	return seq
}

// textElem builds an element with the given text children and annotation.
func textElem(name string, ann TypeAnnotation, texts ...string) *Node {
	n := &Node{Kind: ElementNode, Name: QName{Local: name}, TypeAnn: ann}
	for _, s := range texts {
		n.AppendChild(&Node{Kind: TextNode, Text: s})
	}
	n.Renumber()
	return n
}

// TestAppendAtomsMatchesAtomize checks the unboxed atomizer against the
// boxed entry points, Atomize and TypedValue: the same values in the same
// order, and the same error text.
func TestAppendAtomsMatchesAtomize(t *testing.T) {
	untyped := textElem("price", TypeAnnotation{}, "99.50")
	multiText := textElem("price", TypeAnnotation{}, "99.50", "USD")
	nested := &Node{Kind: ElementNode, Name: QName{Local: "order"}}
	nested.AppendChild(&Node{Kind: TextNode, Text: "a"})
	nested.AppendChild(textElem("b", TypeAnnotation{}, "b"))
	nested.AppendChild(&Node{Kind: CommentNode, Text: "skip"})
	nested.AppendChild(&Node{Kind: TextNode, Text: "c"})
	nested.Renumber()
	attr := &Node{Kind: AttributeNode, Name: QName{Local: "p"}, Text: "7"}
	typedAttr := &Node{Kind: AttributeNode, Name: QName{Local: "q"}, Text: "3", TypeAnn: TypeAnnotation{Valid: true, T: Integer}}
	annotated := textElem("price", TypeAnnotation{Valid: true, T: Double}, "12.5")
	badCast := textElem("price", TypeAnnotation{Valid: true, T: Double}, "cheap")
	list := textElem("prices", TypeAnnotation{Valid: true, T: Double, IsList: true}, " 10 20\t30 ")
	badList := textElem("prices", TypeAnnotation{Valid: true, T: Double, IsList: true}, "10 abc 30")
	emptyList := textElem("prices", TypeAnnotation{Valid: true, T: Double, IsList: true})

	cases := []struct {
		name string
		seq  Sequence
	}{
		{"empty", nil},
		{"unannotated element", Sequence{untyped}},
		{"several text children", Sequence{multiText}},
		{"nested element", Sequence{nested}},
		{"unannotated attribute", Sequence{attr}},
		{"annotated attribute", Sequence{typedAttr}},
		{"annotated element", Sequence{annotated}},
		{"failed cast", Sequence{badCast}},
		{"list type", Sequence{list}},
		{"list type with failed cast", Sequence{badList}},
		{"empty list", Sequence{emptyList}},
		{"values only", Sequence{NewInteger(1), NewString("x")}},
		{"mixed", Sequence{NewInteger(1), untyped, list, NewString("x"), attr, annotated}},
		{"mixed, error after values", Sequence{NewInteger(1), list, badList, untyped}},
	}
	render := func(vals []Value, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		s := ""
		for _, v := range vals {
			s += fmt.Sprintf("%s(%q) ", v.T, v.S)
		}
		return s
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := render(AppendAtoms(nil, tc.seq))
			boxed, err := Atomize(tc.seq)
			var vals []Value
			for _, it := range boxed {
				vals = append(vals, it.(Value))
			}
			if want := render(vals, err); got != want {
				t.Fatalf("AppendAtoms = %s\nAtomize     = %s", got, want)
			}
			// A stack buffer that is too small grows like any slice.
			var buf [1]Value
			if small := render(AppendAtoms(buf[:0], tc.seq)); small != got {
				t.Fatalf("AppendAtoms into a one-value buffer = %s, want %s", small, got)
			}
			// TypedValue item by item gives the same atoms.
			var tv []Value
			var tvErr error
			for _, it := range tc.seq {
				n, ok := it.(*Node)
				if !ok {
					tv = append(tv, it.(Value))
					continue
				}
				s, err := n.TypedValue()
				if err != nil {
					tvErr = err
					break
				}
				for _, x := range s {
					tv = append(tv, x.(Value))
				}
			}
			if tvErr != nil {
				tv = nil
			}
			if want := render(tv, tvErr); got != want {
				t.Fatalf("AppendAtoms = %s\nTypedValue  = %s", got, want)
			}
		})
	}
}

// TestAtomizeAllocs pins the allocations of the boxed entry points on an
// unannotated element, the common node in every comparison, at the counts
// they had before they were rebuilt over AppendAtoms (TypedValue 3, Atomize
// 4), and checks that a general comparison of singletons allocates
// nothing. (A numeric comparison still pays for the cast, whose xs:double
// formats its lexical form.)
func TestAtomizeAllocs(t *testing.T) {
	li := textElem("price", TypeAnnotation{}, "99.50")
	deep := &Node{Kind: ElementNode, Name: QName{Local: "order"}}
	deep.AppendChild(&Node{Kind: TextNode, Text: "a"})
	deep.AppendChild(textElem("b", TypeAnnotation{}, "b"))
	deep.Renumber()
	one, str := Sequence{li}, Sequence{NewString("99.50")}
	for _, tc := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"TypedValue", 3, func() { _, _ = li.TypedValue() }},
		{"TypedValue of nested text", 3, func() { _, _ = deep.TypedValue() }},
		{"Atomize", 4, func() { _, _ = Atomize(one) }},
		{"GeneralCompare", 0, func() { _, _ = GeneralCompare(OpEq, one, str) }},
	} {
		if got := testing.AllocsPerRun(100, tc.f); got > tc.max {
			t.Errorf("%s: %v allocs per run, want <= %v", tc.name, got, tc.max)
		}
	}
}

// TestStringValueLoneText checks the lone-text-child shortcut against the
// walk.
func TestStringValueLoneText(t *testing.T) {
	for _, tc := range []struct {
		n    *Node
		want string
	}{
		{textElem("a", TypeAnnotation{}, "x"), "x"},
		{textElem("a", TypeAnnotation{}), ""},
		{textElem("a", TypeAnnotation{}, "x", "y"), "xy"},
	} {
		if got := tc.n.StringValue(); got != tc.want {
			t.Errorf("StringValue = %q, want %q", got, tc.want)
		}
	}
	doc := NewDocument()
	doc.AppendChild(textElem("a", TypeAnnotation{}, "x"))
	if got := doc.StringValue(); got != "x" {
		t.Errorf("document StringValue = %q, want x", got)
	}
}
