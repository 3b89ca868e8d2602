package xdm

import (
	"strings"
	"sync/atomic"
)

// NodeKind enumerates the six XDM node kinds.
type NodeKind uint8

// Node kinds.
const (
	DocumentNode NodeKind = iota
	ElementNode
	AttributeNode
	TextNode
	CommentNode
	ProcessingInstructionNode
)

var kindNames = [...]string{
	DocumentNode:              "document",
	ElementNode:               "element",
	AttributeNode:             "attribute",
	TextNode:                  "text",
	CommentNode:               "comment",
	ProcessingInstructionNode: "processing-instruction",
}

func (k NodeKind) String() string { return kindNames[k] }

// QName is an expanded qualified name: a namespace URI plus a local name.
// Prefixes are resolved away at parse time.
type QName struct {
	Space string
	Local string
}

func (q QName) String() string {
	if q.Space == "" {
		return q.Local
	}
	return "{" + q.Space + "}" + q.Local
}

// treeCounter issues tree identifiers. Every parsed document and every
// constructed element root draws a fresh identifier, which is what makes
// node identity (`is`), deduplication and `except` behave per §3.6: a
// constructed copy is never identical to its source.
var treeCounter atomic.Uint64

// NextTreeID returns a fresh tree identifier.
func NextTreeID() uint64 { return treeCounter.Add(1) }

// Node is a node in an XDM tree. Identity is (TreeID, Ordinal); Ordinal is
// the preorder position within the tree, so document order within one tree
// is ordinal order, and nodes from different trees order by TreeID
// (XQuery leaves cross-tree order implementation-defined but stable).
type Node struct {
	Kind     NodeKind
	Name     QName  // element and attribute names; PI target in Local
	Text     string // text/comment/PI content and attribute values
	TreeID   uint64
	Ordinal  uint32
	Parent   *Node
	Children []*Node // document and element content children, in order
	Attrs    []*Node // element attributes

	// TypeAnn is the type annotation assigned by schema validation.
	// The zero value means "unannotated": untyped for elements,
	// untypedAtomic for attributes.
	TypeAnn TypeAnnotation
}

// TypeAnnotation records the outcome of validation for a node. IsList
// models XML Schema list types, whose typed value atomizes to multiple
// items (§3.10 notes indexes must reject them).
type TypeAnnotation struct {
	Valid  bool
	T      Type
	IsList bool
}

func (*Node) isItem() {}

// ItemString implements Item.
func (n *Node) ItemString() string { return n.StringValue() }

// NewDocument returns an empty document node with a fresh tree identity.
func NewDocument() *Node {
	return &Node{Kind: DocumentNode, TreeID: NextTreeID()}
}

// AppendChild links c (and its subtree) under n. The child keeps its own
// ordinals; call Renumber on the root once a tree is fully built.
func (n *Node) AppendChild(c *Node) {
	c.Parent = n
	n.Children = append(n.Children, c)
}

// AppendAttr links attribute a to element n.
func (n *Node) AppendAttr(a *Node) {
	a.Parent = n
	n.Attrs = append(n.Attrs, a)
}

// Renumber assigns the root's TreeID and preorder ordinals to every node
// of the subtree rooted at n. Attributes are numbered after their owner
// element and before its children, which yields the document order XPath
// requires.
func (n *Node) Renumber() {
	if n.TreeID == 0 {
		n.TreeID = NextTreeID()
	}
	ord := uint32(0)
	var walk func(*Node)
	walk = func(m *Node) {
		m.TreeID = n.TreeID
		m.Ordinal = ord
		ord++
		for _, a := range m.Attrs {
			a.TreeID = n.TreeID
			a.Ordinal = ord
			ord++
		}
		for _, c := range m.Children {
			walk(c)
		}
	}
	walk(n)
}

// SetTree stamps id as the TreeID of every node in the subtree rooted at
// n, attributes included; ordinals are untouched. Parallel bulk loads use
// it to re-issue tree identities in file order after parsing, since
// cross-tree document order is (TreeID, Ordinal) and parse-time ids land
// in worker-scheduling order.
func (n *Node) SetTree(id uint64) {
	n.TreeID = id
	for _, a := range n.Attrs {
		a.TreeID = id
	}
	for _, c := range n.Children {
		c.SetTree(id)
	}
}

// Root returns the root of n's tree (a document node for parsed documents,
// an element node for constructed fragments).
func (n *Node) Root() *Node {
	r := n
	for r.Parent != nil {
		r = r.Parent
	}
	return r
}

// StringValue returns the XDM string value: for elements and documents the
// concatenation of all descendant text nodes, for other kinds the node
// content. The paper's §3.8 pitfall (an element with several text children
// indexing as "99.50USD") falls directly out of this definition. An element
// whose only child is a text node returns that text without copying it.
func (n *Node) StringValue() string {
	switch n.Kind {
	case ElementNode, DocumentNode:
		if len(n.Children) == 1 && n.Children[0].Kind == TextNode {
			return n.Children[0].Text
		}
		var b strings.Builder
		n.writeText(&b)
		return b.String()
	default:
		return n.Text
	}
}

// writeText writes the text of every descendant text node of n in
// document order.
func (n *Node) writeText(b *strings.Builder) {
	for _, c := range n.Children {
		if c.Kind == TextNode {
			b.WriteString(c.Text)
		} else {
			c.writeText(b)
		}
	}
}

// TypedValue returns the typed value of the node as a sequence of atomic
// values. Unannotated elements and attributes atomize to untypedAtomic;
// annotated nodes atomize to their declared type; list types atomize to
// one value per whitespace-separated token. It boxes what appendTypedValue
// produces.
func (n *Node) TypedValue() (Sequence, error) {
	if !n.TypeAnn.Valid {
		return Sequence{NewUntyped(n.StringValue())}, nil
	}
	var buf [1]Value
	vals, err := n.appendTypedValue(buf[:0])
	if err != nil {
		return nil, err
	}
	return appendBoxed(make(Sequence, 0, len(vals)), vals), nil
}

// appendTypedValue appends the typed value of the node to dst. It is the
// one atomizer of nodes: AppendAtoms calls it for every node, TypedValue
// and Atomize for annotated ones (an unannotated node is one
// untypedAtomic value, which they box directly).
func (n *Node) appendTypedValue(dst []Value) ([]Value, error) {
	sv := n.StringValue()
	ann := n.TypeAnn
	if !ann.Valid {
		return append(dst, NewUntyped(sv)), nil
	}
	if ann.IsList {
		for _, tok := range strings.Fields(sv) {
			v, err := NewUntyped(tok).Cast(ann.T)
			if err != nil {
				return nil, err
			}
			dst = append(dst, v)
		}
		return dst, nil
	}
	v, err := NewUntyped(sv).Cast(ann.T)
	if err != nil {
		return nil, err
	}
	return append(dst, v), nil
}

// Is reports node identity (the XQuery `is` operator).
func (n *Node) Is(m *Node) bool {
	return n.TreeID == m.TreeID && n.Ordinal == m.Ordinal
}

// Before reports whether n precedes m in document order. Nodes of
// different trees order by TreeID, which is stable within a process.
func (n *Node) Before(m *Node) bool {
	if n.TreeID != m.TreeID {
		return n.TreeID < m.TreeID
	}
	return n.Ordinal < m.Ordinal
}

// Descend visits n and all its descendants in document order, calling f
// for each (attributes are not visited; use DescendAll for those).
func (n *Node) Descend(f func(*Node)) {
	f(n)
	for _, c := range n.Children {
		c.Descend(f)
	}
}

// DescendAll visits n, its attributes, and all descendants with their
// attributes, in document order.
func (n *Node) DescendAll(f func(*Node)) {
	f(n)
	for _, a := range n.Attrs {
		f(a)
	}
	for _, c := range n.Children {
		c.DescendAll(f)
	}
}

// Copy returns a deep copy of the subtree rooted at n with a fresh tree
// identity and, per the XQuery construction rules with construction mode
// "strip", type annotations erased. This is the copy applied to content
// sequences of constructors (§3.6).
func (n *Node) Copy() *Node {
	c := n.copyRec()
	c.Renumber()
	return c
}

func (n *Node) copyRec() *Node {
	c := &Node{Kind: n.Kind, Name: n.Name, Text: n.Text}
	for _, a := range n.Attrs {
		c.AppendAttr(a.copyRec())
	}
	for _, ch := range n.Children {
		c.AppendChild(ch.copyRec())
	}
	return c
}

// PathFromRoot returns the element/attribute name path from the tree root
// to n, e.g. "/order/lineitem/@price". Document nodes contribute nothing.
// Used by index maintenance to record the full path of each indexed node.
func (n *Node) PathFromRoot() string {
	var parts []string
	for m := n; m != nil; m = m.Parent {
		switch m.Kind {
		case ElementNode:
			parts = append(parts, m.Name.stepString(false))
		case AttributeNode:
			parts = append(parts, m.Name.stepString(true))
		case TextNode:
			parts = append(parts, "text()")
		case CommentNode:
			parts = append(parts, "comment()")
		case ProcessingInstructionNode:
			parts = append(parts, "processing-instruction("+m.Name.Local+")")
		}
	}
	var b strings.Builder
	for i := len(parts) - 1; i >= 0; i-- {
		b.WriteByte('/')
		b.WriteString(parts[i])
	}
	if b.Len() == 0 {
		return "/"
	}
	return b.String()
}

func (q QName) stepString(attr bool) string {
	s := q.Local
	if q.Space != "" {
		s = "{" + q.Space + "}" + s
	}
	if attr {
		return "@" + s
	}
	return s
}

// SortDocumentOrder puts a sequence of nodes into document order and
// removes duplicates by identity: the normalization of a path step's
// output and of union, intersect and except. A sequence that is already
// strictly in document order, as a step from one context node yields, is
// returned as it is after one pass; strict order also rules out
// duplicates. Otherwise seq is merge-sorted and deduplicated in place with
// one scratch buffer, so the caller must own seq. A sequence holding an
// atomic value is returned unchanged.
func SortDocumentOrder(seq Sequence) Sequence {
	ordered := true
	var prev *Node
	for _, it := range seq {
		n, ok := it.(*Node)
		if !ok {
			return seq
		}
		if prev != nil && !prev.Before(n) {
			ordered = false
		}
		prev = n
	}
	if ordered {
		return seq
	}
	mergeSortNodes(seq, make(Sequence, len(seq)))
	out := seq[:1]
	for _, it := range seq[1:] {
		if !it.(*Node).Is(out[len(out)-1].(*Node)) {
			out = append(out, it)
		}
	}
	return out
}

// mergeSortNodes sorts the nodes of a into document order, stably, using
// tmp (as long as a) as scratch.
func mergeSortNodes(a, tmp Sequence) {
	if len(a) < 2 {
		return
	}
	mid := len(a) / 2
	mergeSortNodes(a[:mid], tmp[:mid])
	mergeSortNodes(a[mid:], tmp[mid:])
	copy(tmp, a)
	i, j := 0, mid
	for k := range a {
		switch {
		case i >= mid:
			a[k] = tmp[j]
			j++
		case j >= len(a):
			a[k] = tmp[i]
			i++
		case tmp[j].(*Node).Before(tmp[i].(*Node)):
			a[k] = tmp[j]
			j++
		default:
			a[k] = tmp[i]
			i++
		}
	}
}
