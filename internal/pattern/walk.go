package pattern

import "github.com/xqdb/xqdb/internal/xdm"

// Walker enumerates a document's nodes with their rooted label paths. It
// is the one walk behind index maintenance, bulk index extraction and
// the path synopsis, so every XML index and the synopsis see the same
// node population under the same path keys. The zero value is ready to
// use. The label and key buffers are reused across Walk calls, so each
// long-lived owner keeps its own Walker; it is not safe for concurrent
// use.
type Walker struct {
	labels []Label
	key    []byte
}

// Walk visits every node of doc below the document node: each node, then
// its attributes, then its children. The document node itself is
// transparent and has no label. f receives the node, its label path from
// the root, and the path's key. The key is an injective byte encoding of
// the labels: per step, the kind byte, the namespace, 0x00, the local
// name, 0x01. Both slices are the walker's buffers and are valid only
// during the call.
func (w *Walker) Walk(doc *xdm.Node, f func(n *xdm.Node, labels []Label, key []byte)) {
	// A walk abandoned by a panic in f must not leave its path behind.
	w.labels, w.key = w.labels[:0], w.key[:0]
	w.walk(doc, f)
}

func (w *Walker) walk(n *xdm.Node, f func(*xdm.Node, []Label, []byte)) {
	mark := -1
	if n.Kind != xdm.DocumentNode {
		mark = w.push(n)
		f(n, w.labels, w.key)
	}
	for _, a := range n.Attrs {
		am := w.push(a)
		f(a, w.labels, w.key)
		w.pop(am)
	}
	for _, c := range n.Children {
		w.walk(c, f)
	}
	if mark >= 0 {
		w.pop(mark)
	}
}

// push appends n's label to the path and returns the key length pop
// restores.
func (w *Walker) push(n *xdm.Node) int {
	var l Label
	switch n.Kind {
	case xdm.ElementNode:
		l = Label{Kind: ElementLabel, Space: n.Name.Space, Local: n.Name.Local}
	case xdm.AttributeNode:
		l = Label{Kind: AttributeLabel, Space: n.Name.Space, Local: n.Name.Local}
	case xdm.TextNode:
		l = Label{Kind: TextLabel}
	case xdm.CommentNode:
		l = Label{Kind: CommentLabel}
	case xdm.ProcessingInstructionNode:
		l = Label{Kind: PILabel, Local: n.Name.Local}
	}
	mark := len(w.key)
	w.key = append(w.key, byte(l.Kind))
	w.key = append(w.key, l.Space...)
	w.key = append(w.key, 0)
	w.key = append(w.key, l.Local...)
	w.key = append(w.key, 1)
	w.labels = append(w.labels, l)
	return mark
}

func (w *Walker) pop(mark int) {
	w.key = w.key[:mark]
	w.labels = w.labels[:len(w.labels)-1]
}
