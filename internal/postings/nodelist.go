package postings

// NodeList is a sorted set of node references: each element packs a
// document id in the high 32 bits and the node's preorder ordinal in the
// low 32 bits, so plain uint64 order is (docID, ordinal) order and one
// list interleaves per-document runs in document-id order. Like List,
// elements are strictly ascending with no duplicates, the zero value
// (nil) is empty, and lists are immutable by convention.
//
// The loops below are index-driven rather than range loops: they are
// bounded in-memory set operations whose callers guard per probe.
type NodeList []uint64

// PackNode packs a (docID, ordinal) pair into its NodeList element.
func PackNode(doc, ord uint32) uint64 { return uint64(doc)<<32 | uint64(ord) }

// NodeDoc returns the document id of a packed node reference.
func NodeDoc(ref uint64) uint32 { return uint32(ref >> 32) }

// NodeOrd returns the preorder ordinal of a packed node reference.
func NodeOrd(ref uint64) uint32 { return uint32(ref) }

// NodesFromRuns builds a NodeList from a concatenation of strictly
// ascending runs — the shape a composite-key B+Tree scan emits: within
// each (value, path) key run the (docID, ordinal) suffix ascends, and
// restarts at run boundaries. It decodes exactly as FromRuns does, with
// the same contract on the input slice.
func NodesFromRuns(refs []uint64) NodeList { return fromRuns(NodeList(refs)) }

// IntersectNodes returns the node references present in both lists.
func IntersectNodes(a, b NodeList) NodeList { return intersect(a, b) }

// NextInDocs returns the smallest index i >= from whose node lies in a
// document of docs, or len(l) when none does. The two lists leapfrog:
// each gallops to the other's current document, so skipping the hits of
// documents docs lacks costs a few searches, not a pass over them.
func (l NodeList) NextInDocs(from int, docs List) int {
	j := 0
	//xqvet:unbounded-ok galloping kernel: every step moves past a document, and callers step the guard per hit it returns
	for from < len(l) {
		d := NodeDoc(l[from])
		if j = gallop(docs, j, d); j >= len(docs) {
			break
		}
		if docs[j] == d {
			return from
		}
		from = gallop(l, from, PackNode(docs[j], 0))
	}
	return len(l)
}

// Docs projects the node list to its distinct document ids, preserving
// order. The doc-granular view of a node-granular probe result.
func (l NodeList) Docs() List {
	docs := 0 // distinct documents: the projection is allocated once
	//xqvet:unbounded-ok linear projection of a probe result whose scan already stepped the guard per entry
	for i := 0; i < len(l); i++ {
		if i == 0 || NodeDoc(l[i]) != NodeDoc(l[i-1]) {
			docs++
		}
	}
	out := make(List, 0, docs)
	//xqvet:unbounded-ok linear projection of a probe result whose scan already stepped the guard per entry
	for i := 0; i < len(l); i++ {
		d := NodeDoc(l[i])
		if n := len(out); n == 0 || out[n-1] != d {
			out = append(out, d)
		}
	}
	return out
}
