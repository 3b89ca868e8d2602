package postings

import "slices"

// NodeList is a sorted set of node references: each element packs a
// document id in the high 32 bits and the node's preorder ordinal in the
// low 32 bits, so plain uint64 order is (docID, ordinal) order and one
// list interleaves per-document runs in document-id order. Like List,
// elements are strictly ascending with no duplicates, the zero value
// (nil) is empty, and lists are immutable by convention.
//
// The kernels below are index-driven rather than range loops: they are
// bounded in-memory set operations whose callers guard per probe, the
// same discipline the List kernels follow.
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
// restarts at run boundaries. A single-run input is returned as-is with
// no copy; two runs take one linear merge; more take a full sort. The
// input slice is taken over and must not be reused by the caller;
// adjacent elements must not be equal.
func NodesFromRuns(refs []uint64) NodeList {
	if len(refs) == 0 {
		return NodeList{}
	}
	split := 0 // start of the second run, if any
	for i := 1; i < len(refs); i++ {
		if refs[i] < refs[i-1] {
			if split > 0 { // three or more runs: sort wins
				slices.Sort(refs)
				return dedupNodes(refs)
			}
			split = i
		}
	}
	if split == 0 {
		return NodeList(refs)
	}
	return unionNodes2(refs[:split], refs[split:])
}

// dedupNodes removes adjacent duplicates in place (input already sorted).
func dedupNodes(refs []uint64) NodeList {
	w := 1
	for i := 1; i < len(refs); i++ {
		if refs[i] != refs[w-1] {
			refs[w] = refs[i]
			w++
		}
	}
	return NodeList(refs[:w])
}

// Contains reports whether ref is in the list (binary search).
func (l NodeList) Contains(ref uint64) bool {
	i := l.lowerBound(0, len(l), ref)
	return i < len(l) && l[i] == ref
}

// lowerBound returns the smallest index in [lo, hi) whose element is
// >= ref, or hi when none is.
func (l NodeList) lowerBound(lo, hi int, ref uint64) int {
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < ref {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// gallopNodes returns the smallest index i >= from with l[i] >= ref,
// probing exponentially from the cursor and binary-searching the final
// window — the NodeList twin of gallop.
func gallopNodes(l NodeList, from int, ref uint64) int {
	n := len(l)
	if from >= n || l[from] >= ref {
		return from
	}
	lo, step := from, 1
	hi := from + 1
	for hi < n && l[hi] < ref {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > n {
		hi = n
	}
	return l.lowerBound(lo+1, hi, ref)
}

// NextInDocs returns the smallest index i >= from whose node lies in a
// document of docs, or len(l) when none does. The two lists leapfrog:
// each gallops to the other's current document, so skipping the hits of
// documents docs lacks costs a few searches, not a pass over them.
func (l NodeList) NextInDocs(from int, docs List) int {
	j := 0
	for from < len(l) {
		d := NodeDoc(l[from])
		if j = gallop(docs, j, d); j >= len(docs) {
			break
		}
		if docs[j] == d {
			return from
		}
		from = gallopNodes(l, from, PackNode(docs[j], 0))
	}
	return len(l)
}

// IntersectNodes returns the node references present in both lists. The
// smaller list drives, galloping through the larger one.
func IntersectNodes(a, b NodeList) NodeList {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return NodeList{}
	}
	out := make(NodeList, 0, len(a))
	j := 0
	for i := 0; i < len(a); i++ {
		j = gallopNodes(b, j, a[i])
		if j >= len(b) {
			break
		}
		if b[j] == a[i] {
			out = append(out, a[i])
			j++
		}
	}
	return out
}

// unionNodes2 merges two sorted lists linearly.
func unionNodes2(a, b NodeList) NodeList {
	out := make(NodeList, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// Docs projects the node list to its distinct document ids, preserving
// order. The doc-granular view of a node-granular probe result.
func (l NodeList) Docs() List {
	out := make(List, 0, min(len(l), 64))
	for i := 0; i < len(l); i++ {
		d := NodeDoc(l[i])
		if n := len(out); n == 0 || out[n-1] != d {
			out = append(out, d)
		}
	}
	return out
}
