package postings

import (
	"math/rand"
	"slices"
	"testing"
)

func refs(pairs ...[2]uint32) NodeList {
	out := make(NodeList, len(pairs))
	for i, p := range pairs {
		out[i] = PackNode(p[0], p[1])
	}
	return out
}

func TestPackNodeRoundTrip(t *testing.T) {
	cases := [][2]uint32{{0, 0}, {1, 0}, {0, 1}, {7, 42}, {1 << 31, 1<<32 - 1}}
	for _, c := range cases {
		r := PackNode(c[0], c[1])
		if NodeDoc(r) != c[0] || NodeOrd(r) != c[1] {
			t.Fatalf("PackNode(%d,%d) round-tripped to (%d,%d)", c[0], c[1], NodeDoc(r), NodeOrd(r))
		}
	}
	// Packed order is (doc, ordinal) order.
	if PackNode(1, 0) <= PackNode(0, 1<<31) {
		t.Fatal("doc id must dominate the packed order")
	}
	if PackNode(3, 5) <= PackNode(3, 4) {
		t.Fatal("ordinal must order within one doc")
	}
}

func TestNodesFromRuns(t *testing.T) {
	// Single sorted run: returned as-is, no copy.
	in := refs([2]uint32{1, 2}, [2]uint32{1, 5}, [2]uint32{3, 1})
	got := NodesFromRuns(in)
	if &got[0] != &in[0] {
		t.Fatal("single-run input must be returned without copying")
	}
	// Two runs merge; three or more sort. Either way the result is
	// strictly ascending and deduplicated.
	two := NodeList{PackNode(1, 1), PackNode(4, 2), PackNode(2, 3), PackNode(5, 1)}
	three := NodeList{PackNode(4, 1), PackNode(1, 1), PackNode(3, 3), PackNode(2, 2), PackNode(2, 9)}
	for _, in := range []NodeList{two, three} {
		got := NodesFromRuns(slices.Clone(in))
		if !slices.IsSorted(got) {
			t.Fatalf("NodesFromRuns(%v) = %v, not sorted", in, got)
		}
		want := slices.Clone(in)
		slices.Sort(want)
		want = slices.Compact(want)
		if !slices.Equal([]uint64(got), want) {
			t.Fatalf("NodesFromRuns(%v) = %v, want %v", in, got, want)
		}
	}
	if got := NodesFromRuns(nil); got == nil || len(got) != 0 {
		t.Fatal("empty input must yield a non-nil empty list")
	}
}

func TestIntersectNodes(t *testing.T) {
	a := refs([2]uint32{1, 1}, [2]uint32{1, 4}, [2]uint32{2, 2}, [2]uint32{9, 9})
	b := refs([2]uint32{1, 4}, [2]uint32{2, 2}, [2]uint32{2, 3}, [2]uint32{9, 9})
	want := refs([2]uint32{1, 4}, [2]uint32{2, 2}, [2]uint32{9, 9})
	if got := IntersectNodes(a, b); !slices.Equal(got, want) {
		t.Fatalf("IntersectNodes = %v, want %v", got, want)
	}
	if got := IntersectNodes(a, NodeList{}); len(got) != 0 {
		t.Fatalf("intersect with empty = %v", got)
	}
}

func TestDocsProjection(t *testing.T) {
	l := refs([2]uint32{1, 1}, [2]uint32{2, 7}, [2]uint32{3, 1}, [2]uint32{3, 2}, [2]uint32{4, 4})
	if docs := l.Docs(); !slices.Equal(docs, List{1, 2, 3, 4}) {
		t.Fatalf("Docs = %v, want [1 2 3 4]", docs)
	}
}

// The node kernels agree with a reference map implementation on random
// inputs — same property the List kernels are trusted for.
func TestNodeKernelsRandomizedAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randList := func() NodeList {
		n := rng.Intn(200)
		set := make(map[uint64]bool, n)
		for i := 0; i < n; i++ {
			set[PackNode(uint32(rng.Intn(20)), uint32(rng.Intn(50)))] = true
		}
		out := make(NodeList, 0, len(set))
		for r := range set {
			out = append(out, r)
		}
		slices.Sort(out)
		return out
	}
	for iter := 0; iter < 200; iter++ {
		a, b := randList(), randList()
		ref := make(map[uint64]bool)
		for _, x := range a {
			if b.Contains(x) {
				ref[x] = true
			}
		}
		got := IntersectNodes(a, b)
		if len(got) != len(ref) {
			t.Fatalf("iter %d: intersect size %d, want %d", iter, len(got), len(ref))
		}
		for _, x := range got {
			if !ref[x] {
				t.Fatalf("iter %d: intersect emitted %d not in reference", iter, x)
			}
		}
		union := unionNodes2(a, b)
		refU := make(map[uint64]bool)
		for _, l := range []NodeList{a, b} {
			for _, x := range l {
				refU[x] = true
			}
		}
		if len(union) != len(refU) || !slices.IsSorted(union) {
			t.Fatalf("iter %d: union size %d (sorted=%v), want %d", iter, len(union), slices.IsSorted(union), len(refU))
		}
	}
}

// nextInDocsLinear is NextInDocs' oracle: a linear scan with a Contains
// test per node.
func nextInDocsLinear(l NodeList, from int, docs List) int {
	for i := from; i < len(l); i++ {
		if docs.Contains(NodeDoc(l[i])) {
			return i
		}
	}
	return len(l)
}

// checkNextInDocs compares NextInDocs with the linear oracle from every
// start index, and checks that chaining it filters l exactly as a
// per-node Contains filter does.
func checkNextInDocs(t *testing.T, l NodeList, docs List) {
	t.Helper()
	for from := 0; from <= len(l); from++ {
		if got, want := l.NextInDocs(from, docs), nextInDocsLinear(l, from, docs); got != want {
			t.Fatalf("NextInDocs(%d) over %v, docs %v = %d, want %d", from, l, docs, got, want)
		}
	}
	var got, want NodeList
	for i := l.NextInDocs(0, docs); i < len(l); i = l.NextInDocs(i+1, docs) {
		got = append(got, l[i])
	}
	for _, x := range l {
		if docs.Contains(NodeDoc(x)) {
			want = append(want, x)
		}
	}
	if !slices.Equal(got, want) {
		t.Fatalf("chained NextInDocs over %v, docs %v kept %v, want %v", l, docs, got, want)
	}
}

func TestNextInDocsRandomizedAgainstContains(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 500; iter++ {
		span := 1 + rng.Intn(40)
		nodes := make(NodeList, rng.Intn(120))
		for i := range nodes {
			nodes[i] = PackNode(uint32(rng.Intn(span)), uint32(rng.Intn(6)))
		}
		slices.Sort(nodes)
		nodes = slices.Compact(nodes)
		docs := make([]uint32, rng.Intn(span+1))
		for i := range docs {
			docs[i] = uint32(rng.Intn(span))
		}
		checkNextInDocs(t, nodes, FromUnsorted(docs))
	}
	// Edge cases: empty and nil survivor lists, the largest document id.
	l := refs([2]uint32{0, 1}, [2]uint32{5, 0}, [2]uint32{1<<32 - 1, 3})
	checkNextInDocs(t, l, nil)
	checkNextInDocs(t, l, List{})
	checkNextInDocs(t, l, List{1<<32 - 1})
	checkNextInDocs(t, nil, List{1, 2})
}

// FuzzNextInDocsAgainstContains decodes two byte strings into a node list
// (a document and an ordinal per byte pair) and a survivor document list,
// then checks NextInDocs against the linear Contains oracle.
func FuzzNextInDocsAgainstContains(f *testing.F) {
	f.Add([]byte{1, 1, 1, 2, 3, 0, 9, 9}, []byte{1, 9})
	f.Add([]byte{0, 0, 255, 255}, []byte{})
	f.Add([]byte{}, []byte{4})
	f.Add([]byte{2, 1, 4, 1, 6, 1, 8, 1}, []byte{3, 5, 8})
	f.Fuzz(func(t *testing.T, nodeBytes, docBytes []byte) {
		nodes := make(NodeList, 0, len(nodeBytes)/2)
		for i := 0; i+1 < len(nodeBytes); i += 2 {
			nodes = append(nodes, PackNode(uint32(nodeBytes[i])*0x01010101, uint32(nodeBytes[i+1])))
		}
		slices.Sort(nodes)
		nodes = slices.Compact(nodes)
		docs := make([]uint32, len(docBytes))
		for i, b := range docBytes {
			docs[i] = uint32(b) * 0x01010101
		}
		checkNextInDocs(t, nodes, FromUnsorted(docs))
	})
}
