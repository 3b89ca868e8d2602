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

// nextInDocsLinear is NextInDocs' oracle: a linear scan with a
// membership test per node.
// contains reports whether x is in the sorted set l.
func contains[E elem](l []E, x E) bool {
	_, ok := slices.BinarySearch(l, x)
	return ok
}

func nextInDocsLinear(l NodeList, from int, docs List) int {
	for i := from; i < len(l); i++ {
		if contains(docs, NodeDoc(l[i])) {
			return i
		}
	}
	return len(l)
}

// checkNextInDocs compares NextInDocs with the linear oracle from every
// start index, and checks that chaining it filters l exactly as a
// per-node membership filter does.
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
		if contains(docs, NodeDoc(x)) {
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
		docs := make(List, rng.Intn(span+1))
		for i := range docs {
			docs[i] = uint32(rng.Intn(span))
		}
		checkNextInDocs(t, nodes, set(docs))
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
// then checks NextInDocs against the linear membership oracle.
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
		docs := make(List, len(docBytes))
		for i, b := range docBytes {
			docs[i] = uint32(b) * 0x01010101
		}
		checkNextInDocs(t, nodes, set(docs))
	})
}
