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
