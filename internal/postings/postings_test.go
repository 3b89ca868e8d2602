package postings

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// set normalizes arbitrary elements into a sorted set: the trivially
// correct oracle the map-reference tests build their expectations with.
func set[S ~[]E, E elem](xs S) S {
	out := slices.Clone(xs)
	slices.Sort(out)
	return slices.Compact(out)
}

// refSet is the map-based reference the engine used before posting
// lists; the property tests assert the set operations agree with it.
func refSet[E elem](l []E) map[E]bool {
	m := make(map[E]bool, len(l))
	for _, x := range l {
		m[x] = true
	}
	return m
}

func refToList[S ~[]E, E elem](m map[E]bool) S {
	out := make(S, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	slices.Sort(out)
	return out
}

func mapIntersect[E elem](a, b map[E]bool) map[E]bool {
	out := map[E]bool{}
	for x := range a {
		if b[x] {
			out[x] = true
		}
	}
	return out
}

func mapUnion[E elem](sets ...map[E]bool) map[E]bool {
	out := map[E]bool{}
	for _, s := range sets {
		for x := range s {
			out[x] = true
		}
	}
	return out
}

// randList draws n ids from [0, span) with duplicates, then normalizes.
func randList(rng *rand.Rand, n, span int) List {
	ids := make(List, n)
	for i := range ids {
		ids[i] = uint32(rng.Intn(span))
	}
	return set(ids)
}

// randNodes draws n node references over docSpan documents with
// ordinals in [0, ordSpan), then normalizes.
func randNodes(rng *rand.Rand, n, docSpan, ordSpan int) NodeList {
	refs := make(NodeList, n)
	for i := range refs {
		refs[i] = PackNode(uint32(rng.Intn(docSpan)), uint32(rng.Intn(ordSpan)))
	}
	return set(refs)
}

func assertInvariants[E elem](t *testing.T, l []E) {
	t.Helper()
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("list not strictly ascending at %d: %v", i, l)
		}
	}
}

// checkOpsAgainstMap checks intersect and union on three sets against
// the map reference, and that every result is a valid sorted set.
func checkOpsAgainstMap[S ~[]E, E elem](t *testing.T, trial int, a, b, c S) {
	t.Helper()
	ma, mb, mc := refSet(a), refSet(b), refSet(c)
	inter, uni := intersect(a, b), union([]S{a, b, c})
	if want := refToList[S](mapIntersect(ma, mb)); !slices.Equal(inter, want) {
		t.Fatalf("trial %d: intersect(%v, %v) = %v, want %v", trial, a, b, inter, want)
	}
	if want := refToList[S](mapUnion(ma, mb, mc)); !slices.Equal(uni, want) {
		t.Fatalf("trial %d: union = %v, want %v", trial, uni, want)
	}
	assertInvariants(t, inter)
	assertInvariants(t, uni)
}

// The core property suite: intersect/union on random inputs of both
// widths must agree with the map-based reference.
func TestOpsAgainstMapReference(t *testing.T) {
	t.Run("List", func(t *testing.T) {
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 500; trial++ {
			// Vary shapes: tiny vs huge lists exercise the galloping
			// path, similar sizes the linear path, span controls overlap.
			span := 1 + rng.Intn(2000)
			a := randList(rng, rng.Intn(300), span)
			b := randList(rng, rng.Intn(300), span)
			c := randList(rng, rng.Intn(300), span)
			checkOpsAgainstMap(t, trial, a, b, c)
			if got, want := Intersect(a, b), intersect(a, b); !slices.Equal(got, want) {
				t.Fatalf("trial %d: Intersect = %v, generic kernel %v", trial, got, want)
			}
		}
	})
	t.Run("NodeList", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for trial := 0; trial < 200; trial++ {
			a := randNodes(rng, rng.Intn(200), 20, 50)
			b := randNodes(rng, rng.Intn(200), 20, 50)
			c := randNodes(rng, rng.Intn(200), 20, 50)
			checkOpsAgainstMap(t, trial, a, b, c)
			if got, want := IntersectNodes(a, b), intersect(a, b); !slices.Equal(got, want) {
				t.Fatalf("trial %d: IntersectNodes = %v, generic kernel %v", trial, got, want)
			}
		}
	})
}

// The k-way union heap path (>2 lists) must agree with the map
// reference regardless of list count or skew.
func TestUnionKWay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		k := 3 + rng.Intn(8)
		lists := make([]List, k)
		sets := make([]map[uint32]bool, k)
		for i := range lists {
			lists[i] = randList(rng, rng.Intn(100), 500)
			sets[i] = refSet(lists[i])
		}
		got := Union(lists...)
		if want := refToList[List](mapUnion(sets...)); !slices.Equal(got, want) {
			t.Fatalf("trial %d: k=%d union mismatch: %v vs %v", trial, k, got, want)
		}
		assertInvariants(t, got)
	}
}

func TestEdgeCases(t *testing.T) {
	empty := List{}
	a := List{1, 5, 9}
	if got := Intersect(empty, a); len(got) != 0 || got == nil {
		t.Fatalf("Intersect with empty must be non-nil empty, got %#v", got)
	}
	if got := IntersectNodes(NodeList{}, NodeList{7}); len(got) != 0 || got == nil {
		t.Fatalf("IntersectNodes with empty must be non-nil empty, got %#v", got)
	}
	if got := Union(); len(got) != 0 || got == nil {
		t.Fatalf("Union of nothing must be non-nil empty, got %#v", got)
	}
	if got := Union(a); !slices.Equal(got, a) {
		t.Fatalf("Union of one list must return it, got %v", got)
	}
	if got := Intersect(a, a); !slices.Equal(got, a) {
		t.Fatalf("Intersect with itself must equal a, got %v", got)
	}
	// Max-value boundary: gallop and intersect at the top of the domain.
	top := List{0, 1, 1<<32 - 1}
	if got := Intersect(top, List{1<<32 - 1}); !slices.Equal(got, List{1<<32 - 1}) {
		t.Fatalf("Intersect at max uint32 failed: %v", got)
	}
	topNode := PackNode(1<<32-1, 1<<32-1)
	if got := IntersectNodes(NodeList{0, topNode}, NodeList{topNode}); !slices.Equal(got, NodeList{topNode}) {
		t.Fatalf("IntersectNodes at max uint64 failed: %v", got)
	}
}

// radixSort has a radix path above the small-slice cutoff; at both
// widths it must agree with the comparison sort on every input shape,
// including high bytes that force every pass and constant bytes that
// skip passes.
func TestRadixSortAgainstComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spans := []int{2, 50, 300, 70000, 1 << 30}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400) // crosses the radix cutoff both ways
		span := spans[trial%len(spans)]
		ids := make([]uint32, n)
		refs := make([]uint64, n)
		for i := range ids {
			ids[i] = uint32(rng.Intn(span))
			refs[i] = PackNode(uint32(rng.Intn(span)), uint32(rng.Intn(span)))
		}
		wantIDs, wantRefs := slices.Clone(ids), slices.Clone(refs)
		slices.Sort(wantIDs)
		slices.Sort(wantRefs)
		radixSort(ids)
		radixSort(refs)
		if !slices.Equal(ids, wantIDs) {
			t.Fatalf("trial %d (n=%d span=%d): uint32 radix sort diverged", trial, n, span)
		}
		if !slices.Equal(refs, wantRefs) {
			t.Fatalf("trial %d (n=%d span=%d): uint64 radix sort diverged", trial, n, span)
		}
	}
}

// checkFromRuns feeds a run decoder what docCollector and the node
// collector emit — strictly ascending runs concatenated back to back —
// and checks it against the map reference, the empty case and the
// zero-copy single-run fast path. pack lifts a document id into the
// element type.
func checkFromRuns[S ~[]E, E elem](t *testing.T, decode func([]E) S, pack func(doc uint32, i int) E) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		nRuns := 1 + rng.Intn(6)
		var in []E
		ref := map[E]bool{}
		for r := 0; r < nRuns; r++ {
			doc := uint32(rng.Intn(50))
			for i, n := 0, rng.Intn(40); i < n; i++ {
				doc += 1 + uint32(rng.Intn(4))
				x := pack(doc, i)
				// A run boundary may continue ascending from the previous
				// run's tail; only adjacent equals are forbidden.
				if m := len(in); m > 0 && in[m-1] == x {
					continue
				}
				in = append(in, x)
				ref[x] = true
			}
		}
		got := decode(slices.Clone(in))
		if want := refToList[S](ref); !slices.Equal(got, want) {
			t.Fatalf("trial %d: decode(%v) = %v, want %v", trial, in, got, want)
		}
		assertInvariants(t, got)
	}
	if decode(nil) == nil {
		t.Fatal("decode(nil) must be non-nil empty")
	}
	sorted := []E{pack(3, 0), pack(7, 1), pack(9, 0)}
	if got := decode(sorted); &got[0] != &sorted[0] {
		t.Fatal("single-run input must be returned without copying")
	}
}

func TestFromRuns(t *testing.T) {
	t.Run("List", func(t *testing.T) {
		checkFromRuns(t, FromRuns, func(doc uint32, _ int) uint32 { return doc })
	})
	t.Run("NodeList", func(t *testing.T) {
		checkFromRuns(t, NodesFromRuns, func(doc uint32, i int) uint64 { return PackNode(doc, uint32(i%3)) })
	})
}

// gallop is the intersection workhorse; pin its contract directly.
func TestGallop(t *testing.T) {
	l := List{2, 4, 6, 8, 10, 12, 14, 16, 18, 20}
	cases := []struct {
		from int
		x    uint32
		want int
	}{
		{0, 1, 0}, {0, 2, 0}, {0, 3, 1}, {0, 20, 9}, {0, 21, 10},
		{3, 8, 3}, {3, 9, 4}, {9, 20, 9}, {10, 99, 10},
	}
	for _, c := range cases {
		if got := gallop(l, c.from, c.x); got != c.want {
			t.Fatalf("gallop(from=%d, x=%d) = %d, want %d", c.from, c.x, got, c.want)
		}
		if got := gallop(NodeList(refs32(l)), c.from, PackNode(c.x, 0)); got != c.want {
			t.Fatalf("gallop over nodes (from=%d, doc=%d) = %d, want %d", c.from, c.x, got, c.want)
		}
	}
}

// refs32 lifts document ids to ordinal-0 node references.
func refs32(docs List) []uint64 {
	out := make([]uint64, len(docs))
	for i, d := range docs {
		out[i] = PackNode(d, 0)
	}
	return out
}

// runShape describes one generated decoder input: how many runs, how
// long each may be, and where its values live.
type runShape struct {
	name    string
	runs    int    // number of runs; each may come out empty
	maxLen  int    // a run's length is drawn from [0, maxLen]
	pool    int    // values are drawn from pool distinct values, so runs repeat each other's
	docBase uint32 // lowest document id
}

var runShapes = []runShape{
	{"zero-runs", 0, 0, 1, 0},
	{"one-run", 1, 200, 400, 0},
	{"two-runs", 2, 100, 150, 0},
	{"three-runs", 3, 40, 60, 0},
	{"three-short-runs", 3, 8, 20, 0},
	{"many-short-runs", 40, 2, 30, 0},
	{"300-runs", 300, 12, 500, 0},
	{"300-runs-dense", 300, 6, 40, 0},
	{"near-max-doc", 50, 20, 200, 1<<32 - 67},
	{"wide-doc-span", 20, 30, 1 << 20, 1 << 24},
}

// genRuns draws a concatenation of strictly ascending runs of document
// ids or node references, as a probe's collector emits them, plus the
// runs themselves (empty ones included). Ordinals start at 0.
func genRuns[E elem](rng *rand.Rand, sh runShape, value func(doc, ord uint32) E) ([]E, [][]E) {
	var flat []E
	runs := make([][]E, sh.runs)
	for r := range runs {
		vals := make([]E, rng.Intn(sh.maxLen+1))
		for i := range vals {
			v := uint32(rng.Intn(sh.pool))
			vals[i] = value(sh.docBase+v/3, v%3)
		}
		run := set(vals)
		runs[r] = run
		for _, x := range run {
			if n := len(flat); n > 0 && flat[n-1] == x {
				continue // adjacent equals never reach the decoder
			}
			flat = append(flat, x)
		}
	}
	return flat, runs
}

// equalSets reports whether two sets hold the same elements and agree
// on nil versus empty.
func equalSets[E elem](a, b []E) bool {
	return (a == nil) == (b == nil) && slices.Equal(a, b)
}

// TestKernelsAgainstReference compares every exported kernel, at both
// widths, with the pre-generic implementations in reference_test.go on
// randomized inputs: 0 to 300 runs, empty runs, values repeated across
// runs, document ids near 2^32-1, ordinal 0, and lists on both sides of
// the radix cutoff.
func TestKernelsAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	docOf := func(doc, _ uint32) uint32 { return doc }
	for _, sh := range runShapes {
		t.Run(sh.name, func(t *testing.T) {
			for trial := 0; trial < 40; trial++ {
				ids, idRuns := genRuns(rng, sh, docOf)
				ids2, _ := genRuns(rng, sh, docOf)
				checkListKernels(t, ids, ids2, idRuns)
				refs, refRuns := genRuns(rng, sh, PackNode)
				refs2, _ := genRuns(rng, sh, PackNode)
				checkNodeKernels(t, refs, refs2, refRuns)
			}
		})
	}
}

// checkListKernels compares FromRuns, Intersect and Union with their
// reference bodies over two decoder inputs and the runs of the first.
func checkListKernels(t *testing.T, ids, ids2 []uint32, runs [][]uint32) {
	t.Helper()
	a, wantA := FromRuns(slices.Clone(ids)), refFromRuns(slices.Clone(ids))
	if !equalSets(a, wantA) {
		t.Fatalf("FromRuns(%v) = %v, reference %v", ids, a, wantA)
	}
	if want := set(ids); !slices.Equal(a, want) {
		t.Fatalf("FromRuns(%v) = %v, sorted set %v", ids, a, want)
	}
	b := FromRuns(slices.Clone(ids2))
	if got, want := Intersect(a, b), refIntersect(a, b); !equalSets(got, want) {
		t.Fatalf("Intersect(%v, %v) = %v, reference %v", a, b, got, want)
	}
	lists := make([]List, len(runs))
	for i, r := range runs {
		lists[i] = List(r)
	}
	if got, want := Union(lists...), refUnion(lists...); !equalSets(got, want) {
		t.Fatalf("Union of %d runs = %v, reference %v", len(runs), got, want)
	}
	if got, want := Union(a, b), refUnion2(a, b); len(a) > 0 && len(b) > 0 && !equalSets(got, want) {
		t.Fatalf("Union(%v, %v) = %v, reference %v", a, b, got, want)
	}
}

// checkNodeKernels is checkListKernels for node references, plus the
// NodeList-only survivor filter and document projection.
func checkNodeKernels(t *testing.T, refs, refs2 []uint64, runs [][]uint64) {
	t.Helper()
	a, wantA := NodesFromRuns(slices.Clone(refs)), refNodesFromRuns(slices.Clone(refs))
	if !equalSets(a, wantA) {
		t.Fatalf("NodesFromRuns(%v) = %v, reference %v", refs, a, wantA)
	}
	if want := set(refs); !slices.Equal(a, want) {
		t.Fatalf("NodesFromRuns(%v) = %v, sorted set %v", refs, a, want)
	}
	b := NodesFromRuns(slices.Clone(refs2))
	if got, want := IntersectNodes(a, b), refIntersectNodes(a, b); !equalSets(got, want) {
		t.Fatalf("IntersectNodes(%v, %v) = %v, reference %v", a, b, got, want)
	}
	if len(a) > 0 && len(b) > 0 {
		if got, want := union([]NodeList{a, b}), refUnionNodes2(a, b); !equalSets(got, want) {
			t.Fatalf("union(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
	lists := make([]NodeList, len(runs))
	var flat NodeList
	for i, r := range runs {
		lists[i] = NodeList(r)
		flat = append(flat, r...)
	}
	if got, want := union(lists), set(flat); !slices.Equal(got, want) {
		t.Fatalf("union of %d node runs = %v, sorted set %v", len(runs), got, want)
	}
	docs := b.Docs()
	for from := 0; from <= len(a); from++ {
		if got, want := a.NextInDocs(from, docs), refNextInDocs(a, from, docs); got != want {
			t.Fatalf("NextInDocs(%d) over %v, docs %v = %d, reference %d", from, a, docs, got, want)
		}
	}
}

// fuzzValue maps one input byte into a document id; mode picks the
// region of the id space: small ids, ids with every byte set (so the
// radix sort runs all its passes), or ids just below 2^32-1.
func fuzzValue(mode, b byte) uint32 {
	switch mode % 3 {
	case 1:
		return uint32(b) * 0x01010101
	case 2:
		return ^uint32(0) - uint32(b)
	}
	return uint32(b)
}

// fuzzRuns decodes byte pairs into a decoder input with adjacent equals
// dropped — every such sequence is a concatenation of ascending runs —
// and splits it into its runs.
func fuzzRuns[E elem](data []byte, mode byte, value func(doc, ord uint32) E) ([]E, [][]E) {
	var flat []E
	var runs [][]E
	for i := 0; i+1 < len(data); i += 2 {
		x := value(fuzzValue(mode, data[i]), uint32(data[i+1]))
		n := len(flat)
		if n > 0 && flat[n-1] == x {
			continue
		}
		if n == 0 || x < flat[n-1] {
			runs = append(runs, nil)
		}
		flat = append(flat, x)
		runs[len(runs)-1] = append(runs[len(runs)-1], x)
	}
	return flat, runs
}

// FuzzKernelsAgainstReference decodes two byte strings into decoder
// inputs of both widths and compares every exported kernel with its
// reference body.
func FuzzKernelsAgainstReference(f *testing.F) {
	f.Add(byte(0), []byte{1, 0, 3, 1, 2, 0, 9, 9, 4, 4}, []byte{3, 1, 9, 9})
	f.Add(byte(1), []byte{255, 255, 0, 0, 128, 7, 1, 0}, []byte{})
	f.Add(byte(2), []byte{0, 0, 1, 0, 2, 0, 1, 0, 0, 0}, []byte{0, 0})
	f.Add(byte(0), make([]byte, 300), []byte{5, 5})
	f.Fuzz(func(t *testing.T, mode byte, a, b []byte) {
		docOf := func(doc, _ uint32) uint32 { return doc }
		ids, idRuns := fuzzRuns(a, mode, docOf)
		ids2, _ := fuzzRuns(b, mode, docOf)
		checkListKernels(t, ids, ids2, idRuns)
		refs, refRuns := fuzzRuns(a, mode, PackNode)
		refs2, _ := fuzzRuns(b, mode, PackNode)
		checkNodeKernels(t, refs, refs2, refRuns)
	})
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	sinkList  List
	sinkNodes NodeList
)

// BenchmarkFromRuns times the run decoder at both widths on 2 000
// elements split into 1, 2, 50 and 200 ascending runs (each iteration
// also copies the input, which the decoder takes over).
func BenchmarkFromRuns(b *testing.B) {
	const n = 2000
	for _, runs := range []int{1, 2, 50, 200} {
		rng := rand.New(rand.NewSource(int64(runs)))
		ids := make([]uint32, 0, n)
		refs := make([]uint64, 0, n)
		for r := 0; r < runs; r++ {
			for _, d := range randList(rng, n/runs, 4*n) {
				if k := len(ids); k > 0 && ids[k-1] == d {
					continue // adjacent equals never reach the decoder
				}
				ids = append(ids, d)
				refs = append(refs, PackNode(d, uint32(rng.Intn(40))))
			}
		}
		buf32, buf64 := make([]uint32, len(ids)), make([]uint64, len(refs))
		b.Run(fmt.Sprintf("uint32/runs=%d", runs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf32, ids)
				sinkList = FromRuns(buf32)
			}
		})
		b.Run(fmt.Sprintf("uint64/runs=%d", runs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(buf64, refs)
				sinkNodes = NodesFromRuns(buf64)
			}
		})
	}
}
