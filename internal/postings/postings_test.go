package postings

import (
	"math/rand"
	"sort"
	"testing"
)

// refSet is the map-based reference the engine used before posting
// lists; the property tests assert the list operations agree with it.
func refSet(l List) map[uint32]bool {
	m := make(map[uint32]bool, len(l))
	for _, x := range l {
		m[x] = true
	}
	return m
}

func refToList(m map[uint32]bool) List {
	out := make([]uint32, 0, len(m))
	for x := range m {
		out = append(out, x)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return List(out)
}

func refIntersect(a, b map[uint32]bool) map[uint32]bool {
	out := map[uint32]bool{}
	for x := range a {
		if b[x] {
			out[x] = true
		}
	}
	return out
}

func refUnion(sets ...map[uint32]bool) map[uint32]bool {
	out := map[uint32]bool{}
	for _, s := range sets {
		for x := range s {
			out[x] = true
		}
	}
	return out
}

func equal(a, b List) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// randList draws n ids from [0, span) with duplicates, then normalizes.
func randList(rng *rand.Rand, n, span int) List {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(rng.Intn(span))
	}
	return FromUnsorted(ids)
}

func assertInvariants(t *testing.T, l List) {
	t.Helper()
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Fatalf("list not strictly ascending at %d: %v", i, l)
		}
	}
}

// The core property suite: intersect/union on random inputs
// must agree with the map-based reference, and every result must be a
// valid sorted duplicate-free list.
func TestOpsAgainstMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 500; trial++ {
		// Vary shapes: tiny vs huge lists exercise the galloping path,
		// similar sizes the linear path, span controls overlap density.
		span := 1 + rng.Intn(2000)
		a := randList(rng, rng.Intn(300), span)
		b := randList(rng, rng.Intn(300), span)
		c := randList(rng, rng.Intn(300), span)
		ma, mb, mc := refSet(a), refSet(b), refSet(c)

		if got, want := Intersect(a, b), refToList(refIntersect(ma, mb)); !equal(got, want) {
			t.Fatalf("trial %d: Intersect(%v, %v) = %v, want %v", trial, a, b, got, want)
		}
		if got, want := Union(a, b, c), refToList(refUnion(ma, mb, mc)); !equal(got, want) {
			t.Fatalf("trial %d: Union = %v, want %v", trial, got, want)
		}
		assertInvariants(t, Intersect(a, b))
		assertInvariants(t, Union(a, b, c))

		// Contains must agree with the reference membership for both
		// present and absent ids.
		for probe := 0; probe < 20; probe++ {
			x := uint32(rng.Intn(span + 10))
			if a.Contains(x) != ma[x] {
				t.Fatalf("trial %d: Contains(%d) = %v, want %v", trial, x, a.Contains(x), ma[x])
			}
		}
	}
}

// The k-way union heap path (>2 lists) must agree with iterated 2-way
// unions regardless of list count or skew.
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
		want := refToList(refUnion(sets...))
		if !equal(got, want) {
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
	if got := Union(); len(got) != 0 || got == nil {
		t.Fatalf("Union of nothing must be non-nil empty, got %#v", got)
	}
	if got := Union(a); !equal(got, a) {
		t.Fatalf("Union of one list must return it, got %v", got)
	}
	if got := Intersect(a, a); !equal(got, a) {
		t.Fatalf("Intersect with itself must equal a, got %v", got)
	}
	if FromUnsorted(nil) == nil {
		t.Fatal("FromUnsorted(nil) must be non-nil empty")
	}
	if got := FromUnsorted([]uint32{3, 3, 1, 2, 2, 2}); !equal(got, List{1, 2, 3}) {
		t.Fatalf("FromUnsorted dedup failed: %v", got)
	}
	if got := FromUnsorted([]uint32{1, 2, 3}); !equal(got, List{1, 2, 3}) {
		t.Fatalf("FromUnsorted sorted passthrough failed: %v", got)
	}
	// Max-value boundary: gallop and Contains at the top of the domain.
	top := List{0, 1, 1<<32 - 1}
	if !top.Contains(1<<32 - 1) {
		t.Fatal("Contains must find the maximum uint32")
	}
	if got := Intersect(top, List{1<<32 - 1}); !equal(got, List{1<<32 - 1}) {
		t.Fatalf("Intersect at max uint32 failed: %v", got)
	}
}

// sortIDs has a radix path above the small-slice cutoff; it must agree
// with the comparison sort on every input shape, including high bytes
// that force all four passes and constant bytes that skip passes.
func TestSortIDsAgainstComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spans := []int{2, 50, 300, 70000, 1 << 30}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(400) // crosses the radix cutoff both ways
		span := spans[trial%len(spans)]
		ids := make([]uint32, n)
		want := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(rng.Intn(span))
		}
		copy(want, ids)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sortIDs(ids)
		if !equal(List(ids), List(want)) {
			t.Fatalf("trial %d (n=%d span=%d): radix sort diverged", trial, n, span)
		}
	}
}

// FromRuns consumes what docCollector emits: strictly ascending runs
// concatenated back to back. It must agree with the map reference and
// keep the zero-copy single-run fast path.
func TestFromRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		nRuns := 1 + rng.Intn(6)
		var ids []uint32
		ref := map[uint32]bool{}
		for r := 0; r < nRuns; r++ {
			doc := uint32(rng.Intn(50))
			for i, n := 0, rng.Intn(40); i < n; i++ {
				doc += 1 + uint32(rng.Intn(4))
				// A run boundary may continue ascending from the previous
				// run's tail; only adjacent equals are forbidden.
				if m := len(ids); m > 0 && ids[m-1] == doc {
					continue
				}
				ids = append(ids, doc)
				ref[doc] = true
			}
		}
		got := FromRuns(append([]uint32(nil), ids...))
		if want := refToList(ref); !equal(got, want) {
			t.Fatalf("trial %d: FromRuns(%v) = %v, want %v", trial, ids, got, want)
		}
		assertInvariants(t, got)
	}
	if FromRuns(nil) == nil {
		t.Fatal("FromRuns(nil) must be non-nil empty")
	}
	sorted := []uint32{3, 7, 9}
	if got := FromRuns(sorted); &got[0] != &sorted[0] {
		t.Fatal("single-run input must be returned without copying")
	}
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
	}
}
