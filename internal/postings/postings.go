// Package postings implements the sorted sets the probe pipeline
// decodes and combines: document-id lists (List) and packed
// (docID, ordinal) node-reference lists (NodeList). Both are decoded
// from one B+Tree walk and combined with the same kernels — galloping
// (exponential-search) intersection, linear and k-way merge union, and
// a run-splitting decoder that radix-sorts many runs — each written
// once, generic over the element width. Sorted slices replace the
// map[uint32]bool document sets the engine used to build per probe:
// combination does no hashing and no per-element map allocation, and
// results stay sorted, so the document pre-filter of Definition 1 is
// deterministic by construction.
//
// Lists are immutable by convention: operations never mutate their
// inputs, and may return an input unchanged when the result equals it
// (Union of one list, Intersect with itself). Callers must not mutate a
// List after sharing it.
package postings

import "slices"

// List is a sorted set of document ids: strictly ascending, no
// duplicates. The zero value (nil) is an empty list; operations return
// non-nil empty lists so callers can distinguish "empty filter" from "no
// filter" (nil) where they need to.
type List []uint32

// elem is a sorted set's element: a document id or a packed node
// reference. Every kernel below has one body over it.
type elem interface{ ~uint32 | ~uint64 }

// FromRuns builds a List from a concatenation of strictly ascending
// runs — the shape a composite-key B+Tree scan emits: ids ascend within
// each (value, path) run and restart at run boundaries. The decoder
// sorts inside the input slice and its spare capacity, and the result
// may share them: the caller must leave both alone while it uses the
// result. Adjacent elements must not be equal.
func FromRuns(ids []uint32) List { return fromRuns(List(ids)) }

// Intersect returns the ids present in both lists.
func Intersect(a, b List) List { return intersect(a, b) }

// Union returns the sorted union of the given lists.
func Union(lists ...List) List { return union(lists) }

// fromRuns sorts and deduplicates a concatenation of strictly ascending
// runs in place. A single run (already sorted) is returned as-is with no
// copy — the common case for equality probes and single-path indexes;
// two runs take one linear merge; more take the radix sort.
func fromRuns[S ~[]E, E elem](s S) S {
	if len(s) == 0 {
		return S{}
	}
	split := 0 // start of the second run, if any
	for i := 1; i < len(s); i++ {
		if s[i] < s[i-1] {
			if split > 0 { // three or more runs: sort wins
				radixSort(s)
				return slices.Compact(s)
			}
			split = i
		}
	}
	if split == 0 {
		return s
	}
	return union2(s[:split], s[split:])
}

// radixSort sorts s ascending. Short slices take a comparison sort;
// longer ones an LSD radix sort whose counting passes over bytes beat
// n log n branchy compares. A byte that is the same in every element —
// the high bytes of a small doc-id space, of short documents' ordinals —
// would sort as the identity, so its pass is skipped. The scratch the
// passes alternate with is s's spare capacity when that holds a copy of
// s, so a caller that keeps its buffer sorts without allocating.
func radixSort[E elem](s []E) {
	if len(s) < 64 {
		slices.Sort(s)
		return
	}
	var diff E // bits that differ from s[0] somewhere
	for _, x := range s {
		diff |= x ^ s[0]
	}
	if diff == 0 {
		return
	}
	buf := s[len(s):cap(s)]
	if len(buf) < len(s) {
		buf = make([]E, len(s))
	}
	src, dst := s, buf[:len(s)]
	for shift := 0; diff>>shift != 0; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var count [256]int
		for _, x := range src {
			count[byte(x>>shift)]++
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, x := range src {
			b := byte(x >> shift)
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}

// gallop returns the smallest index i >= from with s[i] >= x, probing
// exponentially from the cursor and binary-searching the final window.
// Cost is O(log d) in the distance d advanced, which makes intersecting
// a small list against a large one O(small * log(large/small)) instead
// of O(small + large).
func gallop[E elem](s []E, from int, x E) int {
	n := len(s)
	if from >= n || s[from] >= x {
		return from
	}
	// Invariant: s[lo] < x. Double the step until the probe passes x or
	// the end of the list.
	lo, step := from, 1
	hi := from + 1
	for hi < n && s[hi] < x {
		lo = hi
		step <<= 1
		hi = from + step
	}
	hi = min(hi, n)
	// Lower bound of x in (lo, hi].
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// intersect returns the elements present in both sets. The smaller set
// drives, galloping through the larger one.
func intersect[S ~[]E, E elem](a, b S) S {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return S{}
	}
	out := make(S, 0, len(a))
	j := 0
	for i := 0; i < len(a); i++ {
		j = gallop(b, j, a[i])
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

// union2 merges two sorted sets linearly.
func union2[S ~[]E, E elem](a, b S) S {
	out := make(S, 0, len(a)+len(b))
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

// cursor is one input set's head inside the union merge heap.
type cursor[E elem] struct {
	val E
	li  int // index into the live-set slice
	pos int // position of val within that set
}

// union returns the sorted union of the given sets via a single-pass
// k-way merge over a binary min-heap of set cursors. Two-set unions
// take the linear merge; a union of one set returns it unchanged.
func union[S ~[]E, E elem](sets []S) S {
	live := make([]S, 0, len(sets))
	total := 0
	for _, s := range sets {
		if len(s) > 0 {
			live = append(live, s)
			total += len(s)
		}
	}
	switch len(live) {
	case 0:
		return S{}
	case 1:
		return live[0]
	case 2:
		return union2(live[0], live[1])
	}
	h := make([]cursor[E], len(live))
	for i, s := range live {
		h[i] = cursor[E]{val: s[0], li: i}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	out := make(S, 0, total)
	for len(h) > 0 {
		c := h[0]
		s := live[c.li]
		// Everything in the min cursor's set up to the next-smallest
		// head can be emitted in one stretch — one siftDown per stretch
		// instead of one per element.
		limit := ^E(0)
		if len(h) > 1 {
			limit = h[1].val
			if len(h) > 2 && h[2].val < limit {
				limit = h[2].val
			}
		}
		pos := c.pos
		for {
			v := s[pos]
			if v > limit {
				break
			}
			if n := len(out); n == 0 || out[n-1] != v {
				out = append(out, v)
			}
			pos++
			if pos == len(s) {
				break
			}
		}
		if pos < len(s) {
			h[0].pos = pos
			h[0].val = s[pos]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			siftDown(h, 0)
		}
	}
	return out
}

// siftDown restores the min-heap property below index i.
func siftDown[E elem](h []cursor[E], i int) {
	for {
		min := i
		if l := 2*i + 1; l < len(h) && h[l].val < h[min].val {
			min = l
		}
		if r := 2*i + 2; r < len(h) && h[r].val < h[min].val {
			min = r
		}
		if min == i {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}
