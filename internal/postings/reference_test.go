package postings

// The List and NodeList kernels as they stood before the set operations
// were folded into one generic body per kernel: the differential oracle
// the property test and FuzzKernelsAgainstReference compare the live
// kernels with. Bodies are unchanged apart from names (a ref prefix,
// methods turned into functions); the Contains methods, which the
// package no longer has, are left out.

import "slices"

// refFromUnsorted builds a List from ids in any order, sorting only when
// needed and deduplicating in place. The input slice is taken over and
// must not be reused by the caller.
func refFromUnsorted(ids []uint32) List {
	if len(ids) == 0 {
		return List{}
	}
	if !slices.IsSorted(ids) {
		refSortIDs(ids)
	}
	// Dedup in place: w is the write cursor past the last kept id.
	w := 1
	for _, x := range ids[1:] {
		if x != ids[w-1] {
			ids[w] = x
			w++
		}
	}
	return List(ids[:w])
}

// refSortIDs sorts doc ids ascending. Large slices take an LSD radix sort:
// four counting passes over bytes beat comparison sorting's n log n
// branchy compares, and passes whose byte is constant across the slice
// (the high bytes of small doc-id spaces, typically) are skipped
// entirely.
func refSortIDs(ids []uint32) {
	if len(ids) < 64 {
		slices.Sort(ids)
		return
	}
	buf := make([]uint32, len(ids))
	src, dst := ids, buf
	for shift := 0; shift < 32; shift += 8 {
		var count [256]int
		first := src[0] >> shift & 0xff
		constant := true
		for _, x := range src {
			b := x >> shift & 0xff
			constant = constant && b == first
			count[b]++
		}
		if constant {
			continue
		}
		sum := 0
		for i, c := range count {
			count[i] = sum
			sum += c
		}
		for _, x := range src {
			b := x >> shift & 0xff
			dst[count[b]] = x
			count[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &ids[0] {
		copy(ids, src)
	}
}

// refFromRuns builds a List from a concatenation of strictly ascending
// runs — the shape a composite-key B+Tree scan emits once adjacent
// duplicates are dropped: doc ids ascend within each (value, path) run
// and restart at run boundaries. A single-run (already sorted) input is
// returned as-is with no copy or sort — the common case for equality
// probes and single-path indexes; two runs take one linear merge; more
// take the full sort. The input slice is taken over and must not be
// reused by the caller; adjacent elements must not be equal.
func refFromRuns(ids []uint32) List {
	if len(ids) == 0 {
		return List{}
	}
	split := 0 // start of the second run, if any
	for i := 1; i < len(ids); i++ {
		if ids[i] < ids[i-1] {
			if split > 0 { // three or more runs: sort wins
				return refFromUnsorted(ids)
			}
			split = i
		}
	}
	if split == 0 {
		return List(ids)
	}
	return refUnion2(ids[:split], ids[split:])
}

// refGallop returns the smallest index i >= from with l[i] >= x, probing
// exponentially from the cursor and binary-searching the final window.
// Cost is O(log d) in the distance d advanced, which makes intersecting
// a small list against a large one O(small * log(large/small)) instead
// of O(small + large).
func refGallop(l List, from int, x uint32) int {
	n := len(l)
	if from >= n || l[from] >= x {
		return from
	}
	// Invariant: l[lo] < x. Double the step until the probe passes x or
	// the end of the list.
	lo, step := from, 1
	hi := from + 1
	for hi < n && l[hi] < x {
		lo = hi
		step <<= 1
		hi = from + step
	}
	if hi > n {
		hi = n
	}
	// Lower bound of x in (lo, hi].
	lo++
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if l[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// refIntersect returns the ids present in both lists. The smaller list
// drives, galloping through the larger one.
func refIntersect(a, b List) List {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return List{}
	}
	out := make(List, 0, len(a))
	j := 0
	//xqvet:unbounded-ok bounded in-memory set kernel; callers guard per probe, not per element
	for _, x := range a {
		j = refGallop(b, j, x)
		if j >= len(b) {
			break
		}
		if b[j] == x {
			out = append(out, x)
			j++
		}
	}
	return out
}

// refCursor is one input list's head inside the union merge heap.
type refCursor struct {
	val uint32
	li  int // index into the live-list slice
	pos int // position of val within that list
}

// refUnion returns the sorted union of the given lists via a single-pass
// k-way merge over a binary min-heap of list cursors. Two-list unions
// take a plain linear merge; a union of one list returns it unchanged.
func refUnion(lists ...List) List {
	live := make([]List, 0, len(lists))
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			live = append(live, l)
			total += len(l)
		}
	}
	switch len(live) {
	case 0:
		return List{}
	case 1:
		return live[0]
	case 2:
		return refUnion2(live[0], live[1])
	}
	h := make([]refCursor, len(live))
	for i, l := range live {
		h[i] = refCursor{val: l[0], li: i}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		refSiftDown(h, i)
	}
	out := make(List, 0, total)
	for len(h) > 0 {
		c := h[0]
		l := live[c.li]
		// Everything in the min cursor's list up to the next-smallest
		// head can be emitted in one stretch — one siftDown per stretch
		// instead of one per element.
		limit := ^uint32(0)
		if len(h) > 1 {
			limit = h[1].val
			if len(h) > 2 && h[2].val < limit {
				limit = h[2].val
			}
		}
		pos := c.pos
		for {
			v := l[pos]
			if v > limit {
				break
			}
			if n := len(out); n == 0 || out[n-1] != v {
				out = append(out, v)
			}
			pos++
			if pos == len(l) {
				break
			}
		}
		if pos < len(l) {
			h[0].pos = pos
			h[0].val = l[pos]
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		if len(h) > 0 {
			refSiftDown(h, 0)
		}
	}
	return out
}

// refSiftDown restores the min-heap property below index i.
func refSiftDown(h []refCursor, i int) {
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

// refUnion2 merges two sorted lists linearly.
func refUnion2(a, b List) List {
	out := make(List, 0, len(a)+len(b))
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

// refNodesFromRuns builds a NodeList from a concatenation of strictly
// ascending runs — the shape a composite-key B+Tree scan emits: within
// each (value, path) key run the (docID, ordinal) suffix ascends, and
// restarts at run boundaries. A single-run input is returned as-is with
// no copy; two runs take one linear merge; more take a full sort. The
// input slice is taken over and must not be reused by the caller;
// adjacent elements must not be equal.
func refNodesFromRuns(refs []uint64) NodeList {
	if len(refs) == 0 {
		return NodeList{}
	}
	split := 0 // start of the second run, if any
	for i := 1; i < len(refs); i++ {
		if refs[i] < refs[i-1] {
			if split > 0 { // three or more runs: sort wins
				slices.Sort(refs)
				return refDedupNodes(refs)
			}
			split = i
		}
	}
	if split == 0 {
		return NodeList(refs)
	}
	return refUnionNodes2(refs[:split], refs[split:])
}

// refDedupNodes removes adjacent duplicates in place (input already sorted).
func refDedupNodes(refs []uint64) NodeList {
	w := 1
	for i := 1; i < len(refs); i++ {
		if refs[i] != refs[w-1] {
			refs[w] = refs[i]
			w++
		}
	}
	return NodeList(refs[:w])
}

// refNodeLowerBound returns the smallest index in [lo, hi) whose element is
// >= ref, or hi when none is.
func refNodeLowerBound(l NodeList, lo, hi int, ref uint64) int {
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

// refGallopNodes returns the smallest index i >= from with l[i] >= ref,
// probing exponentially from the cursor and binary-searching the final
// window — the NodeList twin of refGallop.
func refGallopNodes(l NodeList, from int, ref uint64) int {
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
	return refNodeLowerBound(l, lo+1, hi, ref)
}

// refNextInDocs returns the smallest index i >= from whose node lies in a
// document of docs, or len(l) when none does. The two lists leapfrog:
// each gallops to the other's current document, so skipping the hits of
// documents docs lacks costs a few searches, not a pass over them.
func refNextInDocs(l NodeList, from int, docs List) int {
	j := 0
	for from < len(l) {
		d := NodeDoc(l[from])
		if j = refGallop(docs, j, d); j >= len(docs) {
			break
		}
		if docs[j] == d {
			return from
		}
		from = refGallopNodes(l, from, PackNode(docs[j], 0))
	}
	return len(l)
}

// refIntersectNodes returns the node references present in both lists. The
// smaller list drives, galloping through the larger one.
func refIntersectNodes(a, b NodeList) NodeList {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return NodeList{}
	}
	out := make(NodeList, 0, len(a))
	j := 0
	for i := 0; i < len(a); i++ {
		j = refGallopNodes(b, j, a[i])
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

// refUnionNodes2 merges two sorted lists linearly.
func refUnionNodes2(a, b NodeList) NodeList {
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
