package pattern

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// This file keeps the map-based containment and matching procedures the
// bitset kernels replaced, as a differential oracle: the kernels must
// give the same verdict on every pattern pair and label path.

func refContains(i, q *Pattern) bool {
	for _, qalt := range q.alternatives {
		if !refAltContained(i.alternatives, qalt) {
			return false
		}
	}
	return true
}

type refState struct{ alt, pos int }

func refAltContained(ialts [][]nstep, qalt []nstep) bool {
	start := map[refState]bool{}
	for a := range ialts {
		start[refState{a, 0}] = true
	}
	sets := []map[refState]bool{start}
	for _, qs := range qalt {
		var next []map[refState]bool
		for _, s := range sets {
			if qs.skipBefore {
				for _, s2 := range refSkipFixpoint(ialts, s) {
					next = append(next, refConsume(ialts, s2, qs))
				}
			} else {
				next = append(next, refConsume(ialts, s, qs))
			}
		}
		sets = refDedupSets(next)
		if len(sets) == 0 {
			return false
		}
	}
	for _, s := range sets {
		accepted := false
		for st := range s {
			if st.pos == len(ialts[st.alt]) {
				accepted = true
				break
			}
		}
		if !accepted {
			return false
		}
	}
	return true
}

func refSkipFixpoint(ialts [][]nstep, s map[refState]bool) []map[refState]bool {
	fresh := nstep{test: NameTest, space: "\x00fresh-ns", local: "\x00fresh"}
	out := []map[refState]bool{s}
	seen := map[string]bool{refSetKey(s): true}
	cur := s
	for {
		nxt := refConsume(ialts, cur, fresh)
		k := refSetKey(nxt)
		if seen[k] {
			return out
		}
		seen[k] = true
		out = append(out, nxt)
		cur = nxt
	}
}

func refConsume(ialts [][]nstep, s map[refState]bool, qs nstep) map[refState]bool {
	next := map[refState]bool{}
	for st := range s {
		alt := ialts[st.alt]
		if st.pos >= len(alt) {
			continue
		}
		is := alt[st.pos]
		if is.skipBefore {
			next[st] = true
		}
		if implies(qs, is) {
			next[refState{st.alt, st.pos + 1}] = true
		}
	}
	return next
}

func refSetKey(s map[refState]bool) string {
	keys := make([]refState, 0, len(s))
	for st := range s {
		keys = append(keys, st)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].alt != keys[j].alt {
			return keys[i].alt < keys[j].alt
		}
		return keys[i].pos < keys[j].pos
	})
	var b strings.Builder
	for _, st := range keys {
		fmt.Fprintf(&b, "%d.%d;", st.alt, st.pos)
	}
	return b.String()
}

func refDedupSets(sets []map[refState]bool) []map[refState]bool {
	seen := map[string]bool{}
	var out []map[refState]bool
	for _, s := range sets {
		k := refSetKey(s)
		if !seen[k] {
			seen[k] = true
			out = append(out, s)
		}
	}
	return out
}

func refMatch(p *Pattern, path []Label) bool {
	for _, alt := range p.alternatives {
		if refMatchAlt(alt, path) {
			return true
		}
	}
	return false
}

func refMatchAlt(steps []nstep, path []Label) bool {
	cur := map[int]bool{0: true}
	for _, s := range steps {
		next := map[int]bool{}
		for pos := range cur {
			if s.skipBefore {
				for skip := pos; skip < len(path); skip++ {
					if s.matchesLabel(path[skip]) {
						next[skip+1] = true
					}
				}
			} else if pos < len(path) && s.matchesLabel(path[pos]) {
				next[pos+1] = true
			}
		}
		if len(next) == 0 {
			return false
		}
		cur = next
	}
	return cur[len(path)]
}

const (
	nsX = "urn:x"
	nsY = "urn:y"
)

// richDecls declares the prefixes randRichPattern's name tests use.
const richDecls = `declare namespace x="` + nsX + `"; declare namespace y="` + nsY + `"; `

// randRichPattern generates a random XMLPATTERN that exercises every
// construct the normal form handles: namespaced and wildcard name tests,
// a default element namespace, self::, descendant::,
// descendant-or-self::t, kind tests and attributes.
func randRichPattern(r *rand.Rand) string {
	var b strings.Builder
	b.WriteString(richDecls)
	if r.Intn(6) == 0 {
		b.WriteString(`declare default element namespace "` + nsX + `"; `)
	}
	names := []string{"a", "b", "c", "x:a", "*:b", "x:*", "y:c", "*"}
	kinds := []string{"node()", "text()", "comment()", "processing-instruction()", "processing-instruction(t)"}
	axes := []string{"", "", "", "descendant::", "descendant-or-self::", "self::"}
	steps := 1 + r.Intn(4)
	for i := 0; i < steps; i++ {
		if r.Intn(3) == 0 {
			b.WriteString("//")
		} else {
			b.WriteString("/")
		}
		last := i == steps-1
		switch {
		case r.Intn(6) == 0 && (last || r.Intn(4) == 0):
			b.WriteString("@" + names[r.Intn(len(names))])
		case r.Intn(5) == 0:
			b.WriteString(axes[r.Intn(len(axes))] + kinds[r.Intn(len(kinds))])
		default:
			b.WriteString(axes[r.Intn(len(axes))] + names[r.Intn(len(names))])
		}
	}
	return b.String()
}

// randRichPath generates a label path over the labels randRichPattern's
// tests distinguish, plus a name no pattern mentions.
func randRichPath(r *rand.Rand, n int) []Label {
	spaces := []string{"", nsX, nsY, "urn:z"}
	locals := []string{"a", "b", "c", "t", "zz"}
	path := make([]Label, n)
	for i := range path {
		path[i] = Label{Kind: ElementLabel, Space: spaces[r.Intn(len(spaces))], Local: locals[r.Intn(len(locals))]}
	}
	if n > 0 {
		last := &path[n-1]
		switch r.Intn(6) {
		case 0:
			last.Kind, last.Space = AttributeLabel, spaces[r.Intn(2)]
		case 1:
			*last = Label{Kind: TextLabel}
		case 2:
			*last = Label{Kind: CommentLabel}
		case 3:
			*last = Label{Kind: PILabel, Local: locals[2+r.Intn(2)]}
		}
	}
	return path
}

// richPool parses n random rich patterns, skipping the ones the
// grammar or the normal form rejects.
func richPool(t testing.TB, r *rand.Rand, n int) []*Pattern {
	t.Helper()
	var pool []*Pattern
	for len(pool) < n {
		if p, err := Parse(randRichPattern(r)); err == nil {
			pool = append(pool, p)
		}
	}
	return pool
}

// TestContainsMatchesReference compares the bitset containment kernel
// with the map-based reference on every ordered pair of a pool of random
// patterns.
func TestContainsMatchesReference(t *testing.T) {
	pool := richPool(t, rand.New(rand.NewSource(35)), 400)
	contained := 0
	for _, i := range pool {
		for _, q := range pool {
			got, want := Contains(i, q), refContains(i, q)
			if got != want {
				t.Fatalf("Contains(%q, %q) = %v, reference says %v", i, q, got, want)
			}
			if got {
				contained++
			}
		}
	}
	t.Logf("%d of %d pairs contained", contained, len(pool)*len(pool))
	// The verdicts must not be one-sided, or the comparison proves little.
	if pairs := len(pool) * len(pool); contained < pairs/50 || contained > pairs/2 {
		t.Errorf("%d of %d pairs contained: the pool does not exercise both verdicts", contained, pairs)
	}
}

// TestContainsWideAutomatonMatchesReference covers index automata whose
// state sets span several words, and lists of sets outgrow the stack
// buffers: each descendant-or-self::t step doubles the alternatives.
func TestContainsWideAutomatonMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	queries := richPool(t, r, 40)
	// Tests that conjoin with each other keep both branches alive.
	tests := []string{"*", "x:*"}
	for _, k := range []int{4, 6, 8} {
		var b strings.Builder
		b.WriteString(richDecls)
		for j := 0; j < k; j++ {
			b.WriteString("/descendant-or-self::" + tests[r.Intn(len(tests))])
		}
		i := MustParse(b.String())
		if n := len(i.alternatives); n < 1<<(k-2) {
			t.Fatalf("%s has %d alternatives, want at least %d", i, n, 1<<(k-2))
		}
		for _, q := range queries {
			if got, want := Contains(i, q), refContains(i, q); got != want {
				t.Fatalf("Contains(%q, %q) = %v, reference says %v", i, q, got, want)
			}
			if got, want := Contains(q, i), refContains(q, i); got != want {
				t.Fatalf("Contains(%q, %q) = %v, reference says %v", q, i, got, want)
			}
		}
	}
}

// TestMatchMatchesReference compares the bool-slice Match DP with the
// map-based reference: over every enumerated path to depth 4, random
// namespaced paths, and paths long enough to leave the stack buffers.
func TestMatchMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(36))
	pool := richPool(t, r, 200)
	for _, s := range []string{"//a//b/@c", "//node()", "//*:b//text()", "/descendant::a"} {
		pool = append(pool, MustParse(richDecls+s))
	}
	paths := enumeratePaths(4)
	for i := 0; i < 2000; i++ {
		paths = append(paths, randRichPath(r, 1+r.Intn(8)))
	}
	long := []Label{}
	for len(long) < 44 {
		long = append(long, el("", "a"), el(nsX, "b"))
	}
	long = append(long, at("", "c"))
	paths = append(paths, long, long[:len(long)-1], randRichPath(r, 40), randRichPath(r, 63))
	matchedLong := 0
	for _, p := range pool {
		for _, path := range paths {
			got, want := p.Match(path), refMatch(p, path)
			if got != want {
				t.Fatalf("Match(%q, %v) = %v, reference says %v", p, path, got, want)
			}
			if got && len(path) >= 40 {
				matchedLong++
			}
		}
	}
	if matchedLong == 0 {
		t.Error("no pattern matched a long path: the heap-buffer branch went untested")
	}
}

// FuzzContainsAgainstReference feeds two pattern strings to Contains and
// checks its verdict against the map-based reference and, when it says
// contained, against Match on a sample of concrete paths.
func FuzzContainsAgainstReference(f *testing.F) {
	for _, s := range [][2]string{
		{"//lineitem/@price", "//order/lineitem/@price"},
		{"//@*", "//a/*/b//c/@price"},
		{"//*:b", richDecls + "//x:a/descendant-or-self::x:b"},
		{"//node()", "/a/self::node()/comment()"},
		{richDecls + "//x:*", "//a/descendant::text()"},
		{"/a//b", "/a/descendant-or-self::b/c"},
	} {
		f.Add(s[0], s[1])
	}
	r := rand.New(rand.NewSource(37))
	paths := enumeratePaths(3)
	for i := 0; i < 500; i++ {
		paths = append(paths, randRichPath(r, 1+r.Intn(6)))
	}
	f.Fuzz(func(t *testing.T, is, qs string) {
		// descendant-or-self::t doubles the alternatives: bound the
		// input so one case cannot take the normal form exponential.
		for _, s := range []string{is, qs} {
			if len(s) > 256 || strings.Count(s, "descendant-or-self::") > 4 {
				return
			}
		}
		i, err := Parse(is)
		if err != nil {
			return
		}
		q, err := Parse(qs)
		if err != nil {
			return
		}
		got := Contains(i, q)
		if want := refContains(i, q); got != want {
			t.Fatalf("Contains(%q, %q) = %v, reference says %v", is, qs, got, want)
		}
		if !got {
			return
		}
		for _, path := range paths {
			if q.Match(path) && !i.Match(path) {
				t.Fatalf("UNSOUND: Contains(%q, %q) but %v matches the query only", is, qs, path)
			}
		}
	})
}

// TestMatchAllocs: Match on a path that fits the stack buffers makes no
// allocation; it runs per candidate node at index maintenance and per
// synopsis path at plan time.
func TestMatchAllocs(t *testing.T) {
	p := MustParse("//lineitem/@price")
	for _, n := range []int{3, 31} {
		path := make([]Label, 0, n)
		for len(path) < n-2 {
			path = append(path, el("", "order"))
		}
		path = append(path, el("", "lineitem"), at("", "price"))
		if !p.Match(path) {
			t.Fatalf("%s should match a %d-label path", p, n)
		}
		if got := testing.AllocsPerRun(100, func() { p.Match(path) }); got != 0 {
			t.Errorf("Match on a %d-label path: %.0f allocs, want 0", n, got)
		}
	}
}

// TestContainsAllocs bounds the allocations of one containment decision
// on an index/query pair from the benchmark; it runs per (predicate,
// index) pair on every plan-cache miss.
func TestContainsAllocs(t *testing.T) {
	idx := MustParse("//lineitem/@price")
	query := MustParse("//order/lineitem/@price")
	if !Contains(idx, query) {
		t.Fatalf("%s should contain %s", idx, query)
	}
	if got := testing.AllocsPerRun(100, func() { Contains(idx, query) }); got > 12 {
		t.Errorf("Contains: %.0f allocs, want at most 12", got)
	}
}
