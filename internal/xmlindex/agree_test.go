package xmlindex

import (
	"bytes"
	"slices"
	"testing"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/synopsis"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

// agreePatterns cover every label kind pattern.Walker emits, a namespaced
// path and a descendant path.
var agreePatterns = []string{
	"//*",
	"//@*",
	"//text()",
	"//node()",
	"//comment()",
	"//processing-instruction()",
	`declare namespace o="urn:o"; /order/o:lineitem/@o:qty`,
	"//a//a",
}

// FuzzIndexSynopsisAgree holds index maintenance, bulk extraction and the
// path synopsis to one node population and one path dictionary, which
// every index and the synopsis share as a column's do: every key's path
// ID names a path the index pattern matches; on an untyped document a
// varchar index stores, per path ID and in total, exactly the nodes the
// synopsis counts, and the synopsis's count over the pattern's path set
// is the number of keys on the set's IDs; an Extractor produces exactly the keys InsertDoc
// stores; and InsertDoc+DeleteDoc, like AddDoc+RemoveDoc, leave nothing
// behind.
func FuzzIndexSynopsisAgree(f *testing.F) {
	for _, seed := range []string{
		`<order xmlns:o="urn:o"><o:lineitem price="5" o:qty="2">text<!--c--><?pi x?></o:lineitem><lineitem/></order>`,
		`<a><b><a k="1">1</a></b>tail<?t?><a><a/></a></a>`,
		`<r xmlns="urn:d"><x y="1"/><!--only--></r>`,
		`<?top?><e/><!--after-->`,
	} {
		f.Add(seed)
	}
	pats := make([]*pattern.Pattern, len(agreePatterns))
	for i, src := range agreePatterns {
		pats[i] = pattern.MustParse(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := xmlparse.Parse(src)
		if err != nil {
			return
		}
		dict := pattern.NewDict()
		syn := synopsis.New(dict)
		syn.AddDoc(doc)
		for i, p := range pats {
			ix := New("agree", p, Varchar, dict)
			if err := ix.InsertDoc(1, doc); err != nil {
				t.Fatalf("%s: InsertDoc: %v", agreePatterns[i], err)
			}
			if nodes, _ := syn.Match(p); int64(ix.Stats().Entries) != nodes {
				t.Fatalf("%s: index holds %d entries, synopsis counts %d nodes", agreePatterns[i], ix.Stats().Entries, nodes)
			}
			var stored [][]byte
			perPath := map[uint32]int64{}
			if _, err := ix.tree.ScanCheck(nil, nil, nil, func(k, _ []byte) bool {
				stored = append(stored, k)
				pathID, _, _ := decodeSuffix(k)
				perPath[pathID]++
				return true
			}); err != nil {
				t.Fatal(err)
			}
			set := dict.Match(p)
			var inSet int64
			for id := range dict.Paths() {
				if set.Has(uint32(id)) {
					inSet += perPath[uint32(id)]
				}
			}
			if nodes, _ := syn.Count(set); nodes != inSet || inSet != int64(len(stored)) {
				t.Fatalf("%s: synopsis counts %d nodes on the path set, keys on it %d of %d", agreePatterns[i], nodes, inSet, len(stored))
			}
			paths := dict.Paths()
			for pathID, n := range perPath {
				path := paths[pathID]
				if !p.Match(path) || !set.Has(pathID) {
					t.Fatalf("%s: a key names path %d %v, which the pattern does not match", agreePatterns[i], pathID, path)
				}
				if nodes, _ := syn.Match(exactPattern(t, path)); nodes != n {
					t.Fatalf("%s: path %d %v has %d entries, synopsis counts %d nodes", agreePatterns[i], pathID, path, n, nodes)
				}
			}
			e := ix.NewExtractor()
			if err := e.AddDoc(1, doc); err != nil {
				t.Fatalf("%s: AddDoc: %v", agreePatterns[i], err)
			}
			if run := e.Run(); !slices.EqualFunc(run, stored, bytes.Equal) {
				t.Fatalf("%s: extractor keys %q, InsertDoc stored %q", agreePatterns[i], run, stored)
			}
			ix.DeleteDoc(1, doc)
			if n := ix.Stats().Entries; n != 0 {
				t.Fatalf("%s: %d entries left after DeleteDoc", agreePatterns[i], n)
			}
		}
		syn.RemoveDoc(doc)
		if n := syn.Len(); n != 0 {
			t.Fatalf("%d synopsis paths left after RemoveDoc", n)
		}
	})
}

// exactPattern is the pattern that matches exactly the label path path.
func exactPattern(t *testing.T, path []pattern.Label) *pattern.Pattern {
	t.Helper()
	steps := make([]pattern.Step, len(path))
	for i, l := range path {
		s := pattern.Step{Axis: pattern.Child, Test: pattern.NameTest, Space: l.Space, Local: l.Local}
		switch l.Kind {
		case pattern.AttributeLabel:
			s.Axis = pattern.Attribute
		case pattern.TextLabel:
			s = pattern.Step{Test: pattern.TextTest}
		case pattern.CommentLabel:
			s = pattern.Step{Test: pattern.CommentTest}
		case pattern.PILabel:
			s = pattern.Step{Test: pattern.PITest, PITarget: l.Local}
		}
		steps[i] = s
	}
	p, err := pattern.FromSteps(steps)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
