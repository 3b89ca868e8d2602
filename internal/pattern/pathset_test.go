package pattern

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
)

// docFor builds a document whose one deepest node has the label path
// path, so walking it interns path and its prefixes.
func docFor(path []Label) *xdm.Node {
	doc := &xdm.Node{Kind: xdm.DocumentNode}
	parent := doc
	for _, l := range path {
		n := &xdm.Node{Name: xdm.QName{Space: l.Space, Local: l.Local}, Parent: parent}
		switch l.Kind {
		case AttributeLabel:
			n.Kind = xdm.AttributeNode
			parent.Attrs = append(parent.Attrs, n)
			continue
		case ElementLabel:
			n.Kind = xdm.ElementNode
		case TextLabel:
			n.Kind = xdm.TextNode
		case CommentLabel:
			n.Kind = xdm.CommentNode
		case PILabel:
			n.Kind = xdm.ProcessingInstructionNode
		}
		parent.Children = append(parent.Children, n)
		parent = n
	}
	return doc
}

// FuzzPathSetAgainstMatch holds a path set to the matcher it replaces:
// for a pattern and label paths interned in two batches, one before
// Dict.Match decides the set and one after, Has equals Pattern.Match on
// every ID — decided IDs from the set, later ones on demand — and again
// after Extend has decided the later ones. Has records nothing; Extend
// covers the whole dictionary, with the IDs ascending.
func FuzzPathSetAgainstMatch(f *testing.F) {
	for _, s := range []struct {
		src   string
		seed  int64
		split uint8
	}{
		{"//a/@b", 1, 4},
		{richDecls + "/x:a//b/text()", 2, 0},
		{"//node()", 3, 12},
		{"/a/descendant-or-self::b/comment()", 4, 7},
		{richDecls + "//*:b/processing-instruction(t)", 5, 255},
	} {
		f.Add(s.src, s.seed, s.split)
	}
	f.Fuzz(func(t *testing.T, src string, seed int64, split uint8) {
		// descendant-or-self::t doubles the alternatives: bound the
		// input so one case cannot take the normal form exponential.
		if len(src) > 256 || strings.Count(src, "descendant-or-self::") > 4 {
			return
		}
		p, err := Parse(src)
		if err != nil {
			return
		}
		r := rand.New(rand.NewSource(seed))
		paths := make([][]Label, 16)
		for i := range paths {
			paths[i] = randRichPath(r, 1+r.Intn(5))
		}
		cut := int(split) % (len(paths) + 1)
		d, w := NewDict(), &Walker{}
		intern := func(batch [][]Label) {
			for _, path := range batch {
				d.IDs(w, docFor(path))
			}
		}
		check := func(s *PathSet, when string) {
			for id, labels := range d.Paths() {
				if got, want := s.Has(uint32(id)), p.Match(labels); got != want {
					t.Fatalf("%s: Has(%d) = %v, Match(%v) = %v", when, id, got, labels, want)
				}
			}
		}
		intern(paths[:cut])
		s := d.Match(p)
		n, ids := s.n, slices.Clone(s.ids)
		check(s, "as decided")
		intern(paths[cut:])
		check(s, "after more paths")
		if s.n != n || !slices.Equal(s.ids, ids) {
			t.Fatalf("Has recorded: length %d → %d, IDs %v → %v", n, s.n, ids, s.ids)
		}
		s.Extend()
		check(s, "extended")
		if s.n != len(d.Paths()) || !slices.IsSorted(s.ids) {
			t.Fatalf("extended set has length %d of %d paths, IDs %v", s.n, len(d.Paths()), s.ids)
		}
	})
}
