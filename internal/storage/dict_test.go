package storage

import (
	"fmt"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
)

// TestProbesDuringInsertsOfNewPaths runs path-set probes while
// inserts bring paths the column's dictionary has not seen, so a probe
// reads the dictionary's paths while a write interns new ones (the
// -race build checks the locking). The probed index is the column's
// second: the first index's InsertDoc interns each new path under the
// first index's lock, which orders nothing against a probe of the
// second. Each probe sees a prefix of the committed documents, never
// fewer than the probe before it, and at the end the index and the
// synopsis agree on every path.
func TestProbesDuringInsertsOfNewPaths(t *testing.T) {
	c := NewCatalog()
	tab, err := c.CreateTable("t", []Column{{Name: "k", Type: Integer}, {Name: "d", Type: XML}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tab.CreateXMLIndex("first", "d", "//@v", xmlindex.Varchar); err != nil {
		t.Fatal(err)
	}
	xi, err := tab.CreateXMLIndex("v", "d", "//@v", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	dict := tab.Synopsis("d").Dict()
	const docs = 200
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := range docs {
			// Every document puts its attribute under a new element name.
			src := fmt.Sprintf(`<r><e%d v="%d"/></r>`, i, i)
			if _, err := tab.Insert([]Cell{{V: xdm.NewInteger(int64(i))}, {V: xdm.NewString(src)}}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// One set shared by both probers, as a cached plan shares it: decided
	// before the inserts, it meets nearly every path on demand.
	all := dict.Match(pattern.MustParse("/r/*/@v"))
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0
			for {
				select {
				case <-done:
					return
				default:
				}
				nodes, _, _, err := xi.Index.NodeList(xmlindex.Probe{Paths: all})
				if err != nil {
					t.Error(err)
					return
				}
				if len(nodes) < seen || len(nodes) > docs {
					t.Errorf("probe saw %d documents after %d", len(nodes), seen)
					return
				}
				seen = len(nodes)
				one := pattern.MustParse(fmt.Sprintf("/r/e%d/@v", seen/2))
				if n, _, _, err := xi.Index.NodeList(xmlindex.Probe{Paths: dict.Match(one)}); err != nil || len(n) > 1 {
					t.Errorf("probe for %s: %d refs, %v", one, len(n), err)
					return
				}
			}
		}()
	}
	wg.Wait()
	syn := tab.Synopsis("d")
	for i := range docs {
		p := pattern.MustParse(fmt.Sprintf("/r/e%d/@v", i))
		paths := dict.Match(p)
		nodes, _, _, err := xi.Index.NodeList(xmlindex.Probe{Paths: paths})
		if counted, _ := syn.Count(paths); err != nil || len(nodes) != 1 || counted != 1 {
			t.Fatalf("%s: index %d refs (%v), synopsis %d nodes; want 1 and 1", p, len(nodes), err, counted)
		}
	}
	if n := syn.Len(); n != 1+2*docs {
		t.Fatalf("synopsis holds %d paths, want %d", n, 1+2*docs)
	}
}
