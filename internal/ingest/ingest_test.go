package ingest

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

func intCell(i int) xdm.Value { return xdm.NewInteger(int64(i)) }

func dbl(f float64) xdm.Value { return xdm.NewDouble(f) }

func dblp(f float64) *xdm.Value { v := xdm.NewDouble(f); return &v }

func docsTable(t *testing.T) *storage.Table {
	t.Helper()
	tab, err := storage.NewCatalog().CreateTable("docs", []storage.Column{
		{Name: "k", Type: storage.Integer},
		{Name: "d", Type: storage.XML},
	})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// lowerShardFloor lets a load of a few files run more than one shard
// for the rest of the test.
func lowerShardFloor(t *testing.T, n int) {
	old := guard.ShardFloor
	guard.ShardFloor = n
	t.Cleanup(func() { guard.ShardFloor = old })
}

func writeCorpus(t *testing.T, dir string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		doc := fmt.Sprintf(`<order><custid>%d</custid><lineitem price="%d.50"/><lineitem price="%d"/></order>`, i, i, i+1000)
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("doc-%04d.xml", i)), []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLoadDirMatchesPerRowInsert is the pipeline-level equivalence
// check: a parallel streaming load must leave table and indexes
// indistinguishable from per-row Insert of the same corpus.
func TestLoadDirMatchesPerRowInsert(t *testing.T) {
	const n = 60
	dir := t.TempDir()
	writeCorpus(t, dir, n)

	bulk := docsTable(t)
	bxi, err := bulk.CreateXMLIndex("li", "d", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(bulk, dir, Options{Parallelism: 4})
	if err != nil || loaded != n {
		t.Fatalf("LoadDir = %d, %v", loaded, err)
	}

	ref := docsTable(t)
	rxi, err := ref.CreateXMLIndex("li", "d", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	entries, _ := os.ReadDir(dir)
	for i, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		doc, err := xmlparse.Parse(string(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Insert([]storage.Cell{{V: intCell(i)}, {Doc: doc}}); err != nil {
			t.Fatal(err)
		}
	}

	if bulk.Len() != ref.Len() {
		t.Fatalf("row counts: bulk %d, ref %d", bulk.Len(), ref.Len())
	}
	if b, r := bxi.Index.Stats().Entries, rxi.Index.Stats().Entries; b != r {
		t.Fatalf("index entries: bulk %d, ref %d", b, r)
	}
	// Row cells line up in key order.
	brows, rrows := bulk.Rows(), ref.Rows()
	for i := range brows {
		if got, want := brows[i].Cells[0].V.Lexical(), rrows[i].Cells[0].V.Lexical(); got != want {
			t.Fatalf("row %d key: %q vs %q", i, got, want)
		}
	}
	// Probes agree on every doc set.
	for _, probe := range []xmlindex.Probe{
		{Range: xmlindex.Range{Lo: dblp(1000), LoInc: true}},
		{Range: xmlindex.Equality(dbl(30.5))},
		{},
	} {
		be, _, _, err := bxi.Index.NodeList(probe)
		if err != nil {
			t.Fatal(err)
		}
		re, _, _, err := rxi.Index.NodeList(probe)
		if err != nil {
			t.Fatal(err)
		}
		if len(be) != len(re) {
			t.Fatalf("probe %+v: %d vs %d entries", probe, len(be), len(re))
		}
		for i := range be {
			// DocIDs may differ in absolute value only if the tables
			// diverged in insert history; both start empty, so they match.
			if be[i] != re[i] {
				t.Fatalf("probe %+v entry %d: %+v vs %+v", probe, i, be[i], re[i])
			}
		}
	}
}

// TestLoadDirAtomicRollback: a malformed file anywhere in the corpus
// loads nothing and the error names the file.
func TestLoadDirAtomicRollback(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, 10)
	if err := os.WriteFile(filepath.Join(dir, "doc-0005-bad.xml"), []byte("<broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	tab := docsTable(t)
	xi, err := tab.CreateXMLIndex("li", "d", "//lineitem/@price", xmlindex.Double)
	if err != nil {
		t.Fatal(err)
	}
	lowerShardFloor(t, 2)
	n, err := LoadDir(tab, dir, Options{Parallelism: 3})
	if err == nil || !strings.Contains(err.Error(), "doc-0005-bad.xml") {
		t.Fatalf("err = %v, want it to name doc-0005-bad.xml", err)
	}
	if n != 0 || tab.Len() != 0 || xi.Index.Stats().Entries != 0 {
		t.Fatalf("failed load left residue: n=%d rows=%d entries=%d", n, tab.Len(), xi.Index.Stats().Entries)
	}
}

// TestLoadDirNamesFirstBadFile: with bad files in the first and the last
// shard, the error names the first in name order every time, however
// the shards race.
func TestLoadDirNamesFirstBadFile(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, guard.ShardFloor)
	// Of 34 files in 4 shards, the first bad one is the last of shard 0
	// (index 7) and the second the first of shard 3 (index 25).
	for _, name := range []string{"doc-0007-bad.xml", "doc-0024-bad.xml"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("<broken"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for range 20 {
		tab := docsTable(t)
		n, err := LoadDir(tab, dir, Options{Parallelism: 4})
		if err == nil || !strings.Contains(err.Error(), "doc-0007-bad.xml") {
			t.Fatalf("err = %v, want it to name doc-0007-bad.xml", err)
		}
		if n != 0 || tab.Len() != 0 {
			t.Fatalf("failed load left residue: n=%d rows=%d", n, tab.Len())
		}
	}
}

// TestLoadDirStopsAfterFirstBadFile: once the first file fails, the
// other shards stop at their next file instead of loading the rest of
// the corpus. The first file of each later shard waits for the failure,
// so each later shard loads that one file, give or take one that beats
// the latch; without the latch they would load all 48 of theirs.
func TestLoadDirStopsAfterFirstBadFile(t *testing.T) {
	const n = 64 // 4 shards of 16
	dir := t.TempDir()
	writeCorpus(t, dir, n)
	release := make(chan struct{})
	defer guard.SetFaultHook(nil)
	guard.SetFaultHook(func(site string) error {
		switch site {
		case "ingest.file:doc-0000.xml":
			close(release)
			return errors.New("injected")
		case "ingest.file:doc-0016.xml", "ingest.file:doc-0032.xml", "ingest.file:doc-0048.xml":
			select {
			case <-release:
			case <-time.After(10 * time.Second):
			}
		}
		return nil
	})
	tab := docsTable(t)
	reg := metrics.NewRegistry()
	loaded, err := LoadDir(tab, dir, Options{Parallelism: 4, Metrics: reg})
	if err == nil || !strings.Contains(err.Error(), "doc-0000.xml") {
		t.Fatalf("err = %v, want it to name doc-0000.xml", err)
	}
	if loaded != 0 || tab.Len() != 0 {
		t.Fatalf("failed load left residue: n=%d rows=%d", loaded, tab.Len())
	}
	if docs := reg.Snapshot().Counters["ingest.docs"]; docs > 6 {
		t.Fatalf("ingest.docs = %d after the first file failed, want at most 6", docs)
	}
}

// TestLoadDirPanicIsInternal: a panic while a shard reads a file fails
// the load with an Internal violation instead of killing the process,
// and loads nothing, on the caller's goroutine and on a shard's own.
func TestLoadDirPanicIsInternal(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, guard.ShardFloor)
	defer guard.SetFaultHook(nil)
	guard.SetFaultHook(func(site string) error {
		if site == "ingest.file:doc-0020.xml" {
			panic("injected")
		}
		return nil
	})
	for _, par := range []int{1, 4} {
		tab := docsTable(t)
		xi, err := tab.CreateXMLIndex("li", "d", "//lineitem/@price", xmlindex.Double)
		if err != nil {
			t.Fatal(err)
		}
		n, err := LoadDir(tab, dir, Options{Parallelism: par})
		if v, ok := guard.AsViolation(err); !ok || v.Kind != guard.Internal {
			t.Fatalf("Parallelism %d: err = %v, want an Internal violation", par, err)
		}
		if n != 0 || tab.Len() != 0 || xi.Index.Stats().Entries != 0 {
			t.Fatalf("Parallelism %d: failed load left residue: n=%d rows=%d entries=%d", par, n, tab.Len(), xi.Index.Stats().Entries)
		}
	}
}

// TestLoadDirLimitsMidStream: an oversized file aborts the load while
// streaming — reading only slightly past the byte cap — with a full
// rollback and the file named.
func TestLoadDirLimitsMidStream(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, 3)
	var big strings.Builder
	big.WriteString("<a>")
	for i := 0; i < 1<<15; i++ {
		big.WriteString("<b>some repeated element content</b>")
	}
	big.WriteString("</a>")
	if err := os.WriteFile(filepath.Join(dir, "huge.xml"), []byte(big.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	tab := docsTable(t)
	n, err := LoadDir(tab, dir, Options{Limits: xmlparse.Limits{MaxBytes: 4096}})
	if err == nil || !strings.Contains(err.Error(), "huge.xml") {
		t.Fatalf("err = %v, want it to name huge.xml", err)
	}
	if !errors.Is(err, xmlparse.ErrLimit) {
		t.Fatalf("err = %v, want xmlparse.ErrLimit", err)
	}
	if n != 0 || tab.Len() != 0 {
		t.Fatalf("failed load left residue: n=%d rows=%d", n, tab.Len())
	}
}

// TestLoadDirGuardCancel: a canceled guard aborts the load cleanly.
func TestLoadDirGuardCancel(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tab := docsTable(t)
	g := guard.New(ctx, 0, guard.Limits{})
	lowerShardFloor(t, 2)
	n, err := LoadDir(tab, dir, Options{Guard: g, Parallelism: 2})
	if err == nil {
		t.Fatal("canceled load succeeded")
	}
	if n != 0 || tab.Len() != 0 {
		t.Fatalf("canceled load left residue: n=%d rows=%d", n, tab.Len())
	}
}

// TestLoadDirMetrics: the ingest.* instruments move.
func TestLoadDirMetrics(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, 8)
	tab := docsTable(t)
	if _, err := tab.CreateXMLIndex("li", "d", "//lineitem/@price", xmlindex.Double); err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	lowerShardFloor(t, 2)
	if _, err := LoadDir(tab, dir, Options{Parallelism: 2, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["ingest.docs"]; got != 8 {
		t.Fatalf("ingest.docs = %d, want 8", got)
	}
	if snap.Counters["ingest.bytes"] == 0 || snap.Counters["ingest.parse_ns"] == 0 {
		t.Fatalf("byte/time counters did not move: %v", snap.Counters)
	}
	if snap.Counters["ingest.runs_merged"] == 0 {
		t.Fatalf("ingest.runs_merged = 0, want at least one run")
	}
}

// TestLoadDirEmptyAndNonTable covers the trivial edges.
func TestLoadDirEmptyAndNonTable(t *testing.T) {
	dir := t.TempDir()
	tab := docsTable(t)
	if n, err := LoadDir(tab, dir, Options{}); n != 0 || err != nil {
		t.Fatalf("empty dir: %d, %v", n, err)
	}
	if err := os.WriteFile(filepath.Join(dir, "skip.txt"), []byte("not xml"), 0o644); err != nil {
		t.Fatal(err)
	}
	if n, err := LoadDir(tab, dir, Options{}); n != 0 || err != nil {
		t.Fatalf("no-xml dir: %d, %v", n, err)
	}
	bad, err := storage.NewCatalog().CreateTable("t", []storage.Column{{Name: "a", Type: storage.Integer}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LoadDir(bad, dir, Options{}); err == nil {
		t.Fatal("non-(key, xml) table accepted")
	}
}
