package ingest

import (
	"fmt"
	"sync"
	"testing"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/synopsis"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

// rebuildSynopsis walks the table's rows and builds a fresh synopsis for
// the XML column — the ground truth incremental maintenance must match.
func rebuildSynopsis(tab *storage.Table) *synopsis.Synopsis {
	s := synopsis.New(pattern.NewDict())
	tab.ForEachRow(func(r *storage.Row) bool {
		if cell := r.Cells[1]; !cell.Null && cell.Doc != nil {
			s.AddDoc(cell.Doc)
		}
		return true
	})
	return s
}

func assertSynopsisMatchesRebuild(t *testing.T, tab *storage.Table) {
	t.Helper()
	live := tab.Synopsis("d")
	if live == nil {
		t.Fatal("no synopsis on column d")
	}
	want := rebuildSynopsis(tab).Paths()
	got := live.Paths()
	if len(got) != len(want) {
		t.Fatalf("live synopsis has %d paths, rebuild has %d\nlive: %+v\nrebuild: %+v", len(got), len(want), got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("path %d: live %+v, rebuild %+v", i, got[i], want[i])
		}
	}
}

// TestLoadDirSynopsisMatchesRebuild: a parallel bulk load's merged
// per-worker batches must leave exactly the synopsis a from-scratch
// rebuild produces.
func TestLoadDirSynopsisMatchesRebuild(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, 40)
	tab := docsTable(t)
	if _, err := LoadDir(tab, dir, Options{Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if tab.Synopsis("d").Len() == 0 {
		t.Fatal("load left the synopsis empty")
	}
	assertSynopsisMatchesRebuild(t, tab)
}

// TestConcurrentLoadInsertDeleteSynopsis races a bulk load against
// per-row Inserts and Deletes (run under -race) and then checks the
// synopsis against a from-scratch rebuild: incremental maintenance must
// agree with ground truth no matter how the mutations interleave.
func TestConcurrentLoadInsertDeleteSynopsis(t *testing.T) {
	dir := t.TempDir()
	writeCorpus(t, dir, 30)
	tab := docsTable(t)
	lowerShardFloor(t, 2)

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if _, err := LoadDir(tab, dir, Options{Parallelism: 3}); err != nil {
			t.Errorf("LoadDir: %v", err)
		}
	}()
	insertErr := make(chan error, 1)
	ids := make(chan uint32, 40)
	go func() {
		defer wg.Done()
		defer close(ids)
		for i := 0; i < 40; i++ {
			src := fmt.Sprintf(`<extra seq="%d"><note>n%d</note></extra>`, i, i%5)
			doc, err := xmlparse.Parse(src)
			if err != nil {
				insertErr <- err
				return
			}
			id, err := tab.Insert([]storage.Cell{{V: intCell(1000 + i)}, {Doc: doc}})
			if err != nil {
				insertErr <- err
				return
			}
			ids <- id
		}
	}()
	// Delete a subset of the inserted rows while the load continues.
	deleted := 0
	for id := range ids {
		if deleted >= 15 {
			continue
		}
		if err := tab.Delete(id); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		deleted++
	}
	wg.Wait()
	select {
	case err := <-insertErr:
		t.Fatal(err)
	default:
	}

	if got, want := tab.Len(), 30+40-deleted; got != want {
		t.Fatalf("row count = %d, want %d", got, want)
	}
	assertSynopsisMatchesRebuild(t, tab)
}
