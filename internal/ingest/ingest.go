// Package ingest implements the streaming ingestion pipeline: XML files
// stream through SAX-style parsers (xmlparse.StreamParser — no whole-file
// strings, limits enforced mid-stream), XMLPATTERN extraction runs in the
// same pass over the freshly built tree, and the extracted entries reach
// each index as sorted runs that a k-way merge bulk-loads into a B+Tree
// (btree.MergeLoad) instead of N root-to-leaf inserts. Parallelism comes
// from per-file workers over a bounded job queue, so memory stays flat in
// corpus size; commit is a single storage.BulkAppend, which keeps the
// malformed-file contract atomic: any error leaves the table untouched.
package ingest

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// Options configures one load.
type Options struct {
	// Parallelism caps the parse workers; 0 means GOMAXPROCS, 1 runs
	// serially. The load-side twin of QueryOptions.Parallelism: results
	// are identical at any setting — rows land in file order.
	Parallelism int
	// Guard, when non-nil, is consulted between files and throughout the
	// bulk index build so a canceled or timed-out load aborts cleanly.
	Guard *guard.Guard
	// Limits bound each file's parse, enforced while streaming: an
	// oversized file aborts after reading just past the cap, not at EOF.
	Limits xmlparse.Limits
	// Schema, when non-nil, validates every document and annotates its
	// nodes with the declared types before indexing.
	Schema *xmlschema.Schema
	// Metrics, when non-nil, receives the ingest.* instruments: docs,
	// bytes, parse_ns, index_ns, runs_merged.
	Metrics *metrics.Registry
}

// LoadDir streams every .xml file of dir (in name order) into a
// two-column (key, xml) table and returns the number of documents
// loaded. Keys count from 0 in file order. The load is atomic: any
// error — unreadable file, malformed or oversized document, failed
// validation — loads nothing and the returned error names the file.
func LoadDir(tab *storage.Table, dir string, opts Options) (int, error) {
	if len(tab.Columns) != 2 || tab.Columns[1].Type != storage.XML {
		return 0, fmt.Errorf("ingest: table %s is not a (key, xml) table", tab.Name)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() || !strings.HasSuffix(strings.ToLower(ent.Name()), ".xml") {
			continue
		}
		names = append(names, ent.Name())
	}
	if len(names) == 0 {
		return 0, nil
	}
	if err := opts.Guard.Check(); err != nil {
		return 0, err
	}

	mDocs := opts.Metrics.Counter("ingest.docs")
	mBytes := opts.Metrics.Counter("ingest.bytes")
	mParseNS := opts.Metrics.Counter("ingest.parse_ns")
	mIndexNS := opts.Metrics.Counter("ingest.index_ns")
	mRuns := opts.Metrics.Counter("ingest.runs_merged")

	// Snapshot the XML indexes and reserve the docID range up front:
	// index keys embed the docID, so extraction needs ids before commit.
	// Indexes created by concurrent DDL after this point get per-row
	// maintenance inside BulkAppend.
	xis := tab.XMLIndexes(tab.Columns[1].Name)
	firstID := tab.ReserveIDs(len(names))

	workers := opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(names) {
		workers = len(names)
	}

	// First error wins; later workers drain the queue without working.
	var (
		errMu   sync.Mutex
		loadErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if loadErr == nil {
			loadErr = err
		}
		errMu.Unlock()
	}
	failed := func() bool {
		errMu.Lock()
		defer errMu.Unlock()
		return loadErr != nil
	}

	// The job queue carries file indices, not contents: at most `workers`
	// documents are in flight, so peak memory is bounded by parallelism,
	// not corpus size. Workers write rows[i] for disjoint i — no locking.
	rows := make([]storage.Row, len(names))
	jobs := make(chan int, workers)
	runs := make(map[*xmlindex.Index][][][]byte, len(xis))
	var runsMu sync.Mutex

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sp := xmlparse.NewStreamParser()
			exts := make([]*xmlindex.Extractor, len(xis))
			for i, xi := range xis {
				exts[i] = xi.Index.NewExtractor()
			}
			for i := range jobs {
				if failed() {
					continue
				}
				if err := opts.Guard.Check(); err != nil {
					fail(err)
					continue
				}
				doc, err := parseFile(sp, filepath.Join(dir, names[i]), opts, mBytes, mParseNS)
				if err != nil {
					fail(fmt.Errorf("%s: %w", names[i], err))
					continue
				}
				id := firstID + uint32(i)
				t0 := time.Now()
				for x := range exts {
					if err := exts[x].AddDoc(id, doc); err != nil {
						fail(fmt.Errorf("%s: %w", names[i], err))
						break
					}
				}
				mIndexNS.Add(time.Since(t0).Nanoseconds())
				rows[i] = storage.Row{ID: id, Cells: []storage.Cell{
					{V: xdm.NewInteger(int64(i))}, {Doc: doc},
				}}
				mDocs.Inc()
			}
			if failed() {
				return
			}
			// Finalize this worker's extractors into sorted runs (Run
			// only sorts) outside runsMu.
			for i, e := range exts {
				if e.Len() == 0 {
					continue
				}
				run := e.Run()
				runsMu.Lock()
				runs[xis[i].Index] = append(runs[xis[i].Index], run)
				runsMu.Unlock()
			}
		}()
	}
	for i := range names {
		if failed() {
			break
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	if loadErr != nil {
		return 0, loadErr
	}

	// Parallel workers draw TreeIDs in parse-scheduling order, but
	// cross-tree document order is (TreeID, Ordinal): re-issue the ids in
	// file order so query results are byte-identical at any Parallelism.
	// Index keys embed (docID, ordinal), never the TreeID, so the runs
	// extracted above stay valid.
	if workers > 1 {
		for i := range rows {
			if err := opts.Guard.Check(); err != nil {
				return 0, err
			}
			rows[i].Cells[1].Doc.SetTree(xdm.NextTreeID())
		}
	}

	// Every index in the snapshot must appear in the runs map even with
	// zero runs: presence is what routes it through the bulk build
	// rather than per-row fallback inside BulkAppend.
	totalRuns := 0
	for _, xi := range xis {
		if _, ok := runs[xi.Index]; !ok {
			runs[xi.Index] = nil
		}
		totalRuns += len(runs[xi.Index])
	}
	t0 := time.Now()
	check := func(int) error { return opts.Guard.Check() }
	if err := tab.BulkAppend(rows, runs, nil, check); err != nil {
		return 0, err
	}
	mIndexNS.Add(time.Since(t0).Nanoseconds())
	mRuns.Add(int64(totalRuns))
	return len(names), nil
}

// parseFile streams one file through the parser, counting bytes and
// parse time, and optionally validates the document.
func parseFile(sp *xmlparse.StreamParser, path string, opts Options, mBytes, mParseNS *metrics.Counter) (*xdm.Node, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := &countingReader{r: f}
	t0 := time.Now()
	doc, err := sp.Parse(cr, opts.Limits)
	mParseNS.Add(time.Since(t0).Nanoseconds())
	mBytes.Add(cr.n)
	if err != nil {
		return nil, err
	}
	if opts.Schema != nil {
		if err := opts.Schema.Validate(doc); err != nil {
			return nil, err
		}
	}
	return doc, nil
}

// countingReader counts bytes actually read — with streaming limits this
// can be far less than the file size.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
