// Package ingest implements the streaming ingestion pipeline: XML files
// stream through SAX-style parsers (xmlparse.StreamParser — no whole-file
// strings, limits enforced mid-stream), each document is walked once with
// the column's path dictionary, and that one walk feeds the XMLPATTERN
// extraction of every index on the column. The extracted entries reach
// each index as sorted runs that a k-way merge bulk-loads into a B+Tree
// (btree.MergeLoad) instead of N root-to-leaf inserts. The files split
// into contiguous shards that guard.Shards runs in parallel. Every parsed
// document and every extracted key stays in memory until the commit, a
// single storage.BulkAppend, which keeps the malformed-file contract
// atomic: any error leaves the table untouched.
package ingest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
	"github.com/xqdb/xqdb/internal/xmlschema"
)

// Options configures one load.
type Options struct {
	// Parallelism caps the load's shards; 0 means GOMAXPROCS, 1 runs
	// serially. Results are identical at any setting: rows land in file
	// order.
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
// validation — loads nothing and the returned error names the file, the
// first bad one in name order.
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
	// BulkAppend extracts for itself the indexes that concurrent DDL
	// creates after this point.
	col := tab.Columns[1].Name
	xis := tab.XMLIndexes(col)
	dict := tab.Synopsis(col).Dict()
	firstID := tab.ReserveIDs(len(names))
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}

	// Each shard parses its files in name order into its own slots of
	// rows and returns one sorted run per index. firstBad latches the
	// lowest index of a file whose shard failed (an error or a panic); a
	// shard stops before any later file, whose error could never be the
	// one reported, so an early bad file ends the load's work.
	rows := make([]storage.Row, len(names))
	var firstBad atomic.Int64
	firstBad.Store(int64(len(names)))
	shardRuns, err := guard.Shards(par, len(names), func(lo, hi int) ([][][]byte, error) {
		i, done := lo, false
		defer func() {
			if !done {
				lower(&firstBad, int64(i))
			}
		}()
		sp := xmlparse.NewStreamParser()
		var w pattern.Walker
		exts := make([]*xmlindex.Extractor, len(xis))
		for x, xi := range xis {
			exts[x] = xi.Index.NewExtractor()
		}
		for ; i < hi; i++ {
			if int64(i) > firstBad.Load() {
				return nil, errStopped
			}
			if err := opts.Guard.Check(); err != nil {
				return nil, err
			}
			doc, err := parseFile(sp, dir, names[i], opts, mBytes, mParseNS)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", names[i], err)
			}
			id := firstID + uint32(i)
			// Without indexes there is nothing to extract; the synopsis
			// walks the documents at commit either way.
			if len(exts) > 0 {
				t0 := time.Now()
				nodes, ids := dict.IDs(&w, doc)
				for _, e := range exts {
					if err := e.AddNodes(id, nodes, ids); err != nil {
						return nil, fmt.Errorf("%s: %w", names[i], err)
					}
				}
				mIndexNS.Add(time.Since(t0).Nanoseconds())
			}
			rows[i] = storage.Row{ID: id, Cells: []storage.Cell{
				{V: xdm.NewInteger(int64(i))}, {Doc: doc},
			}}
			mDocs.Inc()
		}
		runs := make([][][]byte, len(exts))
		for x, e := range exts {
			runs[x] = e.Run()
		}
		done = true
		return runs, nil
	})
	if err != nil {
		return 0, err
	}

	// Parallel shards draw TreeIDs concurrently, but cross-tree document
	// order is (TreeID, Ordinal): re-issue the ids in file order so query
	// results are byte-identical at any Parallelism. Index keys embed
	// (docID, ordinal), never the TreeID, so the runs stay valid.
	if len(shardRuns) > 1 {
		for i := range rows {
			if err := opts.Guard.Check(); err != nil {
				return 0, err
			}
			rows[i].Cells[1].Doc.SetTree(xdm.NextTreeID())
		}
	}

	// Every index in the snapshot is in the runs map, even with no
	// runs: presence tells BulkAppend the index needs no extraction.
	runs := make(map[*xmlindex.Index][][][]byte, len(xis))
	totalRuns := 0
	for i, xi := range xis {
		var r [][][]byte
		for _, s := range shardRuns {
			if len(s[i]) > 0 {
				r = append(r, s[i])
			}
		}
		runs[xi.Index] = r
		totalRuns += len(r)
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

// errStopped ends a shard whose next file lies past a file that already
// failed. It never reaches the caller: a shard stops only behind a
// failing shard, whose error guard.Shards reports first.
var errStopped = errors.New("ingest: stopped behind an earlier failed file")

// lower stores v in a unless a already holds a smaller value.
func lower(a *atomic.Int64, v int64) {
	for {
		old := a.Load()
		if v >= old || a.CompareAndSwap(old, v) {
			return
		}
	}
}

// parseFile streams one file through the parser, counting bytes and
// parse time, and optionally validates the document. The ingest.file
// fault site, named after the file, fires first.
func parseFile(sp *xmlparse.StreamParser, dir, name string, opts Options, mBytes, mParseNS *metrics.Counter) (*xdm.Node, error) {
	if err := guard.Fault("ingest.file:" + name); err != nil {
		return nil, err
	}
	f, err := os.Open(filepath.Join(dir, name))
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
