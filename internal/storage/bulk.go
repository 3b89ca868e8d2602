package storage

import (
	"fmt"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/synopsis"
	"github.com/xqdb/xqdb/internal/xmlindex"
)

// ReserveIDs reserves n consecutive row ids and returns the first. The
// ingestion pipeline assigns document ids before parsing — index keys
// embed the docID, so extraction cannot start without one — and reserving
// the whole range up front keeps concurrent Inserts from colliding with
// in-flight bulk loads. Ids of a load that later fails are simply never
// used; row ids may have gaps.
func (t *Table) ReserveIDs(n int) uint32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID += uint32(n)
	return id
}

// BulkAppend appends pre-assigned rows and commits staged XML-index runs
// in one atomic step: either every row lands with every index updated, or
// the table and its indexes are untouched. runs maps an index to the
// sorted key runs its extractors produced (see xmlindex.Extractor); an
// index of this table absent from runs — created by DDL after extraction
// started — gets its run extracted here from the rows. Either way each
// index is rebuilt by one merge of its runs into its entries. check,
// when non-nil, is consulted periodically through the index builds and
// row walk so a guard can abort long appends.
//
// syn maps a column index to synopsis batches holding that column's
// documents (see synopsis.Batch), each counted in under one lock take;
// an XML column absent from the map counts its rows' documents one by
// one. Synopsis maintenance is infallible and happens in phase B only,
// so a failed load leaves the summaries untouched.
//
// Rows must carry ids from ReserveIDs and cells shaped for this table;
// appended rows take the order given, after any rows concurrent Inserts
// committed first.
func (t *Table) BulkAppend(rows []Row, runs map[*xmlindex.Index][][][]byte, syn map[int][]*synopsis.Batch, check func(done int) error) error {
	if err := guard.Fault("storage.bulkappend:" + t.Name); err != nil {
		return fmt.Errorf("bulk append into %s: %w", t.Name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()

	// Phase A: everything that can fail runs before anything becomes
	// visible. Cell coercion first, then the staged index builds —
	// extraction and PrepareBulk only read the live trees.
	//xqvet:unbounded-ok bounded by the load's corpus size; check below threads the guard
	for ri := range rows {
		if check != nil {
			if err := check(ri); err != nil {
				return fmt.Errorf("bulk append into %s: %w", t.Name, err)
			}
		}
		row := &rows[ri]
		if len(row.Cells) != len(t.Columns) {
			return fmt.Errorf("table %s: %d values for %d columns", t.Name, len(row.Cells), len(t.Columns))
		}
		if _, dup := t.byID[row.ID]; dup {
			return fmt.Errorf("table %s: bulk append reuses row id %d", t.Name, row.ID)
		}
		for i := range row.Cells {
			if err := t.coerceCell(&row.Cells[i], i); err != nil {
				return fmt.Errorf("bulk append into %s: %w", t.Name, err)
			}
		}
	}
	staged := make([]*xmlindex.BulkBuild, len(t.xmlIndexes))
	for i, xi := range t.xmlIndexes {
		r, ok := runs[xi.Index]
		if !ok {
			run, err := xi.extract(rows, check)
			if err != nil {
				return fmt.Errorf("bulk append into %s: %w", t.Name, err)
			}
			r = [][][]byte{run}
		}
		bb, err := xi.Index.PrepareBulk(check, r...)
		if err != nil {
			return fmt.Errorf("bulk append into %s: index %s: %w", t.Name, xi.Name, err)
		}
		staged[i] = bb
	}

	// Phase B: infallible. Swap the staged trees in, then land the rows.
	for i, xi := range t.xmlIndexes {
		xi.Index.CommitBulk(staged[i])
	}
	//xqvet:unbounded-ok phase B must run to completion; aborting here would leave indexes ahead of rows
	for ri := range rows {
		t.byID[rows[ri].ID] = len(t.rows)
		t.rows = append(t.rows, rows[ri])
		for _, rel := range t.relIndexes {
			rel.insert(rows[ri])
		}
		for ci := range rows[ri].Cells {
			t.countDoc(ci, rows[ri].Cells[ci], 1)
		}
	}
	pathSetChanged := false
	for ci := range t.Columns {
		s := t.syns[ci]
		if s == nil {
			continue
		}
		if batches, ok := syn[ci]; ok {
			for _, b := range batches {
				if s.Merge(b) {
					pathSetChanged = true
				}
			}
			continue
		}
		//xqvet:unbounded-ok phase B must run to completion; aborting here would leave rows ahead of synopses
		for ri := range rows {
			cell := rows[ri].Cells[ci]
			if cell.Null || cell.Doc == nil {
				continue
			}
			if s.AddDoc(cell.Doc) {
				pathSetChanged = true
			}
		}
	}
	if pathSetChanged {
		t.bumpVersion()
	}
	return nil
}

// extract returns the sorted index entries of the rows' documents in
// xi's column: the one run a load's extractors would have produced.
// check, when non-nil, is consulted per row.
func (xi *XMLIndex) extract(rows []Row, check func(done int) error) ([][]byte, error) {
	e := xi.Index.NewExtractor()
	for ri := range rows {
		if check != nil {
			if err := check(ri); err != nil {
				return nil, err
			}
		}
		cell := rows[ri].Cells[xi.col]
		if cell.Null || cell.Doc == nil {
			continue
		}
		if err := e.AddDoc(rows[ri].ID, cell.Doc); err != nil {
			return nil, err
		}
	}
	return e.Run(), nil
}
