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
// started — is maintained per row, exactly as Insert would. check, when
// non-nil, is consulted periodically through the index builds and row
// walk so a guard can abort long appends.
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
	// PrepareBulk only reads the live trees.
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
	type stagedBuild struct {
		ix *xmlindex.Index
		bb *xmlindex.BulkBuild
	}
	var staged []stagedBuild
	var perRow []*XMLIndex
	for _, xi := range t.xmlIndexes {
		r, ok := runs[xi.Index]
		if !ok {
			perRow = append(perRow, xi)
			continue
		}
		bb, err := xi.Index.PrepareBulk(check, r...)
		if err != nil {
			return fmt.Errorf("bulk append into %s: index %s: %w", t.Name, xi.Name, err)
		}
		staged = append(staged, stagedBuild{xi.Index, bb})
	}

	// Mid-load-DDL indexes get per-row maintenance. These mutate the
	// index as they go, so an error unwinds what was already inserted.
	type rowInsert struct {
		xi  *XMLIndex
		ci  int
		row *Row
	}
	var inserted []rowInsert
	undo := func() {
		for _, d := range inserted {
			d.xi.Index.DeleteDoc(d.row.ID, d.row.Cells[d.ci].Doc)
		}
	}
	for _, xi := range perRow {
		ci, _ := t.ColumnIndex(xi.Column)
		//xqvet:unbounded-ok bounded by the load's corpus size; check below threads the guard
		for ri := range rows {
			if check != nil {
				if err := check(ri); err != nil {
					undo()
					return fmt.Errorf("bulk append into %s: %w", t.Name, err)
				}
			}
			cell := rows[ri].Cells[ci]
			if cell.Null || cell.Doc == nil {
				continue
			}
			if err := xi.Index.InsertDoc(rows[ri].ID, cell.Doc); err != nil {
				undo()
				return fmt.Errorf("bulk append into %s: %w", t.Name, err)
			}
			inserted = append(inserted, rowInsert{xi, ci, &rows[ri]})
		}
	}

	// Phase B: infallible. Swap the staged trees in, then land the rows.
	for _, s := range staged {
		s.ix.CommitBulk(s.bb)
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
