package xmlindex

import (
	"bytes"
	"slices"

	"github.com/xqdb/xqdb/internal/btree"
	"github.com/xqdb/xqdb/internal/xdm"
)

// Extractor accumulates index entries for a batch of documents without
// touching the index. AddDoc and AddNodes take no index lock — they read
// only the index's immutable fields (Pattern, Type, Name, the column
// dictionary) and write into extractor-local state — so one extractor
// per load shard turns XMLPATTERN extraction into a parallel stage of
// the ingestion pipeline. Keys carry the column dictionary's path IDs,
// so Run only sorts, yielding one strictly ascending run for
// PrepareBulk.
type Extractor struct {
	ix   *Index
	walk pathWalk
	keys [][]byte
}

// NewExtractor returns an empty extractor for this index.
func (ix *Index) NewExtractor() *Extractor {
	return &Extractor{ix: ix, walk: pathWalk{paths: ix.dict.Match(ix.Pattern)}}
}

// AddDoc extracts the entries InsertDoc would create for doc, holding no
// index lock; the dictionary walk takes the dictionary's lock once per
// document. It returns an error only for list-typed matches (the same
// contract as InsertDoc, and likewise a rejected document adds nothing);
// cast failures skip silently. Documents must carry distinct docIDs
// across every extractor feeding one PrepareBulk, or the merge will
// reject the duplicate keys.
func (e *Extractor) AddDoc(docID uint32, doc *xdm.Node) error {
	keys, err := e.ix.extract(&e.walk, docID, doc, e.keys)
	if err != nil {
		return err
	}
	e.keys = keys
	return nil
}

// AddNodes is AddDoc over a document its caller already walked with the
// column dictionary (Dict.IDs), so one walk feeds every index of the
// column.
func (e *Extractor) AddNodes(docID uint32, nodes []*xdm.Node, ids []uint32) error {
	keys, err := e.ix.entries(e.walk.paths, docID, nodes, ids, e.keys)
	if err != nil {
		return err
	}
	e.keys = keys
	return nil
}

// Run finalizes the extractor into one sorted key run; it takes no lock.
// Paths AddDoc interned for a load that later rolls back stay in the
// append-only dictionary, harmless: a path no structure counts is never
// consulted. The extractor must not be reused after Run.
func (e *Extractor) Run() [][]byte {
	slices.SortFunc(e.keys, bytes.Compare)
	return e.keys
}

// BulkBuild is a staged index rebuild: the merged tree PrepareBulk
// produced, waiting for CommitBulk to swap it in.
type BulkBuild struct {
	tree  *btree.Tree
	delta int
}

// PrepareBulk merges the index's current entries with the given sorted
// runs (from Extractor.Run) into a fresh bulk-loaded tree. The existing
// tree is only read, never modified, so probes keep working against it
// until CommitBulk swaps the new tree in. check, when non-nil, is
// consulted periodically during both the snapshot scan and the merge so
// a guard can abort long builds.
//
// Contract: the caller must prevent index mutations (InsertDoc /
// DeleteDoc) from the start of PrepareBulk through CommitBulk —
// in-engine that means holding the owning table's write lock, under
// which all index mutation runs — or entries written in between would
// vanish in the swap. A duplicate key across the runs and the existing
// tree reports btree.ErrUnsorted: each key names one distinct indexed
// node, so a collision means a docID was reused.
func (ix *Index) PrepareBulk(check func(done int) error, runs ...[][]byte) (*BulkBuild, error) {
	ix.mu.RLock()
	existing := make([][]byte, 0, ix.tree.Len())
	before := ix.tree.Len()
	_, err := ix.tree.ScanCheck(nil, nil, check, func(k, _ []byte) bool {
		existing = append(existing, k)
		return true
	})
	ix.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	all := make([][][]byte, 0, len(runs)+1)
	all = append(all, existing)
	all = append(all, runs...)
	tree, err := btree.MergeLoad(check, all...)
	if err != nil {
		return nil, err
	}
	return &BulkBuild{tree: tree, delta: tree.Len() - before}, nil
}

// CommitBulk swaps the staged tree in, carrying the index's B+Tree
// instruments over and bumping the entry-set version (invalidating
// cached probes) when the build changed the entry set. See PrepareBulk
// for the locking contract.
func (ix *Index) CommitBulk(bb *BulkBuild) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	bb.tree.Instrument(ix.mTreeScans, ix.mTreeKeys)
	ix.tree = bb.tree
	ix.entriesChanged(bb.delta)
}
