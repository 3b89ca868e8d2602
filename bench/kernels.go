package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"github.com/xqdb/xqdb/internal/btree"
	"github.com/xqdb/xqdb/internal/metrics"
	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/postings"
	"github.com/xqdb/xqdb/internal/server/admission"
	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/synopsis"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

// Kernel passes time the layers the engine reaches only through private
// calls — btree, postings, xmlindex, synopsis, storage, xmlparse, xdm,
// pattern, admission — by calling their exported functions in
// fixed-iteration loops over data captured from the workload's corpus:
// the corpus documents, the index keys an Extractor derives from them,
// and the posting lists the index returns for the workload's own
// constants. They run on a private catalog, never on the database the
// workload measures.

const (
	kernelReps   = 5   // repetitions of each loop; the median is reported
	kernelSample = 512 // documents the per-document loops cycle over
)

// perCall runs f(0..iters-1) kernelReps times and returns the median
// time of one call in nanoseconds.
func perCall(iters int, f func(i int)) float64 {
	times := make([]float64, kernelReps)
	for r := range times {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f(i)
		}
		times[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return median(times)
}

// kernels is the private catalog the passes run on, and their results.
type kernels struct {
	cat    *storage.Catalog
	orders *storage.Table
	price  *xmlindex.Index // the li_price index
	docs   []*xdm.Node     // every parsed order, in corpus order
	run    [][]byte        // li_price's sorted key run
	nodes  int             // nodes in docs
	values map[string]float64
}

// kernelIndexes mirrors indexDDL on the private catalog.
var kernelIndexes = []struct {
	Table, Column, Name, Pattern string
	Type                         xmlindex.Type
}{
	{"orders", "orddoc", "li_price", "//lineitem/@price", xmlindex.Double},
	{"orders", "orddoc", "li_price_str", "//lineitem/@price", xmlindex.Varchar},
	{"orders", "orddoc", "prod_id", "//lineitem/product/id", xmlindex.Varchar},
	{"orders", "orddoc", "o_custid", "//custid", xmlindex.Double},
	{"customer", "cdoc", "c_custid", "/customer/id", xmlindex.Double},
}

// buildKernels parses the corpus and loads the private catalog the way
// the ingestion pipeline does — stream parse, per-index extraction,
// sorted runs, one BulkAppend — timing each stage from outside.
func buildKernels(c *corpus) (*kernels, error) {
	k := &kernels{cat: storage.NewCatalog(), values: map[string]float64{}}
	k.cat.SetMetrics(metrics.NewRegistry())
	for _, t := range []struct {
		name string
		cols []storage.Column
	}{
		{"orders", []storage.Column{{Name: "ordid", Type: storage.Integer}, {Name: "orddoc", Type: storage.XML}}},
		{"customer", []storage.Column{{Name: "cid", Type: storage.Integer}, {Name: "cdoc", Type: storage.XML}}},
		{"products", []storage.Column{{Name: "id", Type: storage.Varchar, Size: 13}, {Name: "name", Type: storage.Varchar, Size: 32}}},
	} {
		if _, err := k.cat.CreateTable(t.name, t.cols); err != nil {
			return nil, err
		}
	}
	var orderIdx []*xmlindex.Index
	for _, ix := range kernelIndexes {
		tab, err := k.cat.Table(ix.Table)
		if err != nil {
			return nil, err
		}
		xi, err := tab.CreateXMLIndex(ix.Name, ix.Column, ix.Pattern, ix.Type)
		if err != nil {
			return nil, err
		}
		if ix.Table == "orders" {
			orderIdx = append(orderIdx, xi.Index)
		}
	}
	k.orders, _ = k.cat.Table("orders")
	k.price = orderIdx[0]

	// xmlparse: the bulk loader's StreamParser over the whole corpus, and
	// the per-row Parse (encoding/xml) over a sample.
	sp := xmlparse.NewStreamParser()
	var bytes int
	start := time.Now()
	for _, d := range c.orders {
		doc, err := sp.Parse(strings.NewReader(d), xmlparse.Limits{})
		if err != nil {
			return nil, err
		}
		k.docs = append(k.docs, doc)
		bytes += len(d)
	}
	k.values["xmlparse.stream_mb_per_s"] = float64(bytes) / 1e6 / time.Since(start).Seconds()
	sample := c.orders[:min(kernelSample, len(c.orders))]
	sampleBytes := 0
	for _, d := range sample {
		sampleBytes += len(d)
	}
	ns := perCall(len(sample), func(i int) {
		if _, err := xmlparse.Parse(sample[i]); err != nil {
			panic(err)
		}
	})
	k.values["xmlparse.parse_mb_per_s"] = float64(sampleBytes) / float64(len(sample)) / ns * 1e3
	for _, d := range k.docs {
		d.DescendAll(func(*xdm.Node) { k.nodes++ })
	}
	k.values["xmlparse.nodes_per_doc"] = float64(k.nodes) / float64(len(k.docs))

	// Extraction and the bulk append, as ingest.LoadDir stages them.
	first := k.orders.ReserveIDs(len(k.docs))
	rows := make([]storage.Row, len(k.docs))
	exts := make([]*xmlindex.Extractor, len(orderIdx))
	for i, ix := range orderIdx {
		exts[i] = ix.NewExtractor()
	}
	batch := synopsis.NewBatch()
	for i, doc := range k.docs {
		id := first + uint32(i)
		for _, e := range exts {
			if err := e.AddDoc(id, doc); err != nil {
				return nil, err
			}
		}
		batch.AddDoc(doc)
		rows[i] = storage.Row{ID: id, Cells: []storage.Cell{{V: xdm.NewInteger(int64(i))}, {Doc: doc}}}
	}
	runs := map[*xmlindex.Index][][][]byte{}
	for i, e := range exts {
		runs[orderIdx[i]] = [][][]byte{e.Run()}
	}
	k.run = runs[k.price][0]
	start = time.Now()
	if err := k.orders.BulkAppend(rows, runs, map[int][]*synopsis.Batch{1: {batch}}, nil); err != nil {
		return nil, err
	}
	k.values["storage.bulkappend_ms"] = float64(time.Since(start).Nanoseconds()) / 1e6
	return k, nil
}

// sampleDoc returns the i-th document of the per-document loops.
func (k *kernels) sampleDoc(i int) *xdm.Node { return k.docs[i%min(kernelSample, len(k.docs))] }

// runAll runs every kernel pass.
func (k *kernels) runAll(c *corpus) error {
	runtime.GC() // the build's garbage is not the kernels' to collect
	k.btree()
	if err := k.xmlindex(c); err != nil {
		return err
	}
	k.synopsis()
	if err := k.storage(); err != nil {
		return err
	}
	k.xdmAndPattern()
	k.admission()
	return nil
}

// btree times the B+Tree on li_price's own keys: bulk load, full leaf
// scan, and point insert/delete of fresh keys (an existing key with a
// document id no corpus document has).
func (k *kernels) btree() {
	var tree *btree.Tree
	ns := perCall(1, func(int) {
		var err error
		if tree, err = btree.MergeLoad(nil, k.run); err != nil {
			panic(err)
		}
	})
	k.values["btree.bulkload_ns_per_key"] = ns / float64(len(k.run))
	ns = perCall(16, func(int) { tree.Scan(nil, nil, func(_, _ []byte) bool { return true }) })
	k.values["btree.scan_ns_per_key"] = ns / float64(tree.Len())
	k.values["btree.height"] = float64(tree.Height())

	fresh := make([][]byte, 1<<14)
	for i := range fresh {
		src := k.run[(i*len(k.run))/len(fresh)]
		key := append([]byte(nil), src...)
		// The key ends in pathID, docID, nodeID (4 bytes each).
		binary.BigEndian.PutUint32(key[len(key)-8:len(key)-4], 0xF0000000+uint32(i))
		fresh[i] = key
	}
	var ins, del []float64
	for r := 0; r < kernelReps; r++ {
		start := time.Now()
		for _, key := range fresh {
			tree.Insert(key, nil)
		}
		ins = append(ins, float64(time.Since(start).Nanoseconds())/float64(len(fresh)))
		start = time.Now()
		for _, key := range fresh {
			tree.Delete(key)
		}
		del = append(del, float64(time.Since(start).Nanoseconds())/float64(len(fresh)))
	}
	k.values["btree.insert_ns"] = median(ins)
	k.values["btree.delete_ns"] = median(del)
}

// xmlindex times uncached probes at the pool's thresholds, per-document
// index maintenance, and the postings operations on the lists those
// probes return.
func (k *kernels) xmlindex(c *corpus) error {
	var probes []xmlindex.Probe
	for j := 0; j < poolPerTemplate; j++ {
		v := xdm.NewDouble(c.prices[3+j-1])
		probes = append(probes, xmlindex.Probe{Range: xmlindex.Range{Lo: &v}, NoCache: true})
	}
	var err error
	k.values["xmlindex.doclist_us"] = perCall(1<<13, func(i int) {
		if _, _, _, e := k.price.DocList(probes[i%len(probes)]); e != nil {
			err = e
		}
	}) / 1e3
	k.values["xmlindex.nodelist_us"] = perCall(1<<13, func(i int) {
		if _, _, _, e := k.price.NodeList(probes[i%len(probes)]); e != nil {
			err = e
		}
	}) / 1e3
	if err != nil {
		return err
	}

	var ins, del []float64
	n := min(kernelSample, len(k.docs))
	for r := 0; r < kernelReps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			if e := k.price.InsertDoc(0xF0000000+uint32(i), k.docs[i]); e != nil {
				return e
			}
		}
		ins = append(ins, float64(time.Since(start).Nanoseconds())/float64(n))
		start = time.Now()
		for i := 0; i < n; i++ {
			k.price.DeleteDoc(0xF0000000+uint32(i), k.docs[i])
		}
		del = append(del, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	k.values["xmlindex.insertdoc_us"] = median(ins) / 1e3
	k.values["xmlindex.deletedoc_us"] = median(del) / 1e3

	// Two long lists that overlap in part: orders with a price above 40
	// and orders with a price below 60.
	lo, hi := xdm.NewDouble(40), xdm.NewDouble(60)
	above := xmlindex.Probe{Range: xmlindex.Range{Lo: &lo}, NoCache: true}
	below := xmlindex.Probe{Range: xmlindex.Range{Hi: &hi}, NoCache: true}
	a, _, _, err := k.price.DocList(above)
	if err != nil {
		return err
	}
	b, _, _, err := k.price.DocList(below)
	if err != nil {
		return err
	}
	na, _, _, err := k.price.NodeList(above)
	if err != nil {
		return err
	}
	nb, _, _, err := k.price.NodeList(below)
	if err != nil {
		return err
	}
	elems := float64(len(a) + len(b))
	k.values["postings.intersect_ns_per_elem"] = perCall(64, func(int) { postings.Intersect(a, b) }) / elems
	k.values["postings.union_ns_per_elem"] = perCall(64, func(int) { postings.Union(a, b) }) / elems
	k.values["postings.fromruns_ns_per_elem"] = perCall(64, func(int) {
		postings.FromRuns(append(append(make([]uint32, 0, len(a)+len(b)), a...), b...))
	}) / elems
	k.values["postings.intersect_nodes_ns_per_elem"] = perCall(64, func(int) { postings.IntersectNodes(na, nb) }) / float64(len(na)+len(nb))
	return nil
}

// synopsis times pattern matching against the column's path summary and
// its per-document maintenance.
func (k *kernels) synopsis() {
	syn := k.orders.Synopsis("orddoc")
	var pats []*pattern.Pattern
	for _, ix := range kernelIndexes {
		pats = append(pats, pattern.MustParse(ix.Pattern))
	}
	k.values["synopsis.match_us"] = perCall(1<<12, func(i int) { syn.Match(pats[i%len(pats)]) }) / 1e3
	k.values["synopsis.adddoc_us"] = perCall(4*kernelSample, func(i int) { syn.AddDoc(k.sampleDoc(i)) }) / 1e3
	// Each pass above added the sample once; remove it as many times.
	k.values["synopsis.removedoc_us"] = perCall(4*kernelSample, func(i int) { syn.RemoveDoc(k.sampleDoc(i)) }) / 1e3
	k.values["synopsis.paths"] = float64(syn.Len())
}

// storage times the per-row write path — Insert and Delete with every
// index and the synopsis maintained — and the filtered column access
// every pre-filtered query makes.
func (k *kernels) storage() error {
	n := min(kernelSample, len(k.docs))
	ids := make([]uint32, n)
	var ins, del []float64
	for r := 0; r < kernelReps; r++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			id, err := k.orders.Insert([]storage.Cell{{V: xdm.NewInteger(int64(benchKeyBase + i))}, {Doc: k.docs[i]}})
			if err != nil {
				return err
			}
			ids[i] = id
		}
		ins = append(ins, float64(time.Since(start).Nanoseconds())/float64(n))
		start = time.Now()
		// Newest first: the row slice shrinks from its end, as it does
		// when serve-rw deletes the orders it appended.
		for i := n - 1; i >= 0; i-- {
			if err := k.orders.Delete(ids[i]); err != nil {
				return err
			}
		}
		del = append(del, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	k.values["storage.insert_us"] = median(ins) / 1e3
	k.values["storage.delete_us"] = median(del) / 1e3

	allowed := make(postings.List, 0, 10)
	for i := 0; i < 10; i++ {
		allowed = append(allowed, uint32(i*len(k.docs)/10))
	}
	sort.Slice(allowed, func(i, j int) bool { return allowed[i] < allowed[j] })
	var err error
	k.values["storage.collection_filtered_us"] = perCall(256, func(int) {
		if _, e := k.cat.CollectionFiltered("orders.orddoc", allowed); e != nil {
			err = e
		}
	}) / 1e3
	return err
}

// xdmAndPattern times serialization, the general comparison behind every
// value predicate, and the pattern matcher and containment test behind
// extraction and eligibility.
func (k *kernels) xdmAndPattern() {
	n := min(kernelSample, len(k.docs))
	bytes := 0
	for i := 0; i < n; i++ {
		bytes += len(xdm.Serialize(k.docs[i]))
	}
	ns := perCall(1<<13, func(i int) { xdm.Serialize(k.docs[i%n]) })
	k.values["xdm.serialize_mb_per_s"] = float64(bytes) / float64(n) / ns * 1e3

	var attrs xdm.Sequence
	for i := 0; i < n; i++ {
		k.docs[i].DescendAll(func(nd *xdm.Node) {
			if nd.Kind == xdm.AttributeNode && nd.Name.Local == "price" {
				attrs = append(attrs, nd)
			}
		})
	}
	bound := xdm.Sequence{xdm.NewDouble(100)}
	k.values["xdm.general_compare_ns"] = perCall(1<<14, func(i int) {
		j := i % len(attrs)
		if _, err := xdm.GeneralCompare(xdm.OpGt, attrs[j:j+1], bound); err != nil {
			panic(err)
		}
	})

	idx := pattern.MustParse("//lineitem/@price")
	query := pattern.MustParse("/order/lineitem/@price")
	path := []pattern.Label{
		{Kind: pattern.ElementLabel, Local: "order"},
		{Kind: pattern.ElementLabel, Local: "lineitem"},
		{Kind: pattern.AttributeLabel, Local: "price"},
	}
	k.values["pattern.match_ns"] = perCall(1<<14, func(int) { idx.Match(path) })
	k.values["pattern.contains_ns"] = perCall(1<<12, func(int) { pattern.Contains(idx, query) })
}

// admission times an uncontended Acquire and release on a controller
// with xqserve's default budget.
func (k *kernels) admission() {
	ctl := admission.New(admission.Config{}, metrics.NewRegistry())
	k.values["admission.acquire_us"] = perCall(1<<16, func(int) {
		release, err := ctl.Acquire(nil, time.Time{})
		if err != nil {
			panic(fmt.Sprintf("uncontended admission refused: %v", err))
		}
		release()
	}) / 1e3
}
