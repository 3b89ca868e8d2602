package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/xqdb/xqdb"
	"github.com/xqdb/xqdb/internal/workload"
)

// corpusSpec sizes one corpus. README.md says why these sizes differ
// from the ones ISSUE.md first named.
type corpusSpec struct {
	Name        string
	Orders      int
	Customers   int
	Products    int
	Selectivity float64 // share of orders with one line item priced above 100
	// MaxLineitems bounds the line items of an order (1..n, uniform).
	MaxLineitems int
	// ShapeTolerance, when set, bounds how far the corpus's line-item and
	// qualifying-order counts may lie from their expectation (a share of
	// it); see generate.
	ShapeTolerance float64
}

// shapeDraws bounds the draws generate makes for a corpus in tolerance.
const shapeDraws = 1000

var (
	// corpusL is the large corpus of point, adhoc and serve-rw: one
	// order in a hundred qualifies at price > 100, so a threshold inside
	// the qualifying range selects well under 0.1% of the documents.
	// Every order has one line item: a selective statement touches a
	// handful of documents, and were their sizes left to chance the work
	// per statement — allocations above all — would swing by several
	// percent from seed to seed.
	corpusL = corpusSpec{Name: "corpus-L", Orders: 10000, Customers: 1000, Products: 500, Selectivity: 0.01, MaxLineitems: 1}
	// corpusS is the small corpus of analytic, where every statement
	// walks (nearly) every document, so sizes average out.
	corpusS = corpusSpec{Name: "corpus-S", Orders: 1000, Customers: 25, Products: 20, Selectivity: 1.0 / 3, MaxLineitems: 3, ShapeTolerance: 0.005}
)

// indexDDL is created before the bulk load, so the load maintains every
// index through the ingestion pipeline's sorted-run merge.
var indexDDL = []string{
	`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
	`create index li_price_str on orders(orddoc) using xmlpattern '//lineitem/@price' as varchar`,
	`create index prod_id on orders(orddoc) using xmlpattern '//lineitem/product/id' as varchar`,
	`create index o_custid on orders(orddoc) using xmlpattern '//custid' as double`,
	`create index c_custid on customer(cdoc) using xmlpattern '/customer/id' as double`,
}

// corpus is one generated corpus, written to disk for the bulk loader.
type corpus struct {
	spec      corpusSpec
	seed      int64
	dir       string
	orders    []string
	customers []string
	products  [][2]string
	// xmlBytes is the raw size of every generated document: the base of
	// space_amp.
	xmlBytes int64
	// prices holds every line-item price, highest first; the first
	// `qualifying` of them are above 100. Constants are picked by rank in
	// it, so a statement selects the same number of line items whatever
	// the seed.
	prices     []float64
	qualifying int
	// steadyProducts are product ids for the two-probe template, ascending:
	// each is ordered on about the median number of line items, exactly
	// one of which is priced above the template's whole threshold range.
	// So whatever the seed and the threshold, its equality probe returns
	// a list of one length and the two probes intersect in one document.
	steadyProducts []string
}

// lineItem captures a line item's price and product id from generated XML.
var lineItem = regexp.MustCompile(`<lineitem price="([0-9.]+)" quantity="[0-9]+"><product><id>([0-9]+)</id>`)

// generate builds the corpus for a seed and writes one file per document
// under dir (orders/ and customer/), the layout LoadXMLDirOpts reads.
func generate(spec corpusSpec, seed int64, dir string) (*corpus, error) {
	c := &corpus{spec: spec, seed: seed, dir: dir}
	var byProduct map[int][]float64 // product id -> prices of its line items
	// Corpora that statements walk in full are drawn again — generator
	// seeds seed*shapeDraws, +1, +2, ... — until the numbers of line items
	// and of qualifying orders are within ShapeTolerance of what the spec
	// expects, so that every seed gives statements the same amount of
	// work. The first draw in tolerance wins; one seed, one corpus.
	for draw := int64(0); ; draw++ {
		if draw == shapeDraws {
			return nil, fmt.Errorf("%s seed %d: no draw in %d within %g of the expected shape", spec.Name, seed, shapeDraws, spec.ShapeTolerance)
		}
		c.orders = workload.Orders(workload.OrderSpec{
			N: spec.Orders, Selectivity: spec.Selectivity, QualifyingPrice: 100, MaxLineitems: spec.MaxLineitems, Seed: seed*shapeDraws + draw,
		})
		c.prices, c.qualifying, c.xmlBytes, byProduct = nil, 0, 0, map[int][]float64{}
		for _, d := range c.orders {
			c.xmlBytes += int64(len(d))
			for _, m := range lineItem.FindAllStringSubmatch(d, -1) {
				p, err := strconv.ParseFloat(m[1], 64)
				if err != nil {
					return nil, fmt.Errorf("%s: price %q: %w", spec.Name, m[1], err)
				}
				id, _ := strconv.Atoi(m[2])
				c.prices = append(c.prices, p)
				byProduct[id] = append(byProduct[id], p)
				if p > 100 {
					c.qualifying++
				}
			}
		}
		within := func(got int, want float64) bool { return math.Abs(float64(got)-want) <= spec.ShapeTolerance*want }
		if spec.ShapeTolerance == 0 || (within(len(c.prices), float64(spec.Orders*(1+spec.MaxLineitems))/2) &&
			within(c.qualifying, float64(spec.Orders)*spec.Selectivity)) {
			break
		}
	}
	c.customers = workload.Customers(spec.Customers, "", seed+1)
	c.products = workload.Products(spec.Products)
	for _, d := range c.customers {
		c.xmlBytes += int64(len(d))
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(c.prices)))
	if c.qualifying < minPrices {
		return nil, fmt.Errorf("%s: only %d qualifying prices, need %d to pick constants", spec.Name, c.qualifying, minPrices)
	}
	counts := make([]float64, 0, len(byProduct))
	for _, prices := range byProduct {
		counts = append(counts, float64(len(prices)))
	}
	sort.Float64s(counts)
	typical := median(counts)
	lo, hi := c.priceAtShare(productShareHi), c.priceAtShare(productShareLo)
	var ids []int
	for id, prices := range byProduct {
		aboveLo, aboveHi := 0, 0
		for _, p := range prices {
			if p > lo {
				aboveLo++
			}
			if p > hi {
				aboveHi++
			}
		}
		if n := float64(len(prices)); n >= 0.95*typical && n <= 1.05*typical && aboveLo == 1 && aboveHi == 1 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.steadyProducts = append(c.steadyProducts, strconv.Itoa(id))
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := writeDocs(filepath.Join(dir, "orders"), c.orders); err != nil {
		return nil, err
	}
	if err := writeDocs(filepath.Join(dir, "customer"), c.customers); err != nil {
		return nil, err
	}
	return c, nil
}

// writeDocs writes docs as zero-padded NNNNNNN.xml files, so directory
// order is document order and the loader's key is the slice index.
func writeDocs(dir string, docs []string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	workers := runtime.GOMAXPROCS(0)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs); i += workers {
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%07d.xml", i)), []byte(docs[i]), 0o644); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildStats is what one cold build reports.
type buildStats struct {
	Elapsed time.Duration // Open() to ready
	Load    time.Duration // the orders bulk load alone
}

// buildDB runs the timed set-up: Open, DDL, CREATE INDEX, then the bulk
// load of every table. ready, when non-nil, runs inside the timed region
// (serve-rw starts its listener there).
func buildDB(c *corpus, ready func(*xqdb.DB) error) (*xqdb.DB, buildStats, error) {
	var bs buildStats
	start := time.Now()
	db := xqdb.Open()
	ddl := append([]string{
		`create table orders (ordid integer, orddoc xml)`,
		`create table customer (cid integer, cdoc xml)`,
		`create table products (id varchar(13), name varchar(32))`,
	}, indexDDL...)
	for _, stmt := range ddl {
		if _, _, err := db.ExecSQL(stmt); err != nil {
			return nil, bs, fmt.Errorf("%s: %w", stmt, err)
		}
	}
	t0 := time.Now()
	if _, err := db.LoadXMLDirOpts("orders", filepath.Join(c.dir, "orders"), xqdb.LoadOptions{}); err != nil {
		return nil, bs, err
	}
	bs.Load = time.Since(t0)
	if _, err := db.LoadXMLDirOpts("customer", filepath.Join(c.dir, "customer"), xqdb.LoadOptions{}); err != nil {
		return nil, bs, err
	}
	var b strings.Builder
	b.WriteString(`insert into products values `)
	for i, p := range c.products {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "('%s', '%s')", p[0], p[1])
	}
	if _, _, err := db.ExecSQL(b.String()); err != nil {
		return nil, bs, fmt.Errorf("loading products: %w", err)
	}
	if ready != nil {
		if err := ready(db); err != nil {
			return nil, bs, err
		}
	}
	bs.Elapsed = time.Since(start)
	return db, bs, nil
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
