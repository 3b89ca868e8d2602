package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"github.com/xqdb/xqdb"
)

const (
	// oraclePerTemplate pool statements of each template are answered
	// with indexes off before timing; a no-index pass over corpus-L costs
	// about 0.1 s, so the whole pool (96) would not fit a run. The seed
	// picks which, and every pool statement is still held to returning
	// one answer all run long.
	oraclePerTemplate = 2
	// spotEvery and maxSpots bound the after-run check of fresh
	// statements: every 64th is remembered, at most 16 evenly spaced ones
	// are re-run with indexes off.
	spotEvery = 64
	maxSpots  = 16
)

// spot is one fresh statement remembered for the after-run check.
type spot struct {
	Text string
	Lang language
	Hash uint64
}

// verifier checks every timed answer. Pool statements are compared with
// the no-index oracle where one was computed and with their own first
// answer otherwise; fresh statements are sampled for the after-run
// check; acknowledged writes are tracked for serve-rw's final check.
type verifier struct {
	mu       sync.Mutex
	expected map[int]uint64 // pool slot -> oracle hash
	seen     map[int]uint64 // pool slot -> first answer of this run
	spots    []spot
	live     map[int]bool // bench keys inserted and not deleted
	failures []string
}

func newVerifier() *verifier {
	return &verifier{expected: map[int]uint64{}, seen: map[int]uint64{}, live: map[int]bool{}}
}

func (v *verifier) fail(format string, args ...any) bool {
	if len(v.failures) < 8 {
		v.failures = append(v.failures, fmt.Sprintf(format, args...))
	}
	return false
}

// check reports whether the operation completed with the right answer.
func (v *verifier) check(o *op, out outcome) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	if out.Err != nil {
		return v.fail("%s: %v", o.Text, out.Err)
	}
	switch {
	case o.Class == classInsert:
		v.live[o.Key] = true
	case o.Class == classDelete:
		delete(v.live, o.Key)
	case o.Pool >= 0:
		want, ok := v.expected[o.Pool]
		if !ok {
			if want, ok = v.seen[o.Pool]; !ok {
				v.seen[o.Pool] = out.Hash
				return true
			}
		}
		if out.Hash != want {
			return v.fail("%s: answer %x, want %x", o.Text, out.Hash, want)
		}
	case o.ID%spotEvery == 0:
		v.spots = append(v.spots, spot{Text: o.Text, Lang: o.Lang, Hash: out.Hash})
	}
	return true
}

// scanHash answers a statement with indexes off. The caller makes sure
// nothing else is using db: UseIndexes is a plain field.
func scanHash(db *xqdb.DB, lang language, text string) (uint64, error) {
	db.UseIndexes = false
	defer func() { db.UseIndexes = true }()
	out := (&inproc{db: db, mode: modeDirect}).exec(&op{Lang: lang, Text: text, Pool: -1})
	return out.Hash, out.Err
}

// oraclePool computes the no-index answers of the chosen pool slots.
func (v *verifier) oraclePool(db *xqdb.DB, templates []template, pool []poolEntry, slots []int) error {
	for _, slot := range slots {
		e := pool[slot]
		h, err := scanHash(db, templates[e.Tpl].Lang, e.Text)
		if err != nil {
			return fmt.Errorf("oracle %s: %w", e.Text, err)
		}
		v.expected[slot] = h
	}
	return nil
}

// oracleSlots picks oraclePerTemplate slots of each template.
func oracleSlots(pool []poolEntry, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	byTpl := map[int][]int{}
	for slot, e := range pool {
		byTpl[e.Tpl] = append(byTpl[e.Tpl], slot)
	}
	var slots []int
	for _, s := range byTpl {
		r.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		slots = append(slots, s[:min(oraclePerTemplate, len(s))]...)
	}
	sort.Ints(slots)
	return slots
}

// checkSpots re-runs the remembered fresh statements with indexes off
// and returns how many were checked and how many disagreed. Their
// answers cannot have changed since: the orders serve-rw inserts are
// invisible to every fresh template.
func (v *verifier) checkSpots(db *xqdb.DB) (checked, wrong int) {
	spots := v.spots
	if len(spots) > maxSpots {
		thin := make([]spot, maxSpots)
		for i := range thin {
			thin[i] = spots[i*len(spots)/maxSpots]
		}
		spots = thin
	}
	for _, s := range spots {
		h, err := scanHash(db, s.Lang, s.Text)
		checked++
		if err != nil || h != s.Hash {
			wrong++
			v.fail("%s: indexed answer %x, scan answer %x (%v)", s.Text, s.Hash, h, err)
		}
	}
	return checked, wrong
}

// checkWrites is serve-rw's final check: the table holds the corpus plus
// every acknowledged, undeleted insert, and both an indexed and a scan
// query return exactly those inserts. It returns the number of lost or
// phantom writes.
func (v *verifier) checkWrites(db *xqdb.DB, corpusOrders int) int {
	bad := 0
	count := (&inproc{db: db, mode: modeDirect}).exec(&op{Lang: langSQL, Pool: -1, Text: `select ordid from orders`})
	if count.Err != nil || count.Rows != corpusOrders+len(v.live) {
		bad++
		v.fail("orders holds %d rows, want %d (%v)", count.Rows, corpusOrders+len(v.live), count.Err)
	}
	marker := ordersColl + `/order/custid[. >= ` + strconv.Itoa(benchKeyBase) + `]/text()`
	for _, indexed := range []bool{true, false} {
		db.UseIndexes = indexed
		res, _, err := db.QueryXQuery(marker)
		db.UseIndexes = true
		if err != nil {
			bad++
			v.fail("%s: %v", marker, err)
			continue
		}
		got := map[int]bool{}
		for _, row := range res.Rows() {
			k, _ := strconv.Atoi(row[0])
			got[k-benchKeyBase] = true
		}
		for k := range v.live {
			if !got[k] {
				bad++
				v.fail("acknowledged insert %d lost (indexes=%v)", k, indexed)
			}
		}
		for k := range got {
			if !v.live[k] {
				bad++
				v.fail("deleted insert %d still returned (indexes=%v)", k, indexed)
			}
		}
	}
	return bad
}
