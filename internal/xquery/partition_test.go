package xquery

import (
	"testing"

	"github.com/xqdb/xqdb/internal/xdm"
)

func TestPartitionable(t *testing.T) {
	cases := []struct {
		name  string
		query string
		coll  string // "" = not partitionable
	}{
		// Positive: the single xmlcolumn call sits in a distributive
		// position.
		{"bare call", `db2-fn:xmlcolumn('ORDERS.ORDDOC')`, "ORDERS.ORDDOC"},
		{"path from call", `db2-fn:xmlcolumn('ORDERS.ORDDOC')//order[lineitem/@price > 100]`, "ORDERS.ORDDOC"},
		{"first for-clause", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order where $i/custid = 1 return $i`, "ORDERS.ORDDOC"},
		{"for over bare call", `for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') return $d//lineitem`, "ORDERS.ORDDOC"},
		{"nested flwor in return", `for $d in db2-fn:xmlcolumn('ORDERS.ORDDOC') return (for $l in $d//lineitem return $l/@price)`, "ORDERS.ORDDOC"},
		{"positional axis predicate", `db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/lineitem[last()]`, "ORDERS.ORDDOC"},
		{"position in axis predicate", `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem[position() = 1]/@price`, "ORDERS.ORDDOC"},
		{"filter step without focus", `db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/count(lineitem)`, "ORDERS.ORDDOC"},

		// Negative: shapes where partitioning would change the result.
		{"order by", `for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order order by $i/custid return $i`, ""},
		{"positional variable", `for $i at $p in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order return $p`, ""},
		{"two calls", `(db2-fn:xmlcolumn('ORDERS.ORDDOC'), db2-fn:xmlcolumn('CUSTOMER.CDOC'))`, ""},
		{"let binding", `let $all := db2-fn:xmlcolumn('ORDERS.ORDDOC') return $all//order`, ""},
		{"aggregate argument", `count(db2-fn:xmlcolumn('ORDERS.ORDDOC')//order)`, ""},
		{"inner for-clause", `for $c in (1, 2) for $i in db2-fn:xmlcolumn('ORDERS.ORDDOC')//order return $i`, ""},
		{"dynamic collection name", `db2-fn:xmlcolumn(concat('ORDERS', '.ORDDOC'))`, ""},
		{"no collection", `1 + 2`, ""},
		// A filter step's focus spans the whole intermediate sequence, so
		// fn:position and fn:last there count across documents.
		{"position filter step", `db2-fn:xmlcolumn('ORDERS.ORDDOC')/position()`, ""},
		{"last filter step", `db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/last()`, ""},
		{"prefixed last filter step", `db2-fn:xmlcolumn('ORDERS.ORDDOC')/fn:last()`, ""},
		{"position inside filter expression", `db2-fn:xmlcolumn('ORDERS.ORDDOC')//lineitem/(position() * 2)`, ""},
		{"for over position filter step", `for $x in db2-fn:xmlcolumn('ORDERS.ORDDOC')/position() return $x`, ""},
		{"for over last filter step", `for $x in db2-fn:xmlcolumn('ORDERS.ORDDOC')/order/last() return $x`, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Parse(tc.query)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			coll, ok := Partitionable(m)
			if ok != (tc.coll != "") || coll != tc.coll {
				t.Fatalf("Partitionable(%s) = (%q, %v), want (%q, %v)",
					tc.query, coll, ok, tc.coll, tc.coll != "")
			}
		})
	}
}

// A leading filter step with a positional predicate over the collection
// (e.g. the paper's "(collection)[3]") must never be partitionable: the
// predicate ranges over the whole document sequence. The parser only
// admits a predicate-free primary as PathExpr.Start, so the structural
// check cannot see this shape as Start==call; this test pins that down.
func TestPartitionablePositionalFilter(t *testing.T) {
	for _, q := range []string{
		`(db2-fn:xmlcolumn('ORDERS.ORDDOC'))[3]`,
		`db2-fn:xmlcolumn('ORDERS.ORDDOC')[3]`,
	} {
		m, err := Parse(q)
		if err != nil {
			// Some spellings may not parse at all; that also keeps the
			// query off the parallel path.
			continue
		}
		if coll, ok := Partitionable(m); ok {
			t.Fatalf("Partitionable(%s) = (%q, true), want false", q, coll)
		}
	}
}

func TestShardResolver(t *testing.T) {
	base := mapResolver{
		"orders.orddoc": {&xdm.Node{TreeID: 1}, &xdm.Node{TreeID: 2}},
		"customer.cdoc": {&xdm.Node{TreeID: 9}},
	}
	shard := []*xdm.Node{{TreeID: 2}}
	s := &ShardResolver{Name: "ORDERS.ORDDOC", Docs: shard, Next: base}

	got, err := s.Collection("orders.orddoc")
	if err != nil || len(got) != 1 || got[0] != shard[0] {
		t.Fatalf("sharded collection = %v, %v; want the shard", got, err)
	}
	other, err := s.Collection("CUSTOMER.CDOC")
	if err != nil || len(other) != 1 || other[0].TreeID != 9 {
		t.Fatalf("other collection = %v, %v; want delegation to Next", other, err)
	}
}

type mapResolver map[string][]*xdm.Node

func (m mapResolver) Collection(name string) ([]*xdm.Node, error) {
	return m[lower(name)], nil
}

func lower(s string) string {
	b := []byte(s)
	for i, c := range b {
		if c >= 'A' && c <= 'Z' {
			b[i] = c + 32
		}
	}
	return string(b)
}
