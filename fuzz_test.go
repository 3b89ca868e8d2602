package xqdb

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/sqlxml"
)

// fuzzFixture is a fresh small database: two tables, an XML index, a
// relational index and a few documents for statements to run against.
func fuzzFixture(t *testing.T) *DB {
	db := Open()
	for _, s := range []string{
		`create table orders (ordid integer, orddoc xml)`,
		`create table customer (cid integer, cdoc xml)`,
		`create index li_price on orders(orddoc) using xmlpattern '//lineitem/@price' as double`,
		`create index o_custid on orders(orddoc) using xmlpattern '/order/custid' as double`,
		`create index c_id on customer(cid)`,
		`insert into customer values (1, '<customer><id>1</id><name>a</name></customer>')`,
	} {
		if _, _, err := db.ExecSQL(s); err != nil {
			t.Fatalf("fixture %q: %v", s, err)
		}
	}
	for i := 1; i <= 4; i++ {
		doc := fmt.Sprintf(`<order><custid>%d</custid><lineitem price="%d"><product><id>P%d</id></product></lineitem></order>`, i%2, 50*i, i)
		if _, _, err := db.ExecSQL(fmt.Sprintf(`insert into orders values (%d, '%s')`, i, doc)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// FuzzSQLParse feeds arbitrary strings through the SQL/XML parser. The
// parser must return a statement or an error, never panic. A statement
// that parses must then explain and run, under a step budget and a
// timeout, on a fresh fixture database to a result or an error. Panics
// below the entry points are contained as internal errors, so one of
// those fails the target too.
func FuzzSQLParse(f *testing.F) {
	for _, seed := range []string{
		`select ordid from orders where XMLExists('$o//lineitem[@price > 100]' passing orddoc as "o")`,
		`select ordid from orders where XMLExists('$o/order[custid = 1]' passing orddoc as "o") order by ordid desc`,
		`select XMLCast(XMLQuery('$o/order/custid' passing orddoc as "o") as double) from orders`,
		`select XMLSERIALIZE(XMLQuery('$o//product' passing orddoc as "o") as varchar(100)) from orders`,
		`select o.ordid, c.cid from orders o, customer c where XMLExists('$order/order[custid/xs:double(.) = $cust/customer/id/xs:double(.)]' passing o.orddoc as "order", c.cdoc as "cust")`,
		`select t.p from orders, XMLTable('$o//lineitem' passing orddoc as "o" columns p double path '@price') as t`,
		`select * from orders where ordid = 1`,
		`select ordid from orders order by ordid fetch first 2 rows only`,
		`select cid from customer where cid = 1`,
		`explain select ordid from orders where XMLExists('$o//lineitem[@price > 100]' passing orddoc as "o")`,
		`insert into orders values (9, '<order><lineitem price="1"/></order>')`,
		`delete from orders where ordid = 2`,
		`create index p_id on orders(orddoc) using xmlpattern '//product/id' as varchar`,
		`drop index li_price`,
		`drop table orders`,
		`values (1, 'a')`,
		`select a from`,
		`select ordid from orders where XMLExists('$o//x[' passing orddoc as "o")`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := sqlxml.Parse(src); err != nil {
			return
		}
		db := fuzzFixture(t)
		if _, err := db.Explain(src); err != nil {
			if v, ok := guard.AsViolation(err); ok && v.Kind == guard.Internal {
				t.Fatalf("Explain(%q): %v", src, err)
			}
		}
		_, _, err := db.ExecSQLOpts(src, QueryOptions{MaxEvalSteps: 20000, MaxResultItems: 1000, Timeout: time.Second})
		var qe *QueryError
		if errors.As(err, &qe) && qe.Kind == ErrInternal {
			t.Fatalf("ExecSQLOpts(%q): %v", src, err)
		}
	})
}
