package core

import (
	"strings"
	"testing"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xmlindex"
)

func eligibleForPattern(t *testing.T, a *Analysis, pat string, typ xmlindex.Type, collection string) bool {
	t.Helper()
	p := pattern.MustParse(pat)
	for _, pr := range a.Predicates {
		if !strings.EqualFold(pr.Collection, collection) {
			continue
		}
		if Decide(p, typ, pr).Eligible() {
			return true
		}
	}
	return false
}

func TestDateIndexEligibility(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('O.D')//order[shipdate/xs:date(.) ge xs:date("2002-01-01")]`)
	if !eligibleForPattern(t, a, "//shipdate", xmlindex.Date, "o.d") {
		t.Errorf("date comparison should match a date index: %+v", a.Predicates)
	}
	if eligibleForPattern(t, a, "//shipdate", xmlindex.Double, "o.d") {
		t.Error("date comparison must not match a double index")
	}
	if eligibleForPattern(t, a, "//shipdate", xmlindex.Varchar, "o.d") {
		t.Error("date comparison must not match a varchar index")
	}
}

func TestTimestampEligibility(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('O.D')//event[ts/xs:dateTime(.) gt xs:dateTime("2006-09-12T00:00:00Z")]`)
	if !eligibleForPattern(t, a, "//event/ts", xmlindex.Timestamp, "o.d") {
		t.Errorf("dateTime comparison should match a timestamp index: %+v", a.Predicates)
	}
}

func TestLiteralOnLeftMirrors(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('O.D')//order[100 < lineitem/@price]`)
	found := false
	for _, p := range a.Predicates {
		if p.Value != nil {
			found = true
			if p.Op.GeneralSymbol() != ">" {
				t.Errorf("mirrored op = %s, want >", p.Op.GeneralSymbol())
			}
		}
	}
	if !found {
		t.Fatalf("no value predicate extracted: %+v", a.Predicates)
	}
	if !eligibleForPattern(t, a, "//lineitem/@price", xmlindex.Double, "o.d") {
		t.Error("mirrored comparison should stay double-eligible")
	}
}

func TestQuantifiedSomeFilters(t *testing.T) {
	a := analyzeXQ(t, `for $o in db2-fn:xmlcolumn('O.D')/order
		where some $l in $o/lineitem satisfies $l/@price > 100
		return $o`)
	if !eligibleForPattern(t, a, "//lineitem/@price", xmlindex.Double, "o.d") {
		t.Errorf("some-quantified predicate should be eligible: %+v", a.Predicates)
	}
}

func TestQuantifiedEveryDoesNotFilter(t *testing.T) {
	a := analyzeXQ(t, `for $o in db2-fn:xmlcolumn('O.D')/order
		where every $l in $o/lineitem satisfies $l/@price > 100
		return $o`)
	if eligibleForPattern(t, a, "//lineitem/@price", xmlindex.Double, "o.d") {
		t.Error("every-quantified predicates must not pre-filter (empty binding satisfies)")
	}
}

func TestExistsPredicateStructural(t *testing.T) {
	a := analyzeXQ(t, `for $o in db2-fn:xmlcolumn('O.D')/order
		where fn:exists($o/lineitem/product)
		return $o`)
	if !eligibleForPattern(t, a, "//product", xmlindex.Varchar, "o.d") {
		t.Errorf("fn:exists should yield a structural candidate: %+v", a.Predicates)
	}
	if eligibleForPattern(t, a, "//product", xmlindex.Double, "o.d") {
		t.Error("structural candidates need a varchar index")
	}
}

func TestNegatedPredicateNotFiltering(t *testing.T) {
	a := analyzeXQ(t, `for $o in db2-fn:xmlcolumn('O.D')/order
		where fn:not($o/lineitem/@price > 100)
		return $o`)
	if eligibleForPattern(t, a, "//lineitem/@price", xmlindex.Double, "o.d") {
		t.Error("negated predicates must not pre-filter")
	}
}

func TestOrPredicateNotFilteringXQuery(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('O.D')//order[lineitem/@price > 100 or custid = 7]`)
	if eligibleForPattern(t, a, "//lineitem/@price", xmlindex.Double, "o.d") {
		t.Error("a disjunct alone must not pre-filter")
	}
}

func TestSQLWhereOrAndNot(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT ordid FROM orders
		WHERE XMLExists('$o//lineitem[@price > 100]' passing orddoc as "o")
		   OR XMLExists('$o/order[custid = 7]' passing orddoc as "o")`)
	for _, p := range a.Predicates {
		if p.Filtering {
			t.Errorf("OR branch predicate marked filtering: %s", p.Describe())
		}
	}
	a = analyzeSQLQ(t, `SELECT ordid FROM orders
		WHERE NOT XMLExists('$o//lineitem[@price > 100]' passing orddoc as "o")`)
	for _, p := range a.Predicates {
		if p.Filtering {
			t.Errorf("negated predicate marked filtering: %s", p.Describe())
		}
	}
}

func TestTipTitlesComplete(t *testing.T) {
	for tip := 1; tip <= 12; tip++ {
		if TipTitle(tip) == "" {
			t.Errorf("tip %d has no title", tip)
		}
	}
	if TipTitle(99) != "" {
		t.Error("out-of-range tip should be empty")
	}
}

func TestRewriteBooleanPredicateSuggestion(t *testing.T) {
	a := analyzeSQLQ(t, `SELECT ordid FROM orders
		WHERE XMLExists('$order//lineitem/@price > 100' passing orddoc as "order")`)
	found := false
	for _, w := range a.Warnings {
		if w.Tip == 3 && strings.Contains(w.Message, "suggested rewrite") {
			found = true
			if !strings.Contains(w.Message, "[(@price > 100)]") && !strings.Contains(w.Message, "[@price > 100]") {
				t.Errorf("rewrite should move the comparison into a predicate: %s", w.Message)
			}
		}
	}
	if !found {
		t.Errorf("no rewrite suggestion: %+v", a.Warnings)
	}
}

func TestDescribeRendersBetween(t *testing.T) {
	a := analyzeXQ(t, `db2-fn:xmlcolumn('O.D')//order[lineitem[@price>100 and @price<135]]`)
	for _, p := range a.Predicates {
		if p.Value != nil && p.Between < 0 {
			t.Errorf("between not detected for %s", p.Describe())
		}
		if p.Value != nil && !strings.Contains(p.Describe(), "@price") {
			t.Errorf("describe missing path: %s", p.Describe())
		}
	}
}

func TestValuesNonXMLQueryIgnored(t *testing.T) {
	a := analyzeSQLQ(t, `VALUES (1)`)
	if len(a.Predicates) != 0 {
		t.Errorf("plain VALUES should produce no predicates: %+v", a.Predicates)
	}
}
