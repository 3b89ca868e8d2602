// Package core implements the paper's primary contribution: the XML index
// eligibility analysis of Definition 1 and the pitfall detection behind
// Tips 1-12. The analyzer extracts candidate predicates from XQuery and
// SQL/XML statements, decides for each (predicate, index) pair whether the
// index may pre-filter documents, and explains ineligibility in terms of
// the paper's three failure modes:
//
//  1. structure — the index pattern is more restrictive than the query
//     path (§2.2, §3.7 namespaces, §3.8 text() alignment, §3.9 attributes);
//  2. type — the comparison's type is unknown at compile time or
//     incompatible with the index data type (§3.1, §3.3, §3.6);
//  3. context — the predicate does not eliminate rows or documents
//     (§3.2 SQL/XML functions, §3.4 let-clauses, §3.6 construction).
package core

import (
	"fmt"
	"strings"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xquery"
)

// CompType is the compile-time comparison type of a predicate.
type CompType uint8

// Comparison types. Unknown means the analyzer could not prove a type —
// per §3.1 the per-document schema model forbids guessing, so Unknown
// predicates are never index-eligible.
const (
	CompUnknown CompType = iota
	CompString
	CompDouble
	CompDate
	CompTimestamp
)

var compTypeNames = [...]string{"unknown", "string", "double", "date", "timestamp"}

func (t CompType) String() string { return compTypeNames[t] }

// xdmToComp maps an XDM type to its comparison family.
func xdmToComp(t xdm.Type) CompType {
	switch {
	case t.IsNumeric():
		return CompDouble
	case t == xdm.String:
		return CompString
	case t == xdm.Date:
		return CompDate
	case t == xdm.DateTime:
		return CompTimestamp
	}
	return CompUnknown
}

// Predicate is one candidate predicate extracted from a query.
type Predicate struct {
	// Collection identifies the document source: "table.column"
	// (lower-case) for both db2-fn:xmlcolumn references and SQL-passed
	// XML columns.
	Collection string
	// FromIndex is the SQL FROM-item position the predicate restricts
	// (-1 for standalone XQuery).
	FromIndex int
	// Occurrence distinguishes independent bindings of the same
	// collection. Predicates of one occurrence constrain the same
	// document and may be intersected; across occurrences only the
	// union of document sets is a sound pre-filter.
	Occurrence int
	// Steps is the navigation from the document root to the compared
	// node; Pattern is its compiled form.
	Steps   []pattern.Step
	Pattern *pattern.Pattern
	// Op and Value describe the comparison; Value is nil for joins and
	// structural predicates.
	Op    xdm.CompareOp
	Value *xdm.Value
	// ValueComp records whether the query used a value comparison
	// (eq/lt/...), which guarantees singleton operands (§3.10).
	ValueComp bool
	// JoinTable/JoinColumn are set when the comparison's other side is a
	// SQL scalar column (e.g. Query 13's `id eq $pid`): the engine may
	// then run an index semi-join, probing once per distinct value.
	JoinTable  string
	JoinColumn string
	// CompType is the comparison's compile-time type.
	CompType CompType
	// Filtering reports whether an empty result eliminates the
	// row/document (the context condition). Non-filtering predicates
	// are never eligible; Reason says why.
	Filtering bool
	Reason    string
	// SingletonItem is true when the compared item is provably at most
	// one per evaluation of the predicate's conjunction scope: a value
	// comparison (singleton or dynamic error, so exact under the
	// error-freedom convention), the self/data() form, or a single
	// named-attribute operand step. It enables between detection.
	SingletonItem bool
	// Scope identifies the conjunction scope the comparison is a direct
	// conjunct of: one bracket's predicate expression, one where clause,
	// one quantifier satisfies-clause. Two comparisons are evaluated
	// against the same context instantiation — so "the same node must
	// satisfy both" reasoning applies — only when they share a scope.
	// 0 means none: the predicate must not merge with any other.
	Scope int
	// PlainOperand is true when the compared operand is the context item
	// or a predicate-free downward path: re-evaluating it twice within
	// one scope provably yields the same sequence, which between merging
	// and node-granular intersection both rely on.
	PlainOperand bool
	// Between links this predicate to its partner bound when a between
	// pair was detected (index into Analysis.Predicates), else -1.
	Between int
	// SeedPath is the compared operand's own path AST when index hits
	// may seed its re-evaluation: a general comparison against a
	// constant whose operand is a plain downward path with no step
	// predicates. Pruning such a path to index-matched nodes (and
	// their ancestors) is sound because a general comparison is
	// existential and every pruned node contributes false — positional
	// or filter predicates would break that, so they disqualify.
	SeedPath *xquery.PathExpr
	// SeedSingle marks a SeedPath that is a single named-attribute
	// step relative to the predicate context: at most one compared
	// node per context node, so conjunctive probes over the same
	// occurrence and pattern may intersect at node granularity.
	SeedSingle bool
	// Source is a human-readable rendering for reports.
	Source string
}

// Warning is one pitfall detection, keyed to the paper's tip numbers.
type Warning struct {
	Tip     int // 1..12; 0 = general remark
	Message string
}

// tipTitles gives the short titles used in reports.
var tipTitles = [...]string{
	0:  "general",
	1:  "use type casts in XQuery join predicates",
	2:  "use stand-alone XQuery to retrieve XML fragments",
	3:  "use XMLExists for document selection; don't let it wrap a boolean",
	4:  "put predicates in the XMLTable row-producer",
	5:  "express the join on the side that has the index",
	6:  "always express XML joins on the XQuery side",
	7:  "don't bury predicates inside element constructors",
	8:  "mind document vs element nodes in path expressions",
	9:  "write predicates on the data before construction",
	10: "align namespaces between data, queries, and indexes",
	11: "align /text() steps between query and index",
	12: "index attributes with //@*, not //* or //node()",
}

// TipTitle returns the short title of a tip.
func TipTitle(tip int) string {
	if tip >= 0 && tip < len(tipTitles) {
		return tipTitles[tip]
	}
	return ""
}

// RelPredicate is a relational-index opportunity found on the SQL side
// (e.g. Query 14's p.id = XMLCast(...), or a plain col = literal).
type RelPredicate struct {
	Table  string
	Column string
	Op     xdm.CompareOp
	// Value is the comparison constant when one side is a literal; nil
	// for joins and extracted-value comparisons.
	Value *xdm.Value
	// FromIndex is the FROM position of the column's table.
	FromIndex int
	// Filtering mirrors Predicate.Filtering: only top-level conjuncts
	// may install row filters.
	Filtering bool
}

// Analysis is the analyzer output for one statement.
type Analysis struct {
	Predicates    []Predicate
	RelPredicates []RelPredicate
	Warnings      []Warning
}

func (a *Analysis) warnf(tip int, format string, args ...any) {
	a.Warnings = append(a.Warnings, Warning{Tip: tip, Message: fmt.Sprintf(format, args...)})
}

// Failure is the eligibility decision for one (predicate, index) pair:
// the set of Definition-1 conditions it fails, in the paper's three
// failure modes. The zero value means eligible.
type Failure uint8

// Failed conditions, in the order Reasons lists them.
const (
	// FailContext: the predicate does not eliminate rows or documents.
	FailContext Failure = 1 << iota
	// FailNoPath: the predicate's path could not be derived, so no
	// other condition was checked.
	FailNoPath
	// FailStructure: the index pattern does not contain the query path.
	FailStructure
	// FailType: the index type cannot answer the comparison exactly.
	FailType
)

// Eligible reports whether no condition failed.
func (f Failure) Eligible() bool { return f == 0 }

// compIndexType is the index type that answers each comparison type
// exactly (§3.1); unknown comparisons have none.
var compIndexType = [...]xmlindex.Type{
	CompString:    xmlindex.Varchar,
	CompDouble:    xmlindex.Double,
	CompDate:      xmlindex.Date,
	CompTimestamp: xmlindex.Timestamp,
}

// Decide decides whether an index with the given pattern and type is
// eligible to answer one predicate. It is the only place the conditions
// are evaluated; Reasons words the result for EXPLAIN.
func Decide(idxPattern *pattern.Pattern, idxType xmlindex.Type, p Predicate) Failure {
	var f Failure
	if !p.Filtering {
		f |= FailContext
	}
	if p.Pattern == nil {
		return f | FailNoPath
	}
	if !pattern.Contains(idxPattern, p.Pattern) {
		f |= FailStructure
	}
	if typedPredicate(p) {
		if p.CompType == CompUnknown || compIndexType[p.CompType] != idxType {
			f |= FailType
		}
	} else if p.Op == 0 && idxType != xmlindex.Varchar {
		// Structural predicate: only a varchar index holds every node.
		f |= FailType
	}
	return f
}

// typedPredicate reports whether the predicate's type condition is the
// comparison's type rather than the structural-predicate rule.
func typedPredicate(p Predicate) bool {
	return p.Value != nil || p.CompType != CompUnknown
}

// Reasons words the failed conditions f, which Decide returned for the
// same index and predicate, in the paper's terms with the relevant tips.
func (f Failure) Reasons(idxPattern *pattern.Pattern, idxType xmlindex.Type, p Predicate) []string {
	var reasons []string
	if f&FailContext != 0 {
		reason := p.Reason
		if reason == "" {
			reason = "the predicate does not eliminate any rows or documents"
		}
		reasons = append(reasons, "context: "+reason)
	}
	if f&FailNoPath != 0 {
		return append(reasons, "structure: the predicate path could not be derived")
	}
	if f&FailStructure != 0 {
		reasons = append(reasons, fmt.Sprintf("structure: index pattern %s does not contain query path %s%s",
			idxPattern, p.Pattern, structuralHint(idxPattern, p.Pattern)))
	}
	if f&FailType != 0 {
		if typedPredicate(p) {
			reasons = append(reasons, "type: "+typeReason(idxType, p.CompType))
		} else {
			reasons = append(reasons, fmt.Sprintf("type: a structural predicate needs a varchar index (all values are castable to string), not %s", idxType))
		}
	}
	return reasons
}

// typeReason words why an index of type idx cannot answer a comparison
// of type comp (§3.1).
func typeReason(idx xmlindex.Type, comp CompType) string {
	switch comp {
	case CompUnknown:
		return "comparison type unknown at compile time: add explicit casts (Tip 1)"
	case CompString:
		return fmt.Sprintf("string comparison cannot use a %s index: non-castable values are missing from it", idx)
	case CompDouble:
		if idx == xmlindex.Varchar {
			return "numeric comparison cannot use a varchar index: it cannot enforce numeric equality rules such as 1E3 = 1000"
		}
		return fmt.Sprintf("numeric comparison cannot use a %s index", idx)
	case CompDate:
		return fmt.Sprintf("date comparison cannot use a %s index", idx)
	case CompTimestamp:
		return fmt.Sprintf("timestamp comparison cannot use a %s index", idx)
	}
	return "unsupported comparison type"
}

// structuralHint diagnoses *why* containment failed in terms of the
// paper's tips: namespace mismatch (Tip 10), text() misalignment (Tip
// 11), or attribute-axis mismatch (Tip 12).
func structuralHint(idx, query *pattern.Pattern) string {
	if pattern.Contains(wildcardNamespaces(idx), wildcardNamespaces(query)) {
		return " (hint: namespace mismatch — Tip 10)"
	}
	if pattern.Contains(dropTextSteps(idx), dropTextSteps(query)) {
		return " (hint: /text() steps are not aligned — Tip 11)"
	}
	qs := query.Steps
	is := idx.Steps
	if len(qs) > 0 && len(is) > 0 {
		qLast, iLast := qs[len(qs)-1], is[len(is)-1]
		if qLast.Axis == pattern.Attribute && iLast.Axis != pattern.Attribute {
			return " (hint: the index pattern reaches no attribute nodes — Tip 12)"
		}
	}
	return ""
}

// wildcardNamespaces rewrites every name test to a namespace wildcard.
func wildcardNamespaces(p *pattern.Pattern) *pattern.Pattern {
	steps := append([]pattern.Step(nil), p.Steps...)
	for i := range steps {
		if steps[i].Test == pattern.NameTest {
			steps[i].Space = "*"
		}
	}
	out, err := pattern.FromSteps(steps)
	if err != nil {
		return p
	}
	return out
}

// dropTextSteps removes trailing text() steps.
func dropTextSteps(p *pattern.Pattern) *pattern.Pattern {
	steps := append([]pattern.Step(nil), p.Steps...)
	for len(steps) > 0 && steps[len(steps)-1].Test == pattern.TextTest {
		steps = steps[:len(steps)-1]
	}
	if len(steps) == len(p.Steps) || len(steps) == 0 {
		return p
	}
	out, err := pattern.FromSteps(steps)
	if err != nil {
		return p
	}
	return out
}

// describeSteps renders a step list for predicate Source strings.
func describeSteps(steps []pattern.Step) string {
	p, err := pattern.FromSteps(steps)
	if err != nil {
		return "?"
	}
	return p.String()
}

// opString renders the comparison of a predicate.
func (p Predicate) opString() string {
	if p.Value == nil {
		return ""
	}
	op := p.Op.GeneralSymbol()
	if p.ValueComp {
		op = p.Op.String()
	}
	return fmt.Sprintf(" %s %s", op, p.Value.Lexical())
}

// Describe renders a predicate for reports.
func (p Predicate) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s%s [%s]", p.Collection, describeSteps(p.Steps), p.opString(), p.CompType)
	if !p.Filtering {
		b.WriteString(" (non-filtering: " + p.Reason + ")")
	}
	return b.String()
}
