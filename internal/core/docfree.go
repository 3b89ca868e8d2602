package core

import (
	"strings"

	"github.com/xqdb/xqdb/internal/pattern"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xquery"
)

// DocFreeQuery describes a query the engine may answer without walking a
// single document: fn:count or fn:exists over a path from a collection
// call. Without a comparison the answer depends only on which rooted
// label paths exist and how often, so the path synopsis holds it; with
// one comparison it depends only on which nodes an eligible value index
// matches, so one node-granularity probe holds it.
type DocFreeQuery struct {
	// Collection is the lowercased "table.column" the path ranges over.
	Collection string
	// Pattern is the query path lowered to XMLPATTERN form. With a
	// comparison it is the full path to the compared node: the outer
	// steps, plus the predicate's relative path when the comparison is
	// not against the context item.
	Pattern *pattern.Pattern
	// Count distinguishes fn:count (node count) from fn:exists
	// (boolean). With a comparison, Count additionally requires the
	// compared node to be the counted node (the [. op c] form), so that
	// index matches and counted matches are the same population.
	Count bool
	// Op, Value and CompType describe the last step's comparison,
	// normalized to operand-op-constant and ready for probe planning.
	// Value is nil for a predicate-free (structural) path.
	Op       xdm.CompareOp
	Value    *xdm.Value
	CompType CompType
}

// DocFree reports whether the module's whole body is fn:count(...) or
// fn:exists(...) over a path that starts at db2-fn:xmlcolumn /
// fn:collection and navigates with axis steps the pattern grammar
// admits, every step predicate-free except possibly the last, which may
// carry exactly one predicate: a general comparison of the context item
// (count, exists) or of a plain relative downward path (exists only)
// against a typed constant.
//
// A predicate-free path is exact against the synopsis, which counts every
// node by its rooted label path — the same population the XMLPATTERN walk
// sees. With a comparison the recognizer establishes shape only.
// Soundness — "the index's match set is exactly the comparison's hit
// set" — additionally requires the engine-side gates: an eligible index
// (Definition 1), a pattern equivalent to the query path over the stored
// population, and no schema-annotated documents, because a general
// comparison over untyped values skips non-castable nodes exactly like
// the tolerant cast the index applied at insert (§3.1); typed values can
// instead raise errors the index never recorded.
func DocFree(m *xquery.Module) (*DocFreeQuery, bool) {
	fc, ok := m.Body.(*xquery.FunctionCall)
	if !ok || fc.Space != "fn" || len(fc.Args) != 1 {
		return nil, false
	}
	count := fc.Local == "count"
	if !count && fc.Local != "exists" {
		return nil, false
	}
	pe, ok := fc.Args[0].(*xquery.PathExpr)
	if !ok || pe.Rooted || len(pe.Steps) == 0 {
		return nil, false
	}
	coll, ok := structuralCollection(pe.Start)
	if !ok {
		return nil, false
	}
	q := &DocFreeQuery{Collection: coll, Count: count}
	steps := make([]pattern.Step, 0, len(pe.Steps))
	var comp *xquery.Comparison
	for i, s := range pe.Steps {
		if len(s.Predicates) > 0 {
			if i != len(pe.Steps)-1 || len(s.Predicates) != 1 {
				return nil, false
			}
			comp, ok = s.Predicates[0].(*xquery.Comparison)
			if !ok || comp.Kind != xquery.GeneralComp {
				return nil, false
			}
		}
		ps, ok := convertStep(s)
		if !ok {
			return nil, false // parent or filter steps leave the pattern grammar
		}
		steps = append(steps, ps)
	}
	if comp != nil {
		if steps, ok = q.setComparison(comp, steps); !ok {
			return nil, false
		}
	}
	p, err := pattern.FromSteps(steps)
	if err != nil {
		return nil, false
	}
	q.Pattern = p
	return q, true
}

// setComparison records the predicate on q, normalized to
// operand-op-constant, and returns steps extended to the compared node.
func (q *DocFreeQuery) setComparison(comp *xquery.Comparison, steps []pattern.Step) ([]pattern.Step, bool) {
	operand, op := comp.Left, comp.Op
	val, valType, ok := literalOperand(comp.Right)
	if !ok {
		val, valType, ok = literalOperand(comp.Left)
		if !ok {
			return nil, false
		}
		operand, op = comp.Right, mirrorOp(op)
	}
	if valType == CompUnknown {
		return nil, false
	}

	switch x := operand.(type) {
	case *xquery.ContextItem:
		// [. op c]: the compared node is the counted node itself.
	case *xquery.FunctionCall:
		if x.Space != "fn" || x.Local != "data" || len(x.Args) != 1 {
			return nil, false
		}
		if _, ok := x.Args[0].(*xquery.ContextItem); !ok {
			return nil, false
		}
	case *xquery.PathExpr:
		// [rel/path op c]: index matches count compared nodes, not
		// counted nodes, so only the existential form stays exact.
		if q.Count {
			return nil, false
		}
		rel, _ := seedableOperand(x)
		if rel == nil || rel.Start != nil {
			return nil, false
		}
		relSteps := rel.Steps
		if relSteps[0].Axis == xquery.AxisNone {
			relSteps = relSteps[1:]
		}
		for _, s := range relSteps {
			ps, ok := convertStep(s)
			if !ok {
				return nil, false
			}
			steps = append(steps, ps)
		}
	default:
		return nil, false
	}
	q.Op, q.Value, q.CompType = op, &val, valType
	return steps, true
}

// Predicate builds the Definition-1 predicate form of a query with a
// comparison, for Decide eligibility screening against candidate
// indexes.
func (q *DocFreeQuery) Predicate() Predicate {
	v := *q.Value
	return Predicate{
		Collection: q.Collection,
		FromIndex:  -1,
		Steps:      q.Pattern.Steps,
		Pattern:    q.Pattern,
		Op:         q.Op,
		Value:      &v,
		CompType:   q.CompType,
		Filtering:  true,
		Between:    -1,
	}
}

// structuralCollection recognizes the collection call a document-free
// path must start from: db2-fn:xmlcolumn('T.C') or fn:collection('T.C')
// with a string literal argument.
func structuralCollection(e xquery.Expr) (string, bool) {
	fc, ok := e.(*xquery.FunctionCall)
	if !ok || len(fc.Args) != 1 {
		return "", false
	}
	isXMLColumn := fc.Space == "db2-fn" && fc.Local == "xmlcolumn"
	isCollection := fc.Space == "fn" && fc.Local == "collection"
	if !isXMLColumn && !isCollection {
		return "", false
	}
	lit, ok := fc.Args[0].(*xquery.Literal)
	if !ok || lit.Value.T != xdm.String {
		return "", false
	}
	return strings.ToLower(lit.Value.S), true
}
