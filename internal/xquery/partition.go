package xquery

import (
	"strings"

	"github.com/xqdb/xqdb/internal/xdm"
)

// Partitionable decides whether a module can be evaluated document-at-a-
// time over disjoint shards of one collection, with the shard results
// concatenated in shard order reproducing the serial result exactly.
//
// The conservative criterion: the query references db2-fn:xmlcolumn
// exactly once, with a literal collection name, and that single call sits
// in a distributive position — one where the evaluation of the whole
// query distributes over a partition of the collection's document
// sequence:
//
//   - the query body is the call itself, or
//   - the body is a path whose Start is the call (steps and their
//     predicates evaluate per context node, never across documents) and
//     no filter-step expression calls fn:position or fn:last (those
//     observe the focus over the whole intermediate sequence, which
//     spans every document), or
//   - the body is a FLWOR whose first (outermost) clause is a for-binding
//     of the call (or of a path starting at it) with no positional
//     variable, and the FLWOR has no order-by.
//
// Any other placement — an inner for-clause (tuples would interleave
// differently), a let binding or aggregate argument (the whole sequence is
// one value), a leading filter step (positional predicates range over the
// collection), an order-by (per-shard sorts do not concatenate into the
// global sort) — is rejected and the query runs serially.
//
// Callers must additionally verify at run time that the resolved document
// sequence is ordered by TreeID, since concatenating per-shard
// document-order sorts only reproduces the global sort when shards are
// monotone in tree order.
func Partitionable(m *Module) (string, bool) {
	if m == nil || m.Body == nil {
		return "", false
	}
	calls := 0
	walkExpr(m.Body, func(e Expr) {
		if fc, ok := e.(*FunctionCall); ok && fc.Space == "db2-fn" && fc.Local == "xmlcolumn" {
			calls++
		}
	})
	if calls != 1 {
		return "", false
	}
	return literalXMLColumn(distributiveExpr(m.Body))
}

// distributiveExpr returns the expression occupying the distributive
// position of the body shape, or nil when the shape admits none.
func distributiveExpr(body Expr) Expr {
	switch x := body.(type) {
	case *FunctionCall:
		return x
	case *PathExpr:
		return pathStart(x)
	case *FLWOR:
		if len(x.OrderBy) > 0 || len(x.Clauses) == 0 {
			return nil
		}
		c := x.Clauses[0]
		if c.Kind != ForClause || c.PosVar != "" {
			return nil
		}
		switch b := c.Expr.(type) {
		case *FunctionCall:
			return b
		case *PathExpr:
			return pathStart(b)
		}
	}
	return nil
}

// pathStart returns the path's Start, or nil when a filter step's
// expression calls fn:position or fn:last: a shard would number or count
// only its own part of the sequence. Axis-step predicates are safe; they
// count per context node.
func pathStart(p *PathExpr) Expr {
	for _, st := range p.Steps {
		if callsPositional(st.Filter) {
			return nil
		}
	}
	return p.Start
}

// callsPositional reports whether e calls fn:position or fn:last anywhere.
func callsPositional(e Expr) bool {
	found := false
	walkExpr(e, func(sub Expr) {
		if fc, ok := sub.(*FunctionCall); ok && fc.Space == "fn" && (fc.Local == "position" || fc.Local == "last") {
			found = true
		}
	})
	return found
}

// literalXMLColumn matches a db2-fn:xmlcolumn call with a literal
// collection name and returns that name.
func literalXMLColumn(e Expr) (string, bool) {
	fc, ok := e.(*FunctionCall)
	if !ok || fc.Space != "db2-fn" || fc.Local != "xmlcolumn" || len(fc.Args) != 1 {
		return "", false
	}
	lit, ok := fc.Args[0].(*Literal)
	if !ok {
		return "", false
	}
	return lit.Value.Lexical(), true
}

// walkExpr visits e and every subexpression in document order.
func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch x := e.(type) {
	case *SequenceExpr:
		for _, it := range x.Items {
			walkExpr(it, f)
		}
	case *FLWOR:
		for _, c := range x.Clauses {
			walkExpr(c.Expr, f)
		}
		walkExpr(x.Where, f)
		for _, o := range x.OrderBy {
			walkExpr(o.Key, f)
		}
		walkExpr(x.Return, f)
	case *Quantified:
		for _, c := range x.Bindings {
			walkExpr(c.Expr, f)
		}
		walkExpr(x.Satisfies, f)
	case *IfExpr:
		walkExpr(x.Cond, f)
		walkExpr(x.Then, f)
		walkExpr(x.Else, f)
	case *BinaryExpr:
		walkExpr(x.Left, f)
		walkExpr(x.Right, f)
	case *Comparison:
		walkExpr(x.Left, f)
		walkExpr(x.Right, f)
	case *UnaryExpr:
		walkExpr(x.Operand, f)
	case *CastExpr:
		walkExpr(x.Operand, f)
	case *CastableExpr:
		walkExpr(x.Operand, f)
	case *TreatExpr:
		walkExpr(x.Operand, f)
	case *InstanceOfExpr:
		walkExpr(x.Operand, f)
	case *PathExpr:
		walkExpr(x.Start, f)
		for i := range x.Steps {
			walkExpr(x.Steps[i].Filter, f)
			for _, p := range x.Steps[i].Predicates {
				walkExpr(p, f)
			}
		}
	case *FunctionCall:
		for _, a := range x.Args {
			walkExpr(a, f)
		}
	case *ElementConstructor:
		for _, at := range x.Attrs {
			for _, p := range at.Parts {
				walkExpr(p, f)
			}
		}
		for _, c := range x.Content {
			walkExpr(c, f)
		}
	case *ComputedConstructor:
		walkExpr(x.Content, f)
	}
}

// ShardResolver restricts one collection to a fixed document shard,
// delegating every other name to the underlying resolver. It is the
// mechanism behind parallel document-at-a-time execution: each worker
// evaluates the full query against a resolver serving its shard.
type ShardResolver struct {
	// Name is the collection being sharded, exactly as the query spells
	// it (collection names resolve case-insensitively).
	Name string
	// Docs is this shard's document subsequence.
	Docs []*xdm.Node
	// Next resolves all other collections.
	Next CollectionResolver
}

// Collection implements CollectionResolver.
func (s *ShardResolver) Collection(name string) ([]*xdm.Node, error) {
	if strings.EqualFold(name, s.Name) {
		return s.Docs, nil
	}
	return s.Next.Collection(name)
}
