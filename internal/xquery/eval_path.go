package xquery

import (
	"fmt"
	"math"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
)

// evalPath evaluates a path expression. Each axis step maps nodes through
// the axis, filters by the node test and applies predicates; its output is
// in document order without duplicates (see evalStep). A `//T[p…]` pair of
// steps whose predicates cannot observe context positions runs as one
// descendant step (see fusesDescendant). Filter steps evaluate their
// expression once per context item.
func evalPath(p *PathExpr, ctx evalCtx) (xdm.Sequence, error) {
	var input xdm.Sequence
	steps := p.Steps
	switch {
	case !p.Rooted && p.Start == nil && len(steps) > 0 && steps[0].Axis == AxisNone:
		// A leading filter step is a primary expression: it needs no
		// input item of its own (e.g. `$order[pred]/a`, `(1 to 4)[...]`).
		seq, err := eval(steps[0].Filter, ctx)
		if err != nil {
			return nil, err
		}
		seq, err = applyPredicates(steps[0].Predicates, seq, ctx, false)
		if err != nil {
			return nil, err
		}
		input = seq
		steps = steps[1:]
	case p.Rooted:
		// A leading "/" is fn:root(.) treat as document-node() (§3.5):
		// navigating from a tree rooted at a constructed element is a
		// type error, not an empty result.
		if ctx.item == nil {
			return nil, fmt.Errorf("leading / requires a context item")
		}
		n, ok := ctx.item.(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("leading / requires a node context item")
		}
		root := n.Root()
		if root.Kind != xdm.DocumentNode {
			return nil, fmt.Errorf("leading / in a tree rooted at an %s node: fn:root(.) treat as document-node() failed", root.Kind)
		}
		input = xdm.Sequence{root}
	case p.Start != nil:
		s, err := eval(p.Start, ctx)
		if err != nil {
			return nil, err
		}
		input = s
	default:
		if ctx.item == nil {
			return nil, fmt.Errorf("relative path requires a context item")
		}
		input = xdm.Sequence{ctx.item}
	}

	// A seeded path prunes its navigation to the index-derived hit
	// sets: intermediate steps keep only nodes leading to a hit, the
	// final step only the hits themselves.
	var seed *PathSeed
	if len(ctx.seeds) > 0 {
		seed = ctx.seeds[p]
	}
	for si := 0; si < len(steps); si++ {
		var out xdm.Sequence
		var err error
		if si+1 < len(steps) && fusesDescendant(steps[si], steps[si+1], seed != nil) {
			out, err = evalDescendantStep(steps[si], steps[si+1], input, ctx)
			si++
		} else {
			out, err = evalStep(steps[si], input, ctx)
		}
		if err != nil {
			return nil, err
		}
		if seed != nil && steps[si].Axis != AxisNone {
			out = seed.filter(out, si == len(steps)-1)
		}
		input = out
	}
	return input, nil
}

// fusesDescendant reports whether the steps dos and child spell
// `descendant-or-self::node()/child::T[p…]` (what `//T[p…]` parses to) with
// predicates that cannot tell it from `descendant::T[p…]`. The two differ
// only in the context positions the predicates see (`//x[1]` is every
// first x child, not the first x), so each predicate must be a comparison,
// or an and/or of comparisons, with no position() or last() call at any
// depth: a comparison yields a boolean, never a position. A seeded pair
// fuses only without predicates, since the pair's predicates run only on
// children of the seed's live nodes.
func fusesDescendant(dos, child Step, seeded bool) bool {
	if dos.Axis != AxisDescendantOrSelf || dos.Test.Kind != AnyKindTest || len(dos.Predicates) > 0 || child.Axis != AxisChild {
		return false
	}
	if seeded && len(child.Predicates) > 0 {
		return false
	}
	for _, p := range child.Predicates {
		if !positionFreeComparison(p) {
			return false
		}
	}
	return true
}

// positionFreeComparison reports whether e is a comparison, or an and/or
// of comparisons, that never calls fn:position or fn:last.
func positionFreeComparison(e Expr) bool {
	if b, ok := e.(*BinaryExpr); ok && (b.Op == "and" || b.Op == "or") {
		return positionFreeComparison(b.Left) && positionFreeComparison(b.Right)
	}
	if _, ok := e.(*Comparison); !ok {
		return false
	}
	return !callsPositional(e)
}

// evalDescendantStep runs a pair that fusesDescendant accepts as the one
// step descendant::T[p…]: one guard step and one subtree walk per context
// node instead of a child step per node of the subtree. The walk meets
// the T nodes in document order, where the pair meets them parent by
// parent, so when a predicate raises an error the pair runs again to
// raise the error it would have raised.
func evalDescendantStep(dos, child Step, input xdm.Sequence, ctx evalCtx) (xdm.Sequence, error) {
	desc := child
	desc.Axis = AxisDescendant
	out, err := evalStep(desc, input, ctx)
	if err == nil {
		return out, nil
	}
	if _, ok := guard.AsViolation(err); ok {
		return nil, err
	}
	mid, pairErr := evalStep(dos, input, ctx)
	if pairErr == nil {
		_, pairErr = evalStep(child, mid, ctx)
	}
	if pairErr != nil {
		return nil, pairErr
	}
	return nil, err
}

// evalStep applies one step to every item of the input sequence. The
// output is in document order without duplicates, and it belongs to the
// caller, which may filter it in place (PathSeed.filter does): it is
// never the input or a variable's sequence.
func evalStep(step Step, input xdm.Sequence, ctx evalCtx) (xdm.Sequence, error) {
	var out xdm.Sequence

	if step.Axis == AxisNone {
		// Filter step: evaluate the expression per context item.
		size := len(input)
		for i, it := range input {
			c := ctx
			c.item = it
			c.pos = i + 1
			c.size = size
			seq, err := eval(step.Filter, c)
			if err != nil {
				return nil, err
			}
			seq, err = applyPredicates(step.Predicates, seq, ctx, false)
			if err != nil {
				return nil, err
			}
			out = append(out, seq...)
		}
		return xdm.SortDocumentOrder(out), nil
	}

	// Axis step: every input item must be a node. Matches append straight
	// into out, and the predicates filter this context node's tail of out
	// in place, so positions and last() count per context node.
	for _, it := range input {
		// One step per context item: a `//`-heavy path over a large
		// collection spends most of its time here, between eval calls.
		if err := ctx.g.Step(); err != nil {
			return nil, err
		}
		n, ok := it.(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("axis step %s::%s applied to an atomic value", step.Axis, step.Test)
		}
		start := len(out)
		out = appendAxis(out, n, step.Axis, &step.Test)
		if len(step.Predicates) > 0 {
			kept, err := applyPredicates(step.Predicates, out[start:], ctx, true)
			if err != nil {
				return nil, err
			}
			out = out[:start+len(kept)]
		}
	}
	return xdm.SortDocumentOrder(out), nil
}

// appendAxis appends to out the nodes reachable from n over the axis that
// satisfy the test, in document order.
func appendAxis(out xdm.Sequence, n *xdm.Node, axis Axis, test *NodeTest) xdm.Sequence {
	switch axis {
	case AxisChild:
		for _, c := range n.Children {
			if test.Matches(c, false) {
				out = append(out, c)
			}
		}
	case AxisAttribute:
		for _, a := range n.Attrs {
			if test.Matches(a, true) {
				out = append(out, a)
			}
		}
	case AxisSelf:
		if test.Matches(n, false) {
			out = append(out, n)
		}
	case AxisDescendant:
		for _, c := range n.Children {
			out = appendDescendants(out, c, test)
		}
	case AxisDescendantOrSelf:
		out = appendDescendants(out, n, test)
	case AxisParent:
		if n.Parent != nil && test.Matches(n.Parent, false) {
			out = append(out, n.Parent)
		}
	}
	return out
}

// appendDescendants appends n and its descendants that satisfy the test,
// in document order.
func appendDescendants(out xdm.Sequence, n *xdm.Node, test *NodeTest) xdm.Sequence {
	if test.Matches(n, false) {
		out = append(out, n)
	}
	for _, c := range n.Children {
		out = appendDescendants(out, c, test)
	}
	return out
}

// applyPredicates filters seq through each predicate in order. A numeric
// predicate selects by position; anything else filters by effective
// boolean value with the context item/position/size set. A seq the caller
// owns is filtered in place; otherwise the first predicate copies the
// items it keeps.
func applyPredicates(preds []Expr, seq xdm.Sequence, ctx evalCtx, owned bool) (xdm.Sequence, error) {
	for _, pred := range preds {
		var kept xdm.Sequence
		if owned {
			kept = seq[:0]
		}
		size := len(seq)
		for i, it := range seq {
			c := ctx
			c.item = it
			c.pos = i + 1
			c.size = size
			r, err := eval(pred, c)
			if err != nil {
				return nil, err
			}
			keep, err := predicateTruth(r, i+1)
			if err != nil {
				return nil, err
			}
			if keep {
				kept = append(kept, it)
			}
		}
		seq, owned = kept, true
	}
	return seq, nil
}

// predicateTruth decides whether a predicate result keeps the item at
// position pos: numeric singleton → position equality, else EBV.
func predicateTruth(r xdm.Sequence, pos int) (bool, error) {
	if len(r) == 1 {
		if v, ok := r[0].(xdm.Value); ok && v.T.IsNumeric() {
			f := v.Number()
			return f == float64(pos) && !math.IsNaN(f), nil
		}
	}
	return xdm.EffectiveBooleanValue(r)
}
