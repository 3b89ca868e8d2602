package xquery

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
)

// CollectionResolver supplies the sequences behind db2-fn:xmlcolumn.
// Implementations return document nodes of the named XML column in
// insertion order.
type CollectionResolver interface {
	Collection(name string) ([]*xdm.Node, error)
}

// StaticVars binds external variables (SQL/XML "passing" clauses).
type StaticVars map[string]xdm.Sequence

// evalCtx is the dynamic evaluation context.
type evalCtx struct {
	item xdm.Item // context item; nil if absent
	pos  int      // fn:position()
	size int      // fn:last()
	env  *env
	coll CollectionResolver
	g    *guard.Guard // nil = unguarded
	// seeds holds index-derived hit sets for seeded operand paths
	// (see Seeds); nil for unseeded evaluations.
	seeds Seeds
}

type env struct {
	name string
	val  xdm.Sequence
	next *env
}

func (e *env) lookup(name string) (xdm.Sequence, bool) {
	//xqvet:unbounded-ok binding-environment chain, bounded by query nesting depth, not data size
	for ; e != nil; e = e.next {
		if e.name == name {
			return e.val, true
		}
	}
	return nil, false
}

func (c evalCtx) bind(name string, val xdm.Sequence) evalCtx {
	c.env = &env{name: name, val: val, next: c.env}
	return c
}

// Eval evaluates a parsed module with external variables and a collection
// resolver (nil if the query does not use db2-fn:xmlcolumn).
func Eval(m *Module, vars StaticVars, coll CollectionResolver) (xdm.Sequence, error) {
	return EvalGuarded(m, vars, coll, nil)
}

// EvalGuarded is Eval with a per-query guard checked inside the evaluator
// loops; a nil guard is unlimited.
func EvalGuarded(m *Module, vars StaticVars, coll CollectionResolver, g *guard.Guard) (xdm.Sequence, error) {
	ctx := evalCtx{coll: coll, g: g}
	for name, val := range vars {
		ctx = ctx.bind(name, val)
	}
	return eval(m.Body, ctx)
}

// EvalWithContext evaluates with an initial context item, as SQL/XML's
// XMLTable column expressions do.
func EvalWithContext(m *Module, item xdm.Item, vars StaticVars, coll CollectionResolver) (xdm.Sequence, error) {
	return EvalWithContextGuarded(m, item, vars, coll, nil)
}

// EvalWithContextGuarded is EvalWithContext with a per-query guard.
func EvalWithContextGuarded(m *Module, item xdm.Item, vars StaticVars, coll CollectionResolver, g *guard.Guard) (xdm.Sequence, error) {
	ctx := evalCtx{coll: coll, item: item, pos: 1, size: 1, g: g}
	for name, val := range vars {
		ctx = ctx.bind(name, val)
	}
	return eval(m.Body, ctx)
}

func eval(e Expr, ctx evalCtx) (xdm.Sequence, error) {
	// Every expression evaluation is one guard step; this is the check
	// that bounds recursive FLWOR/path/predicate work.
	if err := ctx.g.Step(); err != nil {
		return nil, err
	}
	switch x := e.(type) {
	case *Literal:
		return xdm.Sequence{x.Value}, nil
	case *VarRef:
		v, ok := ctx.env.lookup(x.Name)
		if !ok {
			return nil, fmt.Errorf("undefined variable $%s", x.Name)
		}
		return v, nil
	case *ContextItem:
		if ctx.item == nil {
			return nil, fmt.Errorf("context item is undefined")
		}
		return xdm.Sequence{ctx.item}, nil
	case *SequenceExpr:
		var out xdm.Sequence
		for _, it := range x.Items {
			s, err := eval(it, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case *IfExpr:
		cond, err := eval(x.Cond, ctx)
		if err != nil {
			return nil, err
		}
		b, err := xdm.EffectiveBooleanValue(cond)
		if err != nil {
			return nil, err
		}
		if b {
			return eval(x.Then, ctx)
		}
		return eval(x.Else, ctx)
	case *FLWOR:
		return evalFLWOR(x, ctx)
	case *Quantified:
		return evalQuantified(x, ctx)
	case *BinaryExpr:
		return evalBinary(x, ctx)
	case *Comparison:
		return evalComparison(x, ctx)
	case *UnaryExpr:
		return evalUnary(x, ctx)
	case *CastExpr:
		return evalCast(x, ctx)
	case *TreatExpr:
		return evalTreat(x, ctx)
	case *PathExpr:
		return evalPath(x, ctx)
	case *FunctionCall:
		return evalFunction(x, ctx)
	case *ElementConstructor:
		n, err := constructElement(x, ctx)
		if err != nil {
			return nil, err
		}
		return xdm.Sequence{n}, nil
	case *CommentConstructor:
		n := &xdm.Node{Kind: xdm.CommentNode, Text: x.Text}
		n.Renumber()
		return xdm.Sequence{n}, nil
	case *ComputedConstructor:
		return evalComputed(x, ctx)
	case *CastableExpr:
		seq, err := eval(x.Operand, ctx)
		if err != nil {
			return nil, err
		}
		var buf [1]xdm.Value
		a, err := xdm.AppendAtoms(buf[:0], seq)
		if err != nil {
			return nil, err
		}
		if len(a) != 1 {
			return xdm.Sequence{xdm.NewBoolean(false)}, nil
		}
		_, castErr := a[0].Cast(x.Target)
		return xdm.Sequence{xdm.NewBoolean(castErr == nil)}, nil
	case *InstanceOfExpr:
		return evalInstanceOf(x, ctx)
	case *TextLiteral:
		n := &xdm.Node{Kind: xdm.TextNode, Text: x.Text}
		n.Renumber()
		return xdm.Sequence{n}, nil
	case *precomputed:
		return x.seq, nil
	}
	return nil, fmt.Errorf("unevaluable expression %T", e)
}

// evalFLWOR evaluates a FLWOR expression. Tuples stream through the
// clauses; order-by materializes them.
func evalFLWOR(f *FLWOR, ctx evalCtx) (xdm.Sequence, error) {
	var out xdm.Sequence
	type tuple struct {
		ctx  evalCtx
		keys []xdm.Sequence
	}
	var tuples []tuple

	emit := func(c evalCtx) error {
		if f.Where != nil {
			w, err := eval(f.Where, c)
			if err != nil {
				return err
			}
			b, err := xdm.EffectiveBooleanValue(w)
			if err != nil {
				return err
			}
			if !b {
				return nil
			}
		}
		if len(f.OrderBy) > 0 {
			t := tuple{ctx: c}
			for _, spec := range f.OrderBy {
				k, err := eval(spec.Key, c)
				if err != nil {
					return err
				}
				ka, err := xdm.Atomize(k)
				if err != nil {
					return err
				}
				if len(ka) > 1 {
					return fmt.Errorf("order by key is not a singleton")
				}
				t.keys = append(t.keys, ka)
			}
			tuples = append(tuples, t)
			return nil
		}
		r, err := eval(f.Return, c)
		if err != nil {
			return err
		}
		out = append(out, r...)
		return ctx.g.Items(len(out))
	}

	var loop func(i int, c evalCtx) error
	loop = func(i int, c evalCtx) error {
		if i == len(f.Clauses) {
			return emit(c)
		}
		cl := f.Clauses[i]
		seq, err := eval(cl.Expr, c)
		if err != nil {
			return err
		}
		if cl.Kind == LetClause {
			// A let-binding preserves the empty sequence (§3.4): the
			// tuple survives even when seq is empty.
			return loop(i+1, c.bind(cl.Var, seq))
		}
		// A for-binding produces no iteration for an empty sequence.
		for idx, it := range seq {
			c2 := c.bind(cl.Var, xdm.Sequence{it})
			if cl.PosVar != "" {
				c2 = c2.bind(cl.PosVar, xdm.Sequence{xdm.NewInteger(int64(idx + 1))})
			}
			if err := loop(i+1, c2); err != nil {
				return err
			}
		}
		return nil
	}
	if err := loop(0, ctx); err != nil {
		return nil, err
	}

	if len(f.OrderBy) > 0 {
		var sortErr error
		sort.SliceStable(tuples, func(i, j int) bool {
			for k, spec := range f.OrderBy {
				c, err := orderCompare(tuples[i].keys[k], tuples[j].keys[k], spec)
				if err != nil && sortErr == nil {
					sortErr = err
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		if sortErr != nil {
			return nil, sortErr
		}
		for _, t := range tuples {
			r, err := eval(f.Return, t.ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, r...)
		}
	}
	return out, nil
}

// orderCompare compares two order-by keys (each empty or singleton).
func orderCompare(a, b xdm.Sequence, spec OrderSpec) (int, error) {
	cmp := 0
	switch {
	case len(a) == 0 && len(b) == 0:
		return 0, nil
	case len(a) == 0:
		cmp = 1
		if spec.EmptyLeast {
			cmp = -1
		}
	case len(b) == 0:
		cmp = -1
		if spec.EmptyLeast {
			cmp = 1
		}
	default:
		av, bv := a[0].(xdm.Value), b[0].(xdm.Value)
		lt, err := xdm.ValueCompare(xdm.OpLt, av, bv)
		if err != nil {
			// Untyped against untyped compares as string already;
			// mixed types in order by are a dynamic error.
			return 0, fmt.Errorf("order by: %w", err)
		}
		if lt {
			cmp = -1
		} else {
			gt, _ := xdm.ValueCompare(xdm.OpGt, av, bv)
			if gt {
				cmp = 1
			}
		}
	}
	if spec.Descending {
		cmp = -cmp
	}
	return cmp, nil
}

func evalQuantified(q *Quantified, ctx evalCtx) (xdm.Sequence, error) {
	var loop func(i int, c evalCtx) (bool, error)
	loop = func(i int, c evalCtx) (bool, error) {
		if i == len(q.Bindings) {
			s, err := eval(q.Satisfies, c)
			if err != nil {
				return false, err
			}
			return xdm.EffectiveBooleanValue(s)
		}
		seq, err := eval(q.Bindings[i].Expr, c)
		if err != nil {
			return false, err
		}
		for _, it := range seq {
			ok, err := loop(i+1, c.bind(q.Bindings[i].Var, xdm.Sequence{it}))
			if err != nil {
				return false, err
			}
			if ok != q.Every {
				return ok, nil // short-circuit: some→true, every→false
			}
		}
		return q.Every, nil
	}
	ok, err := loop(0, ctx)
	if err != nil {
		return nil, err
	}
	return xdm.Sequence{xdm.NewBoolean(ok)}, nil
}

func evalComparison(c *Comparison, ctx evalCtx) (xdm.Sequence, error) {
	left, err := eval(c.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := eval(c.Right, ctx)
	if err != nil {
		return nil, err
	}
	switch c.Kind {
	case GeneralComp:
		ok, err := xdm.GeneralCompare(c.Op, left, right)
		if err != nil {
			return nil, err
		}
		return xdm.Sequence{xdm.NewBoolean(ok)}, nil
	case ValueComp:
		var lbuf, rbuf [1]xdm.Value
		la, err := xdm.AppendAtoms(lbuf[:0], left)
		if err != nil {
			return nil, err
		}
		ra, err := xdm.AppendAtoms(rbuf[:0], right)
		if err != nil {
			return nil, err
		}
		if len(la) == 0 || len(ra) == 0 {
			return nil, nil // empty operand yields the empty sequence
		}
		if len(la) > 1 || len(ra) > 1 {
			// §3.10: value comparisons require singletons; a lineitem
			// with two prices makes `price gt 100` fail at runtime.
			return nil, fmt.Errorf("value comparison %s requires singleton operands (got %d and %d items)", c.Op, len(la), len(ra))
		}
		ok, err := xdm.ValueCompare(c.Op, la[0], ra[0])
		if err != nil {
			return nil, err
		}
		return xdm.Sequence{xdm.NewBoolean(ok)}, nil
	default: // node comparison
		ln, err := singletonNode(left, c.NodeOp)
		if err != nil || ln == nil {
			return nil, err
		}
		rn, err := singletonNode(right, c.NodeOp)
		if err != nil || rn == nil {
			return nil, err
		}
		var ok bool
		switch c.NodeOp {
		case "is":
			ok = ln.Is(rn)
		case "<<":
			ok = ln.Before(rn)
		case ">>":
			ok = rn.Before(ln)
		}
		return xdm.Sequence{xdm.NewBoolean(ok)}, nil
	}
}

func singletonNode(seq xdm.Sequence, op string) (*xdm.Node, error) {
	if len(seq) == 0 {
		return nil, nil
	}
	if len(seq) > 1 {
		return nil, fmt.Errorf("operand of %s is not a singleton", op)
	}
	n, ok := seq[0].(*xdm.Node)
	if !ok {
		return nil, fmt.Errorf("operand of %s is not a node", op)
	}
	return n, nil
}

func evalBinary(b *BinaryExpr, ctx evalCtx) (xdm.Sequence, error) {
	switch b.Op {
	case "and", "or":
		l, err := eval(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		lb, err := xdm.EffectiveBooleanValue(l)
		if err != nil {
			return nil, err
		}
		if b.Op == "and" && !lb {
			return xdm.Sequence{xdm.NewBoolean(false)}, nil
		}
		if b.Op == "or" && lb {
			return xdm.Sequence{xdm.NewBoolean(true)}, nil
		}
		r, err := eval(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		rb, err := xdm.EffectiveBooleanValue(r)
		if err != nil {
			return nil, err
		}
		return xdm.Sequence{xdm.NewBoolean(rb)}, nil
	case "union", "intersect", "except":
		return evalSetOp(b, ctx)
	case "to":
		l, err := atomizeSingletonNumber(b.Left, ctx)
		if err != nil {
			return nil, err
		}
		r, err := atomizeSingletonNumber(b.Right, ctx)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil
		}
		var out xdm.Sequence
		for i := int64(*l); i <= int64(*r); i++ {
			// A range expression can materialize an enormous sequence on
			// its own (`1 to 10000000000`); count every item as a step.
			if err := ctx.g.Step(); err != nil {
				return nil, err
			}
			if err := ctx.g.Items(len(out)); err != nil {
				return nil, err
			}
			out = append(out, xdm.NewInteger(i))
		}
		return out, nil
	default:
		return evalArith(b, ctx)
	}
}

func evalSetOp(b *BinaryExpr, ctx evalCtx) (xdm.Sequence, error) {
	lnodes, err := evalNodeSeq(b.Left, ctx, b.Op)
	if err != nil {
		return nil, err
	}
	rnodes, err := evalNodeSeq(b.Right, ctx, b.Op)
	if err != nil {
		return nil, err
	}
	inRight := func(it xdm.Item) bool {
		for _, m := range rnodes {
			if it.(*xdm.Node).Is(m.(*xdm.Node)) {
				return true
			}
		}
		return false
	}
	// merged is always a fresh sequence: SortDocumentOrder sorts it in
	// place, and the operands may be variables' sequences.
	var merged xdm.Sequence
	switch b.Op {
	case "union":
		merged = append(append(make(xdm.Sequence, 0, len(lnodes)+len(rnodes)), lnodes...), rnodes...)
	case "intersect":
		for _, n := range lnodes {
			if inRight(n) {
				merged = append(merged, n)
			}
		}
	case "except":
		// §3.6 issue 5: $view/@price except base/@price keeps all the
		// constructed nodes because identities differ.
		for _, n := range lnodes {
			if !inRight(n) {
				merged = append(merged, n)
			}
		}
	}
	return xdm.SortDocumentOrder(merged), nil
}

// evalNodeSeq evaluates a set operator's operand, which must hold only
// nodes.
func evalNodeSeq(e Expr, ctx evalCtx, op string) (xdm.Sequence, error) {
	seq, err := eval(e, ctx)
	if err != nil {
		return nil, err
	}
	for _, it := range seq {
		if _, ok := it.(*xdm.Node); !ok {
			return nil, fmt.Errorf("operand of %s contains an atomic value", op)
		}
	}
	return seq, nil
}

func atomizeSingletonNumber(e Expr, ctx evalCtx) (*float64, error) {
	seq, err := eval(e, ctx)
	if err != nil {
		return nil, err
	}
	var buf [1]xdm.Value
	a, err := xdm.AppendAtoms(buf[:0], seq)
	if err != nil {
		return nil, err
	}
	if len(a) == 0 {
		return nil, nil
	}
	if len(a) > 1 {
		return nil, fmt.Errorf("expected singleton numeric operand")
	}
	v := a[0]
	if v.T == xdm.UntypedAtomic {
		c, err := v.Cast(xdm.Double)
		if err != nil {
			return nil, err
		}
		v = c
	}
	if !v.T.IsNumeric() {
		return nil, fmt.Errorf("operand of numeric operation is xs:%s", v.T)
	}
	f := v.Number()
	return &f, nil
}

func evalArith(b *BinaryExpr, ctx evalCtx) (xdm.Sequence, error) {
	l, err := atomizeSingletonNumber(b.Left, ctx)
	if err != nil {
		return nil, err
	}
	r, err := atomizeSingletonNumber(b.Right, ctx)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil {
		return nil, nil
	}
	var f float64
	switch b.Op {
	case "+":
		f = *l + *r
	case "-":
		f = *l - *r
	case "*":
		f = *l * *r
	case "div":
		f = *l / *r
	case "idiv":
		if *r == 0 {
			return nil, fmt.Errorf("integer division by zero")
		}
		return xdm.Sequence{xdm.NewInteger(int64(*l / *r))}, nil
	case "mod":
		f = math.Mod(*l, *r)
	default:
		return nil, fmt.Errorf("unknown arithmetic operator %q", b.Op)
	}
	return xdm.Sequence{xdm.NewDouble(f)}, nil
}

func evalUnary(u *UnaryExpr, ctx evalCtx) (xdm.Sequence, error) {
	v, err := atomizeSingletonNumber(u.Operand, ctx)
	if err != nil || v == nil {
		return nil, err
	}
	f := *v
	if u.Neg {
		f = -f
	}
	return xdm.Sequence{xdm.NewDouble(f)}, nil
}

func evalCast(c *CastExpr, ctx evalCtx) (xdm.Sequence, error) {
	seq, err := eval(c.Operand, ctx)
	if err != nil {
		return nil, err
	}
	var buf [1]xdm.Value
	a, err := xdm.AppendAtoms(buf[:0], seq)
	if err != nil {
		return nil, err
	}
	if len(a) == 0 {
		return nil, nil
	}
	if len(a) > 1 {
		return nil, fmt.Errorf("cast to xs:%s requires a singleton, got %d items", c.Target, len(a))
	}
	v, err := a[0].Cast(c.Target)
	if err != nil {
		return nil, err
	}
	return xdm.Sequence{v}, nil
}

func evalTreat(t *TreatExpr, ctx evalCtx) (xdm.Sequence, error) {
	seq, err := eval(t.Operand, ctx)
	if err != nil {
		return nil, err
	}
	for _, it := range seq {
		n, ok := it.(*xdm.Node)
		if !ok || !t.KindTest.Matches(n, false) {
			return nil, fmt.Errorf("treat as %s failed: item is %s", t.KindTest, itemKind(it))
		}
	}
	return seq, nil
}

func itemKind(it xdm.Item) string {
	switch x := it.(type) {
	case *xdm.Node:
		return x.Kind.String() + " node"
	case xdm.Value:
		return "xs:" + x.T.String()
	}
	return "unknown"
}

// constructElement builds a new element per the XQuery construction rules:
// attribute parts concatenate (atomics space-joined), content copies nodes
// with fresh identity and erased annotations, adjacent atomics join with
// spaces into one text node, and duplicate attribute names raise an error
// (§3.6 issue 4).
func constructElement(ec *ElementConstructor, ctx evalCtx) (*xdm.Node, error) {
	el := &xdm.Node{Kind: xdm.ElementNode, Name: ec.Name}
	seen := map[xdm.QName]bool{}
	addAttr := func(a *xdm.Node) error {
		if seen[a.Name] {
			return fmt.Errorf("duplicate attribute %s in constructor of <%s>", a.Name, ec.Name.Local)
		}
		seen[a.Name] = true
		el.AppendAttr(a)
		return nil
	}
	for _, ac := range ec.Attrs {
		var b strings.Builder
		for _, part := range ac.Parts {
			switch pt := part.(type) {
			case *TextLiteral:
				b.WriteString(pt.Text)
			default:
				seq, err := eval(part, ctx)
				if err != nil {
					return nil, err
				}
				a, err := xdm.Atomize(seq)
				if err != nil {
					return nil, err
				}
				for i, v := range a {
					if i > 0 {
						b.WriteByte(' ')
					}
					b.WriteString(v.(xdm.Value).Lexical())
				}
			}
		}
		if err := addAttr(&xdm.Node{Kind: xdm.AttributeNode, Name: ac.Name, Text: b.String()}); err != nil {
			return nil, err
		}
	}

	appendText := func(s string) {
		// Zero-length text nodes are deleted by the construction rules.
		if s == "" {
			return
		}
		if n := len(el.Children); n > 0 && el.Children[n-1].Kind == xdm.TextNode {
			el.Children[n-1].Text += s
			return
		}
		el.AppendChild(&xdm.Node{Kind: xdm.TextNode, Text: s})
	}

	for _, part := range ec.Content {
		if lit, ok := part.(*TextLiteral); ok {
			appendText(lit.Text)
			continue
		}
		seq, err := eval(part, ctx)
		if err != nil {
			return nil, err
		}
		pendingAtomic := false
		for _, it := range seq {
			switch x := it.(type) {
			case xdm.Value:
				// Adjacent atomics from one enclosed expression join
				// with single spaces (§3.6 issue 3: multiple ids
				// concatenate to "p1 p2").
				if pendingAtomic {
					appendText(" ")
				}
				appendText(x.Lexical())
				pendingAtomic = true
			case *xdm.Node:
				pendingAtomic = false
				switch x.Kind {
				case xdm.AttributeNode:
					if len(el.Children) > 0 {
						return nil, fmt.Errorf("attribute %s constructed after content", x.Name)
					}
					cp := x.Copy()
					if err := addAttr(cp); err != nil {
						return nil, err
					}
				case xdm.DocumentNode:
					for _, c := range x.Children {
						el.AppendChild(c.Copy())
					}
				case xdm.TextNode:
					appendText(x.Text)
				default:
					el.AppendChild(x.Copy())
				}
			}
		}
	}
	el.Renumber()
	return el, nil
}
