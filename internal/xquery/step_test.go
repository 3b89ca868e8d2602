package xquery

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/xqdb/xqdb/internal/guard"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlparse"
)

// The reference evaluator of the step differential evaluates paths the
// way the evaluator did before its steps became order-aware: each context
// node's matches are collected by refAxisNodes and copied into the step
// output, every step's output is sorted into document order on a copy,
// and `//` always runs as two steps. Paths, set operators, comparisons,
// and/or and function calls evaluate here, so the paths nested in them do
// too; every other expression delegates to eval.
func refEval(e Expr, ctx evalCtx) (xdm.Sequence, error) {
	switch x := e.(type) {
	case *PathExpr:
		return refPath(x, ctx)
	case *SequenceExpr:
		var out xdm.Sequence
		for _, it := range x.Items {
			s, err := refEval(it, ctx)
			if err != nil {
				return nil, err
			}
			out = append(out, s...)
		}
		return out, nil
	case *BinaryExpr:
		switch x.Op {
		case "and", "or":
			return refLogic(x, ctx)
		case "union", "intersect", "except":
			return refSetOp(x, ctx)
		}
	case *Comparison:
		if x.Kind != NodeComp {
			return refCompare(x, ctx)
		}
	case *FunctionCall:
		b, ok := builtins[x.Space+":"+x.Local]
		if !ok || len(x.Args) < b.minArgs || len(x.Args) > b.maxArgs {
			break // eval raises the error
		}
		args := make([]xdm.Sequence, len(x.Args))
		for i, a := range x.Args {
			s, err := refEval(a, ctx)
			if err != nil {
				return nil, err
			}
			args[i] = s
		}
		return b.fn(ctx, args)
	}
	return eval(e, ctx)
}

func refPath(p *PathExpr, ctx evalCtx) (xdm.Sequence, error) {
	var input xdm.Sequence
	steps := p.Steps
	switch {
	case !p.Rooted && p.Start == nil && len(steps) > 0 && steps[0].Axis == AxisNone:
		seq, err := refEval(steps[0].Filter, ctx)
		if err != nil {
			return nil, err
		}
		if input, err = refPredicates(steps[0].Predicates, seq, ctx); err != nil {
			return nil, err
		}
		steps = steps[1:]
	case p.Rooted:
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
		s, err := refEval(p.Start, ctx)
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
	var seed *PathSeed
	if len(ctx.seeds) > 0 {
		seed = ctx.seeds[p]
	}
	for si, step := range steps {
		out, err := refStep(step, input, ctx)
		if err != nil {
			return nil, err
		}
		if seed != nil && step.Axis != AxisNone {
			out = seed.filter(out, si == len(steps)-1)
		}
		input = out
	}
	return input, nil
}

func refStep(step Step, input xdm.Sequence, ctx evalCtx) (xdm.Sequence, error) {
	var out xdm.Sequence
	if step.Axis == AxisNone {
		size := len(input)
		for i, it := range input {
			c := ctx
			c.item, c.pos, c.size = it, i+1, size
			seq, err := refEval(step.Filter, c)
			if err != nil {
				return nil, err
			}
			if seq, err = refPredicates(step.Predicates, seq, ctx); err != nil {
				return nil, err
			}
			out = append(out, seq...)
		}
		return refSort(out), nil
	}
	for _, it := range input {
		n, ok := it.(*xdm.Node)
		if !ok {
			return nil, fmt.Errorf("axis step %s::%s applied to an atomic value", step.Axis, step.Test)
		}
		matches := refAxisNodes(n, step.Axis, step.Test)
		seq := make(xdm.Sequence, len(matches))
		for i, m := range matches {
			seq[i] = m
		}
		seq, err := refPredicates(step.Predicates, seq, ctx)
		if err != nil {
			return nil, err
		}
		out = append(out, seq...)
	}
	return refSort(out), nil
}

// refAxisNodes returns the nodes reachable from n over the axis that
// satisfy the test, in document order.
func refAxisNodes(n *xdm.Node, axis Axis, test NodeTest) []*xdm.Node {
	var out []*xdm.Node
	attrAxis := axis == AxisAttribute
	add := func(m *xdm.Node) {
		if test.Matches(m, attrAxis) {
			out = append(out, m)
		}
	}
	switch axis {
	case AxisChild:
		for _, c := range n.Children {
			add(c)
		}
	case AxisAttribute:
		for _, a := range n.Attrs {
			add(a)
		}
	case AxisSelf:
		add(n)
	case AxisDescendant:
		for _, c := range n.Children {
			c.Descend(add)
		}
	case AxisDescendantOrSelf:
		n.Descend(add)
	case AxisParent:
		if n.Parent != nil {
			add(n.Parent)
		}
	}
	return out
}

func refPredicates(preds []Expr, seq xdm.Sequence, ctx evalCtx) (xdm.Sequence, error) {
	for _, pred := range preds {
		var kept xdm.Sequence
		size := len(seq)
		for i, it := range seq {
			c := ctx
			c.item, c.pos, c.size = it, i+1, size
			r, err := refEval(pred, c)
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
		seq = kept
	}
	return seq, nil
}

// refSort sorts a copy of a node-only sequence into document order
// without duplicates; a sequence holding an atomic value is returned as it
// is.
func refSort(seq xdm.Sequence) xdm.Sequence {
	nodes := make([]*xdm.Node, 0, len(seq))
	for _, it := range seq {
		n, ok := it.(*xdm.Node)
		if !ok {
			return seq
		}
		nodes = append(nodes, n)
	}
	sort.SliceStable(nodes, func(i, j int) bool { return nodes[i].Before(nodes[j]) })
	var out xdm.Sequence
	for i, n := range nodes {
		if i == 0 || !n.Is(nodes[i-1]) {
			out = append(out, n)
		}
	}
	return out
}

func refSetOp(b *BinaryExpr, ctx evalCtx) (xdm.Sequence, error) {
	operand := func(e Expr) ([]*xdm.Node, error) {
		seq, err := refEval(e, ctx)
		if err != nil {
			return nil, err
		}
		var nodes []*xdm.Node
		for _, it := range seq {
			n, ok := it.(*xdm.Node)
			if !ok {
				return nil, fmt.Errorf("operand of %s contains an atomic value", b.Op)
			}
			nodes = append(nodes, n)
		}
		return nodes, nil
	}
	l, err := operand(b.Left)
	if err != nil {
		return nil, err
	}
	r, err := operand(b.Right)
	if err != nil {
		return nil, err
	}
	inRight := func(n *xdm.Node) bool {
		for _, m := range r {
			if n.Is(m) {
				return true
			}
		}
		return false
	}
	var merged xdm.Sequence
	for _, n := range l {
		if b.Op == "union" || inRight(n) == (b.Op == "intersect") {
			merged = append(merged, n)
		}
	}
	if b.Op == "union" {
		for _, n := range r {
			merged = append(merged, n)
		}
	}
	return refSort(merged), nil
}

func refLogic(b *BinaryExpr, ctx evalCtx) (xdm.Sequence, error) {
	l, err := refEval(b.Left, ctx)
	if err != nil {
		return nil, err
	}
	lb, err := xdm.EffectiveBooleanValue(l)
	if err != nil {
		return nil, err
	}
	if (b.Op == "and") != lb {
		return xdm.Sequence{xdm.NewBoolean(lb)}, nil
	}
	r, err := refEval(b.Right, ctx)
	if err != nil {
		return nil, err
	}
	rb, err := xdm.EffectiveBooleanValue(r)
	if err != nil {
		return nil, err
	}
	return xdm.Sequence{xdm.NewBoolean(rb)}, nil
}

// refCompare evaluates general and value comparisons over the boxed
// atomizer.
func refCompare(c *Comparison, ctx evalCtx) (xdm.Sequence, error) {
	left, err := refEval(c.Left, ctx)
	if err != nil {
		return nil, err
	}
	right, err := refEval(c.Right, ctx)
	if err != nil {
		return nil, err
	}
	if c.Kind == GeneralComp {
		ok, err := xdm.GeneralCompare(c.Op, left, right)
		if err != nil {
			return nil, err
		}
		return xdm.Sequence{xdm.NewBoolean(ok)}, nil
	}
	la, err := xdm.Atomize(left)
	if err != nil {
		return nil, err
	}
	ra, err := xdm.Atomize(right)
	if err != nil {
		return nil, err
	}
	if len(la) == 0 || len(ra) == 0 {
		return nil, nil
	}
	if len(la) > 1 || len(ra) > 1 {
		return nil, fmt.Errorf("value comparison %s requires singleton operands (got %d and %d items)", c.Op, len(la), len(ra))
	}
	ok, err := xdm.ValueCompare(c.Op, la[0].(xdm.Value), ra[0].(xdm.Value))
	if err != nil {
		return nil, err
	}
	return xdm.Sequence{xdm.NewBoolean(ok)}, nil
}

// stepTree is the fixed tree of the differential: x elements sit under
// six different parents and inside each other, a elements nest, and the
// first a in document order that has several b children is deeper than
// the second, so `//a[b eq "1"]` raises a different error depending on
// whether its a elements are visited in document order or parent by
// parent.
const stepTree = `<r><c><c><a><b/><b/><b/></a></c></c>` +
	`<a a="1"><b>1</b><a a="2"><b>2</b><x a="5">5</x><b>3</b></a><x a="2"/></a>` +
	`<c><x a="7"><x a="4">4</x></x><b><x>9</x></b></c>` +
	`<a><b/><b/></a>` +
	`<x a="3"><a><b>1</b></a></x>tail</r>`

// stepShapes are the queries of the differential. They run with the
// document as context item, $d bound to it and $x bound to its a
// elements in reverse document order.
var stepShapes = []string{
	// descendant steps over nested elements
	`$d//a//b`, `$d//a/b`, `//a//b`, `//a/b`, `$d//a//x`, `//c//c/a`,
	// parent, filter steps and out-of-order inputs
	`$d//b/..`, `$d//x/../x`, `$d//a/(c, b)/x`, `$d//a/(x, b)`, `$x/(b|a)`, `$x/b`, `$x//x`, `$x/..`,
	// set operators over overlapping operands, stored and constructed
	`$d//a | $d//b/..`, `$d//x intersect $d//a//x`, `$d//x except $d//a/x`,
	`($x, $d//a) except $d//a/a`, `($d//a | <a><b/></a>)/b`,
	`(<x a="9"/>, $d//x) | $d//c//x`, `$d//x intersect (<x/>, $d//x)`,
	// positional predicates after // do not fuse
	`//x[1]`, `//x[last()]`, `//x[position() = 2]`, `$d//b[1]`, `//x[@a > 1][1]`,
	`//x[position() = last()]`, `//x[@a > 1 and position() = 1]`, `//x[count(x) = last()]`,
	// other tests, and predicates that are not comparisons
	`//@a`, `//text()`, `//node()`, `//x[@a]`, `//a[b and x]`, `//x[.//x]`, `//a[b][x]`,
	// fused comparisons
	`//x[@a > 3]`, `//x[@a = 2 or . = "5"]`, `$d//a[.//x/@a > 4]/b`, `//x[@a eq "2"]`,
	`//a[count(x) = 1]`, `//b[. = ""]`, `//x[@a >= 2 and @a < 6]/@a`, `$d//a//x[@a > 1]`,
	`count(//x[@a != 0])`, `//x[x/@a = 4]`, `//a[b = "1"]//b`,
	// errors: value comparisons over several nodes, atomic step inputs
	`//a[b eq "1"]`, `//x[@a eq 2]`, `($d//a, 1)/b`, `(1, $d//a)//x`, `$d//a/(1, b)/x`,
	`//x[@a > 1]/(1, .)//x`, `$d//a/(b, 1)`,
	// paths in constructed trees
	`<a><b><x/></b><x/></a>//x`, `<a><b><x/></b><x/></a>//x[. = ""]`, `(<a><x/></a>, $d//c)//x`,
}

// genTree writes a pseudo-random element tree driven by src. Names come
// from a three-letter alphabet, so same-named elements nest and sit under
// different parents; about a third of the elements carry @a.
func genTree(b *strings.Builder, src func() int, depth int) {
	name := [...]string{"a", "b", "x"}[src()%3]
	b.WriteString("<" + name)
	if v := src() % 3; v > 0 {
		fmt.Fprintf(b, ` a="%d"`, src()%6)
	}
	b.WriteByte('>')
	if depth < 5 {
		for k := src() % 4; k > 0; k-- {
			if src()%4 == 0 {
				fmt.Fprintf(b, "%d", src()%4)
			} else {
				genTree(b, src, depth+1)
			}
		}
	}
	b.WriteString("</" + name + ">")
}

// byteSource feeds genTree from fuzz input, then zeros.
func byteSource(data []byte) func() int {
	return func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
}

// stepCtx is the context the differential evaluates in.
func stepCtx(doc *xdm.Node, g *guard.Guard, seeds Seeds) evalCtx {
	var as xdm.Sequence
	doc.Descend(func(n *xdm.Node) {
		if n.Kind == xdm.ElementNode && n.Name.Local == "a" {
			as = append(xdm.Sequence{n}, as...)
		}
	})
	ctx := evalCtx{item: doc, pos: 1, size: 1, g: g, seeds: seeds}
	return ctx.bind("d", xdm.Sequence{doc}).bind("x", as)
}

// stepOutcome renders a result item by item, with each stored node's
// ordinal, or the error.
func stepOutcome(seq xdm.Sequence, err error, doc *xdm.Node) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	for _, it := range seq {
		b.WriteString(xdm.Serialize(it))
		if n, ok := it.(*xdm.Node); ok && n.TreeID == doc.TreeID {
			fmt.Fprintf(&b, "@%d", n.Ordinal)
		}
		b.WriteByte('|')
	}
	return b.String()
}

// diffSteps evaluates body with the evaluator and with the reference and
// reports whether they agree. A guard violation on either side is no
// verdict: fused steps spend fewer guard steps by design.
func diffSteps(body Expr, doc *xdm.Node, limit int64, seeds Seeds) (got, want string, ok bool) {
	newGuard := func() *guard.Guard {
		if limit == 0 {
			return nil
		}
		return guard.New(nil, time.Second, guard.Limits{MaxEvalSteps: limit})
	}
	gotSeq, gotErr := eval(body, stepCtx(doc, newGuard(), seeds))
	wantSeq, wantErr := refEval(body, stepCtx(doc, newGuard(), seeds))
	if _, v := guard.AsViolation(gotErr); v {
		return "", "", true
	}
	if _, v := guard.AsViolation(wantErr); v {
		return "", "", true
	}
	got, want = stepOutcome(gotSeq, gotErr, doc), stepOutcome(wantSeq, wantErr, doc)
	return got, want, got == want
}

// TestPathStepsMatchAlwaysSortReference runs every shape over the fixed
// tree and over generated ones, against the reference that collects,
// copies and sorts after every step and never fuses `//`.
func TestPathStepsMatchAlwaysSortReference(t *testing.T) {
	trees := []string{stepTree}
	r := rand.New(rand.NewSource(32))
	for i := 0; i < 12; i++ {
		var b strings.Builder
		b.WriteString("<r>")
		for k := 0; k < 3; k++ {
			genTree(&b, r.Int, 0)
		}
		b.WriteString("</r>")
		trees = append(trees, b.String())
	}
	errorsSeen := 0
	for ti, tree := range trees {
		doc, err := xmlparse.Parse(tree)
		if err != nil {
			t.Fatalf("parse tree %d: %v", ti, err)
		}
		for _, q := range stepShapes {
			m, err := Parse(q)
			if err != nil {
				t.Fatalf("parse %s: %v", q, err)
			}
			got, want, ok := diffSteps(m.Body, doc, 0, nil)
			if !ok {
				t.Errorf("tree %d, %s:\n got %s\nwant %s", ti, q, got, want)
			}
			if strings.HasPrefix(got, "error: ") {
				errorsSeen++
			}
		}
	}
	if errorsSeen == 0 {
		t.Fatal("no shape raised an error: the error half of the differential is vacuous")
	}
}

// TestPathStepsFusedErrorMatchesPair pins the case the fused step's
// fallback exists for: the fused walk meets the a with three b children
// first, the pair meets the a with two first, and the pair's error wins.
func TestPathStepsFusedErrorMatchesPair(t *testing.T) {
	doc, err := xmlparse.Parse(stepTree)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(`//a[b eq "1"]`)
	if err != nil {
		t.Fatal(err)
	}
	got, want, ok := diffSteps(m.Body, doc, 0, nil)
	if !ok || !strings.Contains(got, "got 2 and 1 items") {
		t.Fatalf("got %s, want %s", got, want)
	}
}

// TestPathStepsSeededMatchReference seeds a fused path and two unfused
// ones (an attribute step after //, and a seeded step with a predicate)
// and checks each against the reference under the same seed.
func TestPathStepsSeededMatchReference(t *testing.T) {
	doc, err := xmlparse.Parse(stepTree)
	if err != nil {
		t.Fatal(err)
	}
	hits := attrsNamed(doc, "a", "2", "4", "5")
	for _, tc := range []struct {
		q     string
		fused bool
	}{
		{`$d//x/@a`, true},
		{`$d//a//x/@a`, true},
		{`$d//@a`, false},
		{`$d//x[@a > 1]/@a`, false},
	} {
		m, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		p := m.Body.(*PathExpr)
		fused := false
		for i := 0; i+1 < len(p.Steps); i++ {
			fused = fused || fusesDescendant(p.Steps[i], p.Steps[i+1], true)
		}
		if fused != tc.fused {
			t.Fatalf("%s: fused = %v, want %v", tc.q, fused, tc.fused)
		}
		seeds := Seeds{p: seedFor(hits...)}
		got, want, ok := diffSteps(p, doc, 0, seeds)
		if !ok || got == "" {
			t.Errorf("%s seeded:\n got %s\nwant %s", tc.q, got, want)
		}
	}
}

// TestFusesDescendant pins which `//` pairs run as one descendant step.
func TestFusesDescendant(t *testing.T) {
	for _, tc := range []struct {
		q      string
		seeded bool
		want   bool
	}{
		{`//x`, false, true},
		{`//x[@a > 3]`, false, true},
		{`//x[@a > 1 and . = "2" or @a eq "3"]`, false, true},
		{`//x[count(x) = 1]`, false, true},
		{`//x[a[1] = 1]`, false, true},
		{`//x`, true, true},
		{`//x[@a > 3]`, true, false},
		{`//x[1]`, false, false},
		{`//x[last()]`, false, false},
		{`//x[position() = 2]`, false, false},
		{`//x[@a > 1 and position() = 1]`, false, false},
		{`//x[count(x) = last()]`, false, false},
		{`//x[a[last()] = 1]`, false, false},
		{`//x[@a]`, false, false},
		{`//x[@a > 1][1]`, false, false},
		{`//@a`, false, false},
		{`//self::x`, false, false},
		{`//descendant-or-self::node()[1]/x`, false, false},
	} {
		m, err := Parse(tc.q)
		if err != nil {
			t.Fatal(err)
		}
		steps := m.Body.(*PathExpr).Steps
		if got := fusesDescendant(steps[0], steps[1], tc.seeded); got != tc.want {
			t.Errorf("%s (seeded %v): fuses = %v, want %v", tc.q, tc.seeded, got, tc.want)
		}
	}
}

// FuzzPathStepOrder compares the evaluator with the always-sort
// reference over a small generated tree and an arbitrary query.
func FuzzPathStepOrder(f *testing.F) {
	for i, q := range stepShapes {
		f.Add([]byte{byte(i), 7, 1, 3, 2, 9, 4, 1, 0, 5, 3, 3, 8, 2, 1, 6}, q)
	}
	f.Add([]byte("nested a under b under a"), `//a//a[b = 1]/..`)
	f.Fuzz(func(t *testing.T, tree []byte, q string) {
		if len(tree) > 256 || len(q) > 256 {
			return
		}
		var b strings.Builder
		b.WriteString("<r>")
		src := byteSource(tree)
		for k := 0; k < 3; k++ {
			genTree(&b, src, 0)
		}
		b.WriteString("</r>")
		doc, err := xmlparse.Parse(b.String())
		if err != nil {
			t.Fatalf("generated tree does not parse: %v", err)
		}
		m, err := Parse(q)
		if err != nil {
			return
		}
		got, want, ok := diffSteps(m.Body, doc, 20000, nil)
		if !ok {
			t.Fatalf("tree %s, %s:\n got %s\nwant %s", b.String(), q, got, want)
		}
	})
}

// TestPathStepAllocsFlatInContextSize guards the step's allocation
// profile: a child or attribute step appends into the step's output, so a
// path's allocations grow with the number of steps, not with the number
// of context nodes, and a fused `//x[cmp]` costs a handful of allocations
// per x (the predicate's own), not a step per node of the document.
func TestPathStepAllocsFlatInContextSize(t *testing.T) {
	doc := func(items int) xdm.Sequence {
		var b strings.Builder
		b.WriteString("<order>")
		for i := 0; i < items; i++ {
			fmt.Fprintf(&b, `<lineitem price="%d"><product><id>%d</id></product></lineitem>`, i%10, i)
		}
		b.WriteString("</order>")
		d, err := xmlparse.Parse(b.String())
		if err != nil {
			t.Fatal(err)
		}
		return xdm.Sequence{d}
	}
	allocs := func(q string, d xdm.Sequence) float64 {
		m, err := Parse(q)
		if err != nil {
			t.Fatal(err)
		}
		vars := StaticVars{"d": d}
		if _, err := Eval(m, vars, nil); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { _, _ = Eval(m, vars, nil) })
	}
	small, large := doc(25), doc(400)
	const attrPath = `$d/order/lineitem/@price`
	if s, l := allocs(attrPath, small), allocs(attrPath, large); l > 2*s {
		t.Errorf("%s: %v allocs at 25 line items, %v at 400: want at most 2x", attrPath, s, l)
	}
	const fused = `$d//lineitem[@price > 5]`
	if a := allocs(fused, large); a > 10*400 {
		t.Errorf("%s: %v allocs at 400 line items, want <= 10 per line item", fused, a)
	}
}
