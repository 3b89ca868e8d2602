package xquery

import (
	"fmt"
	"sort"
	"strings"

	"github.com/xqdb/xqdb/internal/xdm"
)

// unparseEnv carries the namespace declarations in scope, so QNames can
// render with their prefixes instead of Clark notation.
type unparseEnv struct {
	defaultNS string
	prefixes  map[string]string // uri -> prefix
}

var activeUnparseEnv unparseEnv

// Unparse renders an expression back to XQuery source. The output is
// normalized (explicit parentheses where precedence requires, canonical
// keyword spacing) and re-parses to an equivalent AST; the advisor uses
// it to print suggested rewrites.
func Unparse(e Expr) string {
	var b strings.Builder
	unparse(&b, e)
	return b.String()
}

// UnparseModule renders a module including its prolog declarations.
func UnparseModule(m *Module) string {
	var b strings.Builder
	env := unparseEnv{defaultNS: m.DefaultElementNS, prefixes: map[string]string{}}
	if m.DefaultElementNS != "" {
		fmt.Fprintf(&b, "declare default element namespace %s; ", quoteLit(m.DefaultElementNS))
	}
	// Sorted prefixes: map order would render the prolog declarations in
	// a different order run to run.
	prefixes := make([]string, 0, len(m.Namespaces))
	for prefix := range m.Namespaces {
		if _, builtin := builtinPrefixes[prefix]; builtin {
			continue
		}
		prefixes = append(prefixes, prefix)
	}
	sort.Strings(prefixes)
	for _, prefix := range prefixes {
		uri := m.Namespaces[prefix]
		fmt.Fprintf(&b, "declare namespace %s=%s; ", prefix, quoteLit(uri))
		env.prefixes[uri] = prefix
	}
	saved := activeUnparseEnv
	activeUnparseEnv = env
	defer func() { activeUnparseEnv = saved }()
	unparse(&b, m.Body)
	return b.String()
}

// quoteLit renders s as an XQuery string literal. XQuery escapes an
// embedded quote by doubling it — Go's %q backslash escaping would not
// reparse.
func quoteLit(s string) string {
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}

func unparse(b *strings.Builder, e Expr) {
	switch x := e.(type) {
	case *Literal:
		if x.Value.T == xdm.String || x.Value.T == xdm.UntypedAtomic {
			b.WriteString(quoteLit(x.Value.S))
		} else {
			b.WriteString(x.Value.Lexical())
		}
	case *VarRef:
		b.WriteString("$" + x.Name)
	case *ContextItem:
		b.WriteString(".")
	case *SequenceExpr:
		b.WriteString("(")
		for i, it := range x.Items {
			if i > 0 {
				b.WriteString(", ")
			}
			unparse(b, it)
		}
		b.WriteString(")")
	case *FLWOR:
		for _, cl := range x.Clauses {
			if cl.Kind == ForClause {
				b.WriteString("for $" + cl.Var)
				if cl.PosVar != "" {
					b.WriteString(" at $" + cl.PosVar)
				}
				b.WriteString(" in ")
			} else {
				b.WriteString("let $" + cl.Var + " := ")
			}
			unparse(b, cl.Expr)
			b.WriteString(" ")
		}
		if x.Where != nil {
			b.WriteString("where ")
			unparse(b, x.Where)
			b.WriteString(" ")
		}
		if len(x.OrderBy) > 0 {
			b.WriteString("order by ")
			for i, spec := range x.OrderBy {
				if i > 0 {
					b.WriteString(", ")
				}
				unparse(b, spec.Key)
				if spec.Descending {
					b.WriteString(" descending")
				}
			}
			b.WriteString(" ")
		}
		b.WriteString("return ")
		unparse(b, x.Return)
	case *Quantified:
		if x.Every {
			b.WriteString("every ")
		} else {
			b.WriteString("some ")
		}
		for i, cl := range x.Bindings {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString("$" + cl.Var + " in ")
			unparse(b, cl.Expr)
		}
		b.WriteString(" satisfies ")
		unparse(b, x.Satisfies)
	case *IfExpr:
		b.WriteString("if (")
		unparse(b, x.Cond)
		b.WriteString(") then ")
		unparse(b, x.Then)
		b.WriteString(" else ")
		unparse(b, x.Else)
	case *BinaryExpr:
		b.WriteString("(")
		unparse(b, x.Left)
		op := x.Op
		if op == "," {
			b.WriteString(", ")
		} else {
			b.WriteString(" " + op + " ")
		}
		unparse(b, x.Right)
		b.WriteString(")")
	case *Comparison:
		b.WriteString("(")
		unparse(b, x.Left)
		switch x.Kind {
		case GeneralComp:
			b.WriteString(" " + x.Op.GeneralSymbol() + " ")
		case ValueComp:
			b.WriteString(" " + x.Op.String() + " ")
		default:
			b.WriteString(" " + x.NodeOp + " ")
		}
		unparse(b, x.Right)
		b.WriteString(")")
	case *UnaryExpr:
		if x.Neg {
			b.WriteString("-")
		}
		unparse(b, x.Operand)
	case *CastExpr:
		b.WriteString("xs:" + x.Target.String() + "(")
		unparse(b, x.Operand)
		b.WriteString(")")
	case *CastableExpr:
		b.WriteString("(")
		unparse(b, x.Operand)
		b.WriteString(" castable as xs:" + x.Target.String() + ")")
	case *TreatExpr:
		b.WriteString("(")
		unparse(b, x.Operand)
		b.WriteString(" treat as " + x.KindTest.String() + ")")
	case *InstanceOfExpr:
		b.WriteString("(")
		unparse(b, x.Operand)
		b.WriteString(" instance of ")
		if x.KindTest != nil {
			b.WriteString(x.KindTest.String())
		} else if x.Occurrence == "0" {
			b.WriteString("empty-sequence()")
		} else {
			b.WriteString("xs:" + x.AtomicType.String())
		}
		if x.Occurrence != "" && x.Occurrence != "0" {
			b.WriteString(x.Occurrence)
		}
		b.WriteString(")")
	case *PathExpr:
		unparsePath(b, x)
	case *FunctionCall:
		b.WriteString(x.Space + ":" + x.Local + "(")
		for i, a := range x.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			unparse(b, a)
		}
		b.WriteString(")")
	case *ElementConstructor:
		unparseElement(b, x)
	case *CommentConstructor:
		b.WriteString("<!--" + x.Text + "-->")
	case *TextLiteral:
		b.WriteString(escapeConstructorText(x.Text))
	case *ComputedConstructor:
		switch x.Kind {
		case ComputedElement:
			b.WriteString("element " + qnameSource(x.Name, true) + " {")
		case ComputedAttribute:
			b.WriteString("attribute " + qnameSource(x.Name, false) + " {")
		case ComputedText:
			b.WriteString("text {")
		case ComputedComment:
			b.WriteString("comment {")
		case ComputedDocument:
			b.WriteString("document {")
		}
		if x.Content != nil {
			b.WriteString(" ")
			unparse(b, x.Content)
			b.WriteString(" ")
		}
		b.WriteString("}")
	default:
		b.WriteString("(??)")
	}
}

func unparsePath(b *strings.Builder, p *PathExpr) {
	wrote := false
	if p.Rooted {
		// Rendered with the first step below.
		wrote = true
	} else if p.Start != nil {
		unparse(b, p.Start)
	}
	for i, s := range p.Steps {
		isDOS := s.Axis == AxisDescendantOrSelf && s.Test.Kind == AnyKindTest && len(s.Predicates) == 0
		if isDOS && i+1 < len(p.Steps) {
			b.WriteString("//")
			continue
		}
		if i > 0 || p.Start != nil || p.Rooted {
			// After "//" no extra slash; detect by looking back.
			if !strings.HasSuffix(b.String(), "//") && s.Axis != AxisNone {
				b.WriteString("/")
			} else if s.Axis == AxisNone && (i > 0 || p.Start != nil) && !strings.HasSuffix(b.String(), "//") {
				b.WriteString("/")
			}
		}
		_ = wrote
		switch s.Axis {
		case AxisNone:
			unparse(b, s.Filter)
		case AxisAttribute:
			b.WriteString("@" + testSource(s.Test, false))
		case AxisChild:
			b.WriteString(testSource(s.Test, true))
		case AxisParent:
			if s.Test.Kind == AnyKindTest {
				b.WriteString("..")
			} else {
				b.WriteString("parent::" + testSource(s.Test, true))
			}
		default:
			b.WriteString(s.Axis.String() + "::" + testSource(s.Test, s.Axis != AxisAttribute))
		}
		for _, pred := range s.Predicates {
			b.WriteString("[")
			unparse(b, pred)
			b.WriteString("]")
		}
	}
	if p.Rooted && len(p.Steps) == 0 {
		// A lone "/" followed by a name ("/ union 0") would parse as a
		// rooted step; parenthesized, it stays the root in any position.
		b.WriteString("(/)")
	}
}

func unparseElement(b *strings.Builder, ec *ElementConstructor) {
	name := qnameSource(ec.Name, true)
	b.WriteString("<" + name)
	for _, a := range ec.Attrs {
		b.WriteString(" " + qnameSource(a.Name, false) + `="`)
		for _, part := range a.Parts {
			if lit, ok := part.(*TextLiteral); ok {
				b.WriteString(escapeConstructorText(lit.Text))
				continue
			}
			b.WriteString("{")
			unparse(b, part)
			b.WriteString("}")
		}
		b.WriteString(`"`)
	}
	if len(ec.Content) == 0 {
		b.WriteString("/>")
		return
	}
	b.WriteString(">")
	for _, c := range ec.Content {
		switch cc := c.(type) {
		case *TextLiteral:
			b.WriteString(escapeConstructorText(cc.Text))
		case *ElementConstructor:
			unparseElement(b, cc)
		case *CommentConstructor:
			b.WriteString("<!--" + cc.Text + "-->")
		default:
			b.WriteString("{")
			unparse(b, c)
			b.WriteString("}")
		}
	}
	b.WriteString("</" + name + ">")
}

// qnameSource renders a QName for source output using the active
// namespace environment: the default element namespace renders bare (for
// elements), declared prefixes by prefix, and anything else in Clark
// notation (which does not re-parse; the advisor only feeds it names
// from prefix-less queries or built-ins).
func qnameSource(q xdm.QName, isElement bool) string {
	if q.Space == "" {
		return q.Local
	}
	if isElement && q.Space == activeUnparseEnv.defaultNS {
		return q.Local
	}
	if p, ok := prefixFor(q.Space); ok {
		return p + ":" + q.Local
	}
	return "{" + q.Space + "}" + q.Local
}

// prefixFor finds a prefix for a namespace URI: declared prefixes first,
// then the pre-declared built-ins (fn, xs, db2-fn, ...), which resolve
// during parsing and must render back as prefixes to stay reparseable.
func prefixFor(uri string) (string, bool) {
	if p, ok := activeUnparseEnv.prefixes[uri]; ok {
		return p, true
	}
	if p, ok := builtinPrefixByURI[uri]; ok {
		return p, true
	}
	return "", false
}

var builtinPrefixByURI = func() map[string]string {
	m := make(map[string]string, len(builtinPrefixes))
	for p, uri := range builtinPrefixes {
		m[uri] = p
	}
	return m
}()

// testSource renders a node test using the active namespace environment.
func testSource(t NodeTest, element bool) string {
	if t.Kind != NameTest {
		return t.String()
	}
	switch t.Space {
	case "":
		return t.Local
	case "*":
		if t.Local == "*" {
			return "*"
		}
		return "*:" + t.Local
	}
	base := qnameSource(xdm.QName{Space: t.Space, Local: t.Local}, element)
	if t.Local == "*" {
		// qnameSource handles prefixed names; wildcards need the prefix
		// form explicitly.
		if p, ok := prefixFor(t.Space); ok {
			return p + ":*"
		}
		return "{" + t.Space + "}*"
	}
	return base
}

func escapeConstructorText(s string) string {
	s = strings.ReplaceAll(s, "&", "&amp;")
	s = strings.ReplaceAll(s, "<", "&lt;")
	s = strings.ReplaceAll(s, "{", "{{")
	s = strings.ReplaceAll(s, "}", "}}")
	return s
}
