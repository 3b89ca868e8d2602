// Package pattern implements the XMLPATTERN language of the paper's
// CREATE INDEX DDL (§2.1):
//
//	pattern   ::= namespace-decls? (( / | // ) axis? ( name-test | kind-test ))+
//	axis      ::= @ | child:: | attribute:: | self:: | descendant:: | descendant-or-self::
//	name-test ::= qname | * | ncname:* | *:ncname
//	kind-test ::= node() | text() | comment() | processing-instruction(ncname?)
//
// and the two decision procedures index eligibility needs:
//
//   - Match: does a concrete node path (the label path from a document
//     root to a node) match a pattern? Used by index maintenance and by
//     probes that apply "additional restrictions on the path".
//   - Contains: is pattern I no more restrictive than pattern Q — does
//     every node path matched by Q also match I? This is the structural
//     half of Definition 1; §3.7 (namespaces), §3.8 (text() alignment)
//     and §3.9 (attribute axes) are all containment questions.
//
// Walker produces the concrete label paths Match consumes, one walk for
// index maintenance, bulk extraction and the path synopsis.
package pattern

import (
	"fmt"
	"strings"
)

// LabelKind classifies one component of a node path.
type LabelKind uint8

// Label kinds.
const (
	ElementLabel LabelKind = iota
	AttributeLabel
	TextLabel
	CommentLabel
	PILabel
)

// Label is one component of a concrete root-to-node path.
type Label struct {
	Kind  LabelKind
	Space string // namespace URI (elements and attributes)
	Local string // local name; PI target for PILabel
}

// TestKind classifies a pattern step's node test.
type TestKind uint8

// Test kinds.
const (
	NameTest TestKind = iota // qname | * | ncname:* | *:ncname
	AnyKindTest
	TextTest
	CommentTest
	PITest
)

// Axis is a pattern step axis.
type Axis uint8

// Axes admitted by the XMLPATTERN grammar.
const (
	Child Axis = iota
	Attribute
	Self
	Descendant
	DescendantOrSelf
)

var axisNames = [...]string{"child", "attribute", "self", "descendant", "descendant-or-self"}

func (a Axis) String() string { return axisNames[a] }

// Step is one parsed pattern step.
type Step struct {
	Axis     Axis
	Test     TestKind
	Space    string // "*" wildcard or URI ("" = no namespace)
	Local    string // "*" wildcard or name
	PITarget string // "" = any target
}

// Pattern is a parsed XMLPATTERN.
type Pattern struct {
	// Source is the original pattern text.
	Source string
	Steps  []Step
	// alternatives is the normal form used by Match/Contains: an
	// alternation of linear consuming-step sequences.
	alternatives [][]nstep
}

// nstep is a normalized consuming step: optionally preceded by an
// arbitrary-length skip (from descendant axes), consuming one label that
// must satisfy the test.
type nstep struct {
	skipBefore bool
	attr       bool // principal node kind is attribute
	test       TestKind
	space      string
	local      string
	piTarget   string
	dead       bool // test is unsatisfiable (empty conjunction)
}

// String renders the pattern back in XMLPATTERN syntax.
func (p *Pattern) String() string { return p.Source }

// matchesLabel reports whether a concrete label satisfies the step test.
func (s nstep) matchesLabel(l Label) bool {
	if s.dead {
		return false
	}
	switch s.test {
	case AnyKindTest:
		// node() on a child-ish axis never matches attributes: the
		// paper's §3.9 pitfall — //node() is child-axis navigation.
		if s.attr {
			return l.Kind == AttributeLabel
		}
		return l.Kind != AttributeLabel
	case TextTest:
		return l.Kind == TextLabel
	case CommentTest:
		return l.Kind == CommentLabel
	case PITest:
		return l.Kind == PILabel && (s.piTarget == "" || s.piTarget == l.Local)
	case NameTest:
		var want LabelKind = ElementLabel
		if s.attr {
			want = AttributeLabel
		}
		if l.Kind != want {
			return false
		}
		if s.local != "*" && s.local != l.Local {
			return false
		}
		if s.space != "*" && s.space != l.Space {
			return false
		}
		return true
	}
	return false
}

// Match reports whether the label path (root to node, exclusive of the
// document node) matches the pattern.
func (p *Pattern) Match(path []Label) bool {
	for _, alt := range p.alternatives {
		if matchAlt(alt, path) {
			return true
		}
	}
	return false
}

// matchStackLabels is the longest path matchAlt matches without a heap
// allocation.
const matchStackLabels = 31

// matchAlt matches one normalized alternative against a concrete path by
// dynamic programming over (step, position): cur[pos] says whether the
// steps so far can consume exactly path[:pos].
func matchAlt(steps []nstep, path []Label) bool {
	n := len(path) + 1
	var buf [2 * (matchStackLabels + 1)]bool
	var cur, next []bool
	if n <= matchStackLabels+1 {
		cur, next = buf[:n], buf[matchStackLabels+1:][:n]
	} else {
		heap := make([]bool, 2*n)
		cur, next = heap[:n], heap[n:]
	}
	cur[0] = true
	for _, s := range steps {
		clear(next)
		reached := false
		for pos := 0; pos < len(path); pos++ {
			if !cur[pos] {
				continue
			}
			if s.skipBefore {
				// Skip any number of labels (but stay within path):
				// every later position is reachable too.
				for skip := pos; skip < len(path); skip++ {
					if s.matchesLabel(path[skip]) {
						next[skip+1] = true
						reached = true
					}
				}
				break
			}
			if s.matchesLabel(path[pos]) {
				next[pos+1] = true
				reached = true
			}
		}
		if !reached {
			return false
		}
		cur, next = next, cur
	}
	return cur[len(path)]
}

// Parse parses an XMLPATTERN string.
func Parse(src string) (*Pattern, error) {
	p := &patternParser{src: src}
	pat, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("xmlpattern %q: %w", src, err)
	}
	pat.Source = src
	alts, err := normalize(pat.Steps)
	if err != nil {
		return nil, fmt.Errorf("xmlpattern %q: %w", src, err)
	}
	pat.alternatives = alts
	return pat, nil
}

// MustParse is Parse for tests and package setup.
func MustParse(src string) *Pattern {
	p, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return p
}

type patternParser struct {
	src       string
	pos       int
	ns        map[string]string
	defaultNS string
}

func (p *patternParser) ws() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n' || p.src[p.pos] == '\r') {
		p.pos++
	}
}

func (p *patternParser) lit(s string) bool {
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *patternParser) name() string {
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if c == '_' || c == '-' || c == '.' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		break
	}
	return p.src[start:p.pos]
}

func (p *patternParser) quoted() (string, error) {
	p.ws()
	if p.pos >= len(p.src) || (p.src[p.pos] != '"' && p.src[p.pos] != '\'') {
		return "", fmt.Errorf("expected quoted string at offset %d", p.pos)
	}
	q := p.src[p.pos]
	end := strings.IndexByte(p.src[p.pos+1:], q)
	if end < 0 {
		return "", fmt.Errorf("unterminated string at offset %d", p.pos)
	}
	s := p.src[p.pos+1 : p.pos+1+end]
	p.pos += end + 2
	return s, nil
}

// parseDecls parses the optional namespace declaration prefix of a
// pattern (§3.7 index examples).
func (p *patternParser) parseDecls() error {
	p.ns = map[string]string{}
	for {
		p.ws()
		save := p.pos
		if !p.lit("declare") {
			return nil
		}
		p.ws()
		switch {
		case p.lit("default"):
			p.ws()
			if !p.lit("element") {
				return fmt.Errorf("expected 'element' at offset %d", p.pos)
			}
			p.ws()
			if !p.lit("namespace") {
				return fmt.Errorf("expected 'namespace' at offset %d", p.pos)
			}
			uri, err := p.quoted()
			if err != nil {
				return err
			}
			p.defaultNS = uri
		case p.lit("namespace"):
			p.ws()
			prefix := p.name()
			if prefix == "" {
				return fmt.Errorf("expected prefix at offset %d", p.pos)
			}
			p.ws()
			if !p.lit("=") {
				return fmt.Errorf("expected = at offset %d", p.pos)
			}
			uri, err := p.quoted()
			if err != nil {
				return err
			}
			p.ns[prefix] = uri
		default:
			p.pos = save
			return nil
		}
		p.ws()
		if !p.lit(";") {
			return fmt.Errorf("expected ; after namespace declaration at offset %d", p.pos)
		}
	}
}

func (p *patternParser) parse() (*Pattern, error) {
	if err := p.parseDecls(); err != nil {
		return nil, err
	}
	pat := &Pattern{}
	p.ws()
	for p.pos < len(p.src) {
		var descend bool
		switch {
		case p.lit("//"):
			descend = true
		case p.lit("/"):
		default:
			return nil, fmt.Errorf("expected / or // at offset %d", p.pos)
		}
		step, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		if descend {
			// "//" is descendant-or-self::node() then the step.
			pat.Steps = append(pat.Steps, Step{Axis: DescendantOrSelf, Test: AnyKindTest})
		}
		pat.Steps = append(pat.Steps, step)
		p.ws()
	}
	if len(pat.Steps) == 0 {
		return nil, fmt.Errorf("empty pattern")
	}
	return pat, nil
}

func (p *patternParser) parseStep() (Step, error) {
	p.ws()
	step := Step{Axis: Child}
	switch {
	case p.lit("@"):
		step.Axis = Attribute
	case p.lit("child::"):
		step.Axis = Child
	case p.lit("attribute::"):
		step.Axis = Attribute
	case p.lit("self::"):
		step.Axis = Self
	case p.lit("descendant-or-self::"):
		step.Axis = DescendantOrSelf
	case p.lit("descendant::"):
		step.Axis = Descendant
	}
	p.ws()

	// Kind tests.
	for name, kind := range map[string]TestKind{
		"node()":    AnyKindTest,
		"text()":    TextTest,
		"comment()": CommentTest,
	} {
		if p.lit(name) {
			step.Test = kind
			return step, nil
		}
	}
	if p.lit("processing-instruction(") {
		step.Test = PITest
		p.ws()
		step.PITarget = p.name()
		p.ws()
		if !p.lit(")") {
			return step, fmt.Errorf("expected ) at offset %d", p.pos)
		}
		return step, nil
	}

	// Name tests.
	step.Test = NameTest
	if p.lit("*") {
		if p.lit(":") {
			local := p.name()
			if local == "" {
				return step, fmt.Errorf("expected local name after *: at offset %d", p.pos)
			}
			step.Space = "*"
			step.Local = local
			return step, nil
		}
		step.Space = "*"
		step.Local = "*"
		return step, nil
	}
	first := p.name()
	if first == "" {
		return step, fmt.Errorf("expected name test at offset %d", p.pos)
	}
	if p.lit(":") {
		uri, ok := p.ns[first]
		if !ok {
			return step, fmt.Errorf("undeclared namespace prefix %q", first)
		}
		step.Space = uri
		if p.lit("*") {
			step.Local = "*"
			return step, nil
		}
		local := p.name()
		if local == "" {
			return step, fmt.Errorf("expected local name after %s: at offset %d", first, p.pos)
		}
		step.Local = local
		return step, nil
	}
	// Unprefixed name: the default element namespace applies to element
	// steps but never to attributes (§3.7).
	step.Local = first
	if step.Axis == Attribute {
		step.Space = ""
	} else {
		step.Space = p.defaultNS
	}
	return step, nil
}
