// Streaming SAX-style parser: the one XML parser in the package. Parse
// and ParseLimited run it over their string; ParseReader and a reusable
// StreamParser run it over an io.Reader without materializing the input,
// enforcing Limits.MaxBytes incrementally as bytes are consumed. It
// assigns preorder ordinals inline, and a reused StreamParser recycles
// name/node/buffer allocations across documents — ingestion uses one
// per worker so memory stays bounded by the tree being built, never by
// the raw input size.
//
// The scanner mirrors encoding/xml's observed semantics byte for byte —
// which bytes may appear in names, where \r\n collapses to \n, how
// `]]>` outside CDATA fails, how namespace bindings scope and unwind,
// which entities expand. sax_test.go keeps an encoding/xml token loop as
// the oracle: TestParseReaderDifferential and FuzzParseReaderDifferential
// hold the parser to its accept set and to identical trees.
package xmlparse

import (
	"encoding/xml"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/xqdb/xqdb/internal/xdm"
)

const xmlNamespaceURL = "http://www.w3.org/XML/1998/namespace"

// ParseReader parses one XML document from r with the same semantics
// as ParseLimited(string(input), lim), streaming: the input is never
// held in memory whole and MaxBytes aborts the parse as soon as more
// than the limit has been consumed.
func ParseReader(r io.Reader, lim Limits) (*xdm.Node, error) {
	return NewStreamParser().Parse(r, lim)
}

// StreamParser is a reusable streaming parser. A zero StreamParser is
// not usable; construct with NewStreamParser. Parse may be called
// repeatedly (not concurrently); the parser keeps its read buffer,
// interned element/attribute names, and node arena across calls, which
// is what makes per-worker reuse during bulk ingestion cheap.
type StreamParser struct {
	r        io.Reader
	buf      []byte
	pos, end int
	nextByte int   // one-byte pushback, -1 when empty
	err      error // sticky; io.EOF between tokens is the clean end
	consumed int64 // bytes delivered to the scanner
	maxBytes int64

	scratch []byte // text/attr-value token accumulation
	nbuf    []byte // raw name accumulation
	names   map[string]*nameInfo
	ns      map[string]string // prefix -> URI bindings in scope
	nsUndo  []nsBinding
	attrs   []savedAttr
	arena   []xdm.Node
	slab    int // nodes in the last arena allocation
}

// nameInfo is the interned form of one raw (prefix-qualified) name.
type nameInfo struct {
	full  string // the raw name as written
	space string // prefix part ("" when unprefixed)
	local string
	ok    bool // valid as an element/attribute name (≤ 1 colon)
	plain bool // valid as a bare XML name (PI targets allow any colons)
}

type nsBinding struct {
	prefix string
	old    string
	had    bool
}

type savedAttr struct {
	name *nameInfo
	val  string
}

// streamBufBytes is the read buffer of a parser meant for reuse: large
// enough to amortize Read calls over a bulk load's streams.
const streamBufBytes = 32 << 10

// NewStreamParser returns a parser ready for repeated Parse calls.
func NewStreamParser() *StreamParser {
	return newParser(streamBufBytes)
}

// newParser returns a parser whose read buffer suits inputs of about
// size bytes, so a 300-byte INSERT takes its input in one Read and pays
// for 300 bytes of buffer, not for a bulk load's.
func newParser(size int) *StreamParser {
	return &StreamParser{
		buf:      make([]byte, 0, min(max(size, 1), streamBufBytes)),
		nextByte: -1,
		names:    make(map[string]*nameInfo),
		ns:       make(map[string]string),
	}
}

// Parse reads one document from r under lim. Limit failures wrap
// ErrLimit; the byte limit is enforced on consumed input, so an
// oversized document fails mid-stream without being read to the end.
func (p *StreamParser) Parse(r io.Reader, lim Limits) (*xdm.Node, error) {
	p.r = r
	p.pos, p.end = 0, 0
	p.nextByte = -1
	p.err = nil
	p.consumed = 0
	p.maxBytes = int64(lim.bytes())
	clear(p.ns)
	p.nsUndo = p.nsUndo[:0]
	return p.parseDoc(lim.depth())
}

// --- byte scanner -----------------------------------------------------

func (p *StreamParser) fill() bool {
	if p.err != nil {
		return false
	}
	p.buf = p.buf[:cap(p.buf)]
	n, err := p.r.Read(p.buf)
	p.pos, p.end = 0, n
	if n > 0 {
		return true
	}
	if err == nil {
		err = io.ErrNoProgress
	}
	p.err = err
	return false
}

func (p *StreamParser) getc() (byte, bool) {
	if p.err != nil {
		return 0, false
	}
	var b byte
	if p.nextByte >= 0 {
		b = byte(p.nextByte)
		p.nextByte = -1
	} else {
		if p.pos == p.end && !p.fill() {
			return 0, false
		}
		b = p.buf[p.pos]
		p.pos++
	}
	p.consumed++
	if p.consumed > p.maxBytes {
		p.err = fmt.Errorf("xml parse: document exceeds %d bytes: %w", p.maxBytes, ErrLimit)
		return 0, false
	}
	return b, true
}

func (p *StreamParser) mustgetc() (byte, bool) {
	b, ok := p.getc()
	if !ok && p.err == io.EOF {
		p.err = fmt.Errorf("xml parse: unexpected EOF")
	}
	return b, ok
}

func (p *StreamParser) ungetc(b byte) {
	p.nextByte = int(b)
	p.consumed--
}

// syntax records a syntax error unless a more specific error (a limit
// trip, a reader failure) is already pending.
func (p *StreamParser) syntax(format string, args ...any) {
	if p.err == nil || p.err == io.EOF {
		p.err = fmt.Errorf("xml parse: "+format, args...)
	}
}

func (p *StreamParser) fail() error {
	if p.err == nil || p.err == io.EOF {
		p.syntax("unexpected EOF")
	}
	return p.err
}

// space skips ' ', '\r', '\n', '\t' — the only whitespace markup allows.
func (p *StreamParser) space() {
	for {
		b, ok := p.getc()
		if !ok {
			return
		}
		switch b {
		case ' ', '\r', '\n', '\t':
		default:
			p.ungetc(b)
			return
		}
	}
}

// --- names ------------------------------------------------------------

func isNameByte(c byte) bool {
	return 'A' <= c && c <= 'Z' ||
		'a' <= c && c <= 'z' ||
		'0' <= c && c <= '9' ||
		c == '_' || c == ':' || c == '.' || c == '-'
}

// readNameInto appends one raw name to dst. ok is false when the next
// byte cannot start a name (the byte is pushed back) or on EOF (p.err
// set). Multi-byte characters are accepted here and validated during
// interning, mirroring the two-phase stdlib scan.
func (p *StreamParser) readNameInto(dst []byte) ([]byte, bool) {
	b, ok := p.mustgetc()
	if !ok {
		return dst, false
	}
	if b < utf8.RuneSelf && !isNameByte(b) {
		p.ungetc(b)
		return dst, false
	}
	dst = append(dst, b)
	for {
		if b, ok = p.mustgetc(); !ok {
			return dst, false
		}
		if b < utf8.RuneSelf && !isNameByte(b) {
			p.ungetc(b)
			return dst, true
		}
		dst = append(dst, b)
	}
}

// rawName scans and interns one element/attribute/PI name.
func (p *StreamParser) rawName() (*nameInfo, bool) {
	p.nbuf = p.nbuf[:0]
	var ok bool
	if p.nbuf, ok = p.readNameInto(p.nbuf); !ok {
		return nil, false
	}
	if info, hit := p.names[string(p.nbuf)]; hit {
		return info, true
	}
	s := string(p.nbuf)
	info := &nameInfo{full: s, plain: validXMLName(s)}
	if info.plain && strings.Count(s, ":") <= 1 {
		info.ok = true
		if i := strings.IndexByte(s, ':'); i >= 1 && i <= len(s)-2 {
			info.space, info.local = s[:i], s[i+1:]
		} else {
			info.local = s
		}
	}
	p.names[s] = info
	return info, true
}

// validXMLName reports whether s is a valid XML name under the same
// character classes the stdlib decoder enforces. The ASCII classes are
// checked directly; names with multi-byte characters are validated by
// round-tripping a processing instruction through encoding/xml itself
// (the authoritative table), once per distinct name thanks to the
// intern cache.
func validXMLName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			return slowValidXMLName(s)
		}
		switch {
		case 'A' <= c && c <= 'Z', 'a' <= c && c <= 'z', c == '_', c == ':':
		case i > 0 && ('0' <= c && c <= '9' || c == '.' || c == '-'):
		default:
			return false
		}
	}
	return true
}

func slowValidXMLName(s string) bool {
	dec := xml.NewDecoder(strings.NewReader("<?" + s + "?>"))
	tok, err := dec.RawToken()
	if err != nil {
		return false
	}
	pi, ok := tok.(xml.ProcInst)
	return ok && pi.Target == s
}

// --- character data ---------------------------------------------------

// Stop tables: bytes the fast chunked copy must hand to the byte-wise
// scanner. '>' is in the text/CDATA sets only to detect "]]>".
var (
	textStop  = makeStop("<&\r>")
	cdataStop = makeStop(">\r")
	attrStopD = makeStop("\"&<\r")
	attrStopS = makeStop("'&<\r")
)

func makeStop(bytes string) (t [256]bool) {
	for i := 0; i < len(bytes); i++ {
		t[bytes[i]] = true
	}
	return t
}

// text scans character data into p.scratch with decoder-equivalent
// semantics. quote < 0 reads element content (stops before '<');
// quote >= 0 reads a quoted attribute value ending at byte(quote);
// cdata reads a CDATA section ending at "]]>". ok is false on error.
func (p *StreamParser) text(quote int, cdata bool) ([]byte, bool) {
	var b0, b1 byte
	stop := &textStop
	switch {
	case cdata:
		stop = &cdataStop
	case quote == '"':
		stop = &attrStopD
	case quote == '\'':
		stop = &attrStopS
	}
	sc := p.scratch[:0]
	for {
		// Fast path: bulk-copy a run of bytes that need no special
		// handling. Only valid when no pushback or pending \r\n
		// collapse is outstanding.
		if p.err == nil && p.nextByte < 0 && b1 != '\r' && p.pos < p.end {
			win := p.buf[p.pos:p.end]
			i := 0
			for i < len(win) && !stop[win[i]] {
				i++
			}
			if i > 0 {
				p.pos += i
				p.consumed += int64(i)
				if p.consumed > p.maxBytes {
					p.err = fmt.Errorf("xml parse: document exceeds %d bytes: %w", p.maxBytes, ErrLimit)
					return nil, false
				}
				sc = append(sc, win[:i]...)
				if i >= 2 {
					b0, b1 = win[i-2], win[i-1]
				} else {
					b0, b1 = b1, win[i-1]
				}
				continue
			}
		}

		b, ok := p.getc()
		if !ok {
			if cdata {
				p.fail()
				p.scratch = sc
				return nil, false
			}
			break
		}

		// "]]>" ends CDATA and is an error in plain text; quoted
		// strings may contain it.
		if quote < 0 && b0 == ']' && b1 == ']' && b == '>' {
			if cdata {
				sc = sc[:len(sc)-2]
				break
			}
			p.syntax("unescaped ]]> not in CDATA section")
			p.scratch = sc
			return nil, false
		}

		if b == '<' && !cdata {
			if quote >= 0 {
				p.syntax("unescaped < inside quoted string")
				p.scratch = sc
				return nil, false
			}
			p.ungetc('<')
			break
		}
		if quote >= 0 && b == byte(quote) {
			break
		}
		if b == '&' && !cdata {
			var expanded bool
			sc, expanded = p.entity(sc)
			if !expanded {
				p.scratch = sc
				return nil, false
			}
			b0, b1 = 0, 0
			continue
		}

		// Normalize \r and \r\n to \n.
		if b == '\r' {
			sc = append(sc, '\n')
		} else if b1 == '\r' && b == '\n' {
			// already wrote \n for the \r
		} else {
			sc = append(sc, b)
		}
		b0, b1 = b1, b
	}
	p.scratch = sc

	// Validate UTF-8 and the XML character range over the final data,
	// entity expansions included.
	for i := 0; i < len(sc); {
		c := sc[i]
		if c >= 0x20 && c < utf8.RuneSelf || c == '\t' || c == '\n' || c == '\r' {
			i++
			continue
		}
		r, size := utf8.DecodeRune(sc[i:])
		if r == utf8.RuneError && size == 1 {
			p.syntax("invalid UTF-8")
			return nil, false
		}
		if !inCharacterRange(r) {
			p.syntax("illegal character code %U", r)
			return nil, false
		}
		i += size
	}
	return sc, true
}

// inCharacterRange is the Char production of XML 1.0 §2.2.
func inCharacterRange(r rune) bool {
	return r == 0x09 ||
		r == 0x0A ||
		r == 0x0D ||
		r >= 0x20 && r <= 0xD7FF ||
		r >= 0xE000 && r <= 0xFFFD ||
		r >= 0x10000 && r <= 0x10FFFF
}

// entity expands one character or predefined entity reference at '&'
// into sc. The raw reference text is kept in sc while scanning so the
// failure message can quote it, exactly as the stdlib does. Only the
// five predefined entities and numeric references expand; anything
// else is an error under strict parsing.
func (p *StreamParser) entity(sc []byte) ([]byte, bool) {
	before := len(sc)
	sc = append(sc, '&')
	b, ok := p.mustgetc()
	if !ok {
		return sc, false
	}
	var text string
	var haveText bool
	if b == '#' {
		sc = append(sc, b)
		if b, ok = p.mustgetc(); !ok {
			return sc, false
		}
		base := 10
		if b == 'x' {
			base = 16
			sc = append(sc, b)
			if b, ok = p.mustgetc(); !ok {
				return sc, false
			}
		}
		start := len(sc)
		for '0' <= b && b <= '9' ||
			base == 16 && 'a' <= b && b <= 'f' ||
			base == 16 && 'A' <= b && b <= 'F' {
			sc = append(sc, b)
			if b, ok = p.mustgetc(); !ok {
				return sc, false
			}
		}
		if b != ';' {
			p.ungetc(b)
		} else {
			s := string(sc[start:])
			sc = append(sc, ';')
			n, err := strconv.ParseUint(s, base, 64)
			if err == nil && n <= unicode.MaxRune {
				text = string(rune(n))
				haveText = true
			}
		}
	} else {
		p.ungetc(b)
		var got bool
		if sc, got = p.readNameInto(sc); !got && p.err != nil {
			return sc, false
		}
		if b, ok = p.mustgetc(); !ok {
			return sc, false
		}
		if b != ';' {
			p.ungetc(b)
		} else {
			name := string(sc[before+1:])
			sc = append(sc, ';')
			switch name {
			case "lt":
				text, haveText = "<", true
			case "gt":
				text, haveText = ">", true
			case "amp":
				text, haveText = "&", true
			case "apos":
				text, haveText = "'", true
			case "quot":
				text, haveText = `"`, true
			}
		}
	}
	if haveText {
		sc = append(sc[:before], text...)
		return sc, true
	}
	ent := string(sc[before:])
	if ent[len(ent)-1] != ';' {
		ent += " (no semicolon)"
	}
	p.syntax("invalid character entity %s", ent)
	return sc, false
}

// --- markup -----------------------------------------------------------

// skipComment consumes a comment body after "<!--", returning the
// content. "--" inside a comment is an error.
func (p *StreamParser) comment() ([]byte, bool) {
	sc := p.scratch[:0]
	var b0, b1 byte
	for {
		b, ok := p.mustgetc()
		if !ok {
			p.scratch = sc
			return nil, false
		}
		sc = append(sc, b)
		if b0 == '-' && b1 == '-' {
			if b != '>' {
				p.syntax(`invalid sequence "--" not allowed in comments`)
				p.scratch = sc
				return nil, false
			}
			break
		}
		b0, b1 = b1, b
	}
	p.scratch = sc
	return sc[:len(sc)-3], true
}

// skipDirective consumes a <!DOCTYPE ...>-style directive, honoring
// quoted sections, nested angle brackets, and embedded comments the
// way the stdlib scanner does. The content is discarded: directives
// never become tree nodes.
func (p *StreamParser) skipDirective() bool {
	var inquote byte
	depth := 0
	for {
		b, ok := p.mustgetc()
		if !ok {
			return false
		}
		if inquote == 0 && b == '>' && depth == 0 {
			return true
		}
	handle:
		switch {
		case b == inquote:
			inquote = 0
		case inquote != 0:
			// quoted: no special meaning
		case b == '\'' || b == '"':
			inquote = b
		case b == '>':
			depth--
		case b == '<':
			// "<!--" opens a comment; any other "<" nests.
			const open = "!--"
			for i := 0; i < len(open); i++ {
				if b, ok = p.mustgetc(); !ok {
					return false
				}
				if b != open[i] {
					depth++
					goto handle
				}
			}
			var b0, b1 byte
			for {
				if b, ok = p.mustgetc(); !ok {
					return false
				}
				if b0 == '-' && b1 == '-' && b == '>' {
					break
				}
				b0, b1 = b1, b
			}
		}
	}
}

// procInstParam extracts a pseudo-attribute value from an XML
// declaration body, with the stdlib's (intentionally loose) search.
func procInstParam(param, s string) string {
	param = param + "="
	lenp := len(param)
	i := 0
	var sep byte
	for i < len(s) {
		sub := s[i:]
		k := strings.Index(sub, param)
		if k < 0 || lenp+k >= len(sub) {
			return ""
		}
		i += lenp + k + 1
		if c := sub[lenp+k]; c == '\'' || c == '"' {
			sep = c
			break
		}
	}
	if sep == 0 {
		return ""
	}
	j := strings.IndexByte(s[i:], sep)
	if j < 0 {
		return ""
	}
	return s[i : i+j]
}

// --- namespaces -------------------------------------------------------

func (p *StreamParser) bindNS(prefix, uri string) {
	old, had := p.ns[prefix]
	p.nsUndo = append(p.nsUndo, nsBinding{prefix: prefix, old: old, had: had})
	p.ns[prefix] = uri
}

func (p *StreamParser) unwindNS(mark int) {
	for len(p.nsUndo) > mark {
		u := p.nsUndo[len(p.nsUndo)-1]
		p.nsUndo = p.nsUndo[:len(p.nsUndo)-1]
		if u.had {
			p.ns[u.prefix] = u.old
		} else {
			delete(p.ns, u.prefix)
		}
	}
}

// resolveSpace translates a raw prefix to its namespace URI under the
// bindings in scope: unknown prefixes pass through as written, the
// default namespace applies to elements only, and "xmlns"/"xml" have
// their fixed meanings.
func (p *StreamParser) resolveSpace(space, local string, isElement bool) string {
	switch {
	case space == "xmlns":
		return space
	case space == "" && !isElement:
		return space
	case space == "xml":
		space = xmlNamespaceURL
	case space == "" && local == "xmlns":
		return space
	}
	if v, ok := p.ns[space]; ok {
		return v
	}
	return space
}

// --- tree construction ------------------------------------------------

// newNode hands out zeroed nodes from slab allocations so a document's
// worth of nodes costs a handful of allocations instead of one each.
// Slabs double from 8 to 256 nodes: a stored tree keeps its slabs alive,
// so a ten-node row must not pin a bulk load's 35 KB slab.
func (p *StreamParser) newNode() *xdm.Node {
	if len(p.arena) == 0 {
		p.slab = min(max(2*p.slab, 8), 256)
		p.arena = make([]xdm.Node, p.slab)
	}
	n := &p.arena[0]
	p.arena = p.arena[1:]
	return n
}

type openElem struct {
	node   *xdm.Node
	name   *nameInfo
	nsMark int
}

func (p *StreamParser) parseDoc(maxDepth int) (*xdm.Node, error) {
	doc := xdm.NewDocument()
	treeID := doc.TreeID
	ord := uint32(1) // the document node is ordinal 0
	top := doc
	var stack []openElem

	appendText := func(data []byte) bool {
		if allSpace(data) {
			return true
		}
		if n := len(top.Children); n > 0 && top.Children[n-1].Kind == xdm.TextNode {
			top.Children[n-1].Text += string(data)
			return true
		}
		if top.Kind == xdm.DocumentNode {
			p.syntax("character data outside the root element")
			return false
		}
		t := p.newNode()
		t.Kind = xdm.TextNode
		t.Text = string(data)
		t.TreeID = treeID
		t.Ordinal = ord
		ord++
		top.AppendChild(t)
		return true
	}

	closeElem := func() {
		o := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p.unwindNS(o.nsMark)
		if len(stack) > 0 {
			top = stack[len(stack)-1].node
		} else {
			top = doc
		}
	}

	for {
		b, ok := p.getc()
		if !ok {
			if p.err == io.EOF {
				if len(stack) > 0 {
					p.syntax("unexpected EOF")
					return nil, p.err
				}
				break
			}
			return nil, p.fail()
		}

		if b != '<' {
			p.ungetc(b)
			data, ok := p.text(-1, false)
			if !ok {
				return nil, p.fail()
			}
			if !appendText(data) {
				return nil, p.err
			}
			continue
		}

		if b, ok = p.mustgetc(); !ok {
			return nil, p.err
		}
		switch b {
		case '/':
			name, ok := p.rawName()
			if !ok || !name.ok {
				p.syntax("expected element name after </")
				return nil, p.err
			}
			p.space()
			if b, ok = p.mustgetc(); !ok {
				return nil, p.err
			}
			if b != '>' {
				p.syntax("invalid characters between </%s and >", name.full)
				return nil, p.err
			}
			if len(stack) == 0 {
				p.syntax("unexpected end element </%s>", name.local)
				return nil, p.err
			}
			if o := stack[len(stack)-1]; o.name != name {
				p.syntax("element <%s> closed by </%s>", o.name.full, name.full)
				return nil, p.err
			}
			closeElem()

		case '?':
			name, ok := p.rawName()
			if !ok || !name.plain {
				p.syntax("expected target name after <?")
				return nil, p.err
			}
			p.space()
			sc := p.scratch[:0]
			var b0 byte
			for {
				if b, ok = p.mustgetc(); !ok {
					p.scratch = sc
					return nil, p.err
				}
				sc = append(sc, b)
				if b0 == '?' && b == '>' {
					break
				}
				b0 = b
			}
			p.scratch = sc
			inst := sc[:len(sc)-2]
			if name.full == "xml" {
				content := string(inst)
				if ver := procInstParam("version", content); ver != "" && ver != "1.0" {
					p.syntax("unsupported version %q; only version 1.0 is supported", ver)
					return nil, p.err
				}
				if enc := procInstParam("encoding", content); enc != "" && !strings.EqualFold(enc, "utf-8") {
					p.syntax("encoding %q unsupported", enc)
					return nil, p.err
				}
				continue // the XML declaration is not a PI node
			}
			pi := p.newNode()
			pi.Kind = xdm.ProcessingInstructionNode
			pi.Name = xdm.QName{Local: name.full}
			pi.Text = string(inst)
			pi.TreeID = treeID
			pi.Ordinal = ord
			ord++
			top.AppendChild(pi)

		case '!':
			if b, ok = p.mustgetc(); !ok {
				return nil, p.err
			}
			switch b {
			case '-':
				if b, ok = p.mustgetc(); !ok {
					return nil, p.err
				}
				if b != '-' {
					p.syntax("invalid sequence <!- not part of <!--")
					return nil, p.err
				}
				data, ok := p.comment()
				if !ok {
					return nil, p.err
				}
				c := p.newNode()
				c.Kind = xdm.CommentNode
				c.Text = string(data)
				c.TreeID = treeID
				c.Ordinal = ord
				ord++
				top.AppendChild(c)
			case '[':
				const open = "CDATA["
				for i := 0; i < len(open); i++ {
					if b, ok = p.mustgetc(); !ok {
						return nil, p.err
					}
					if b != open[i] {
						p.syntax("invalid <![ sequence")
						return nil, p.err
					}
				}
				data, ok := p.text(-1, true)
				if !ok {
					return nil, p.fail()
				}
				if !appendText(data) {
					return nil, p.err
				}
			default:
				// The byte after "<!" is part of the directive body but
				// carries no scanning semantics — not even '>' ends a
				// directive there — so it is consumed and dropped.
				if !p.skipDirective() {
					return nil, p.err
				}
			}

		default:
			// Start element.
			p.ungetc(b)
			name, ok := p.rawName()
			if !ok || !name.ok {
				p.syntax("expected element name after <")
				return nil, p.err
			}
			p.attrs = p.attrs[:0]
			empty := false
			for {
				p.space()
				if b, ok = p.mustgetc(); !ok {
					return nil, p.err
				}
				if b == '/' {
					if b, ok = p.mustgetc(); !ok {
						return nil, p.err
					}
					if b != '>' {
						p.syntax("expected /> in element")
						return nil, p.err
					}
					empty = true
					break
				}
				if b == '>' {
					break
				}
				p.ungetc(b)
				aname, ok := p.rawName()
				if !ok || !aname.ok {
					p.syntax("expected attribute name in element")
					return nil, p.err
				}
				p.space()
				if b, ok = p.mustgetc(); !ok {
					return nil, p.err
				}
				if b != '=' {
					p.syntax("attribute name without = in element")
					return nil, p.err
				}
				p.space()
				if b, ok = p.mustgetc(); !ok {
					return nil, p.err
				}
				if b != '"' && b != '\'' {
					p.syntax("unquoted or missing attribute value in element")
					return nil, p.err
				}
				val, ok := p.text(int(b), false)
				if !ok {
					return nil, p.fail()
				}
				p.attrs = append(p.attrs, savedAttr{name: aname, val: string(val)})
			}

			// Namespace bindings from this tag apply to its own name
			// and attributes, so process declarations first.
			nsMark := len(p.nsUndo)
			for _, a := range p.attrs {
				if a.name.space == "xmlns" {
					p.bindNS(a.name.local, a.val)
				} else if a.name.space == "" && a.name.local == "xmlns" {
					p.bindNS("", a.val)
				}
			}

			el := p.newNode()
			el.Kind = xdm.ElementNode
			el.Name = xdm.QName{
				Space: p.resolveSpace(name.space, name.local, true),
				Local: name.local,
			}
			el.TreeID = treeID
			el.Ordinal = ord
			ord++
			for _, a := range p.attrs {
				if a.name.space == "xmlns" || (a.name.space == "" && a.name.local == "xmlns") {
					continue // namespace declarations are not attribute nodes
				}
				an := p.newNode()
				an.Kind = xdm.AttributeNode
				an.Name = xdm.QName{
					Space: p.resolveSpace(a.name.space, a.name.local, false),
					Local: a.name.local,
				}
				an.Text = a.val
				an.TreeID = treeID
				an.Ordinal = ord
				ord++
				el.AppendAttr(an)
			}
			top.AppendChild(el)
			stack = append(stack, openElem{node: el, name: name, nsMark: nsMark})
			top = el
			if len(stack) > maxDepth {
				return nil, fmt.Errorf("xml parse: nesting exceeds %d levels: %w", maxDepth, ErrLimit)
			}
			if empty {
				closeElem()
			}
		}
	}

	roots := 0
	for _, c := range doc.Children {
		if c.Kind == xdm.ElementNode {
			roots++
		}
	}
	if roots != 1 {
		return nil, fmt.Errorf("xml parse: document must have exactly one root element, found %d", roots)
	}
	return doc, nil
}

// allSpace reports whether data is entirely Unicode whitespace — the
// boundary-whitespace stripping test collection loading applies.
func allSpace(data []byte) bool {
	for i := 0; i < len(data); {
		c := data[i]
		if c < utf8.RuneSelf {
			if c != ' ' && c != '\t' && c != '\n' && c != '\r' && c != '\v' && c != '\f' {
				return false
			}
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if !unicode.IsSpace(r) {
			return false
		}
		i += size
	}
	return true
}
