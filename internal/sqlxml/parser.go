package sqlxml

import (
	"strconv"
	"strings"
	"unicode"

	"github.com/xqdb/xqdb/internal/storage"
	"github.com/xqdb/xqdb/internal/xdm"
	"github.com/xqdb/xqdb/internal/xmlindex"
	"github.com/xqdb/xqdb/internal/xquery"
)

// sqlParser is a recursive-descent parser with one token of lookahead.
type sqlParser struct {
	lx  *sqlLexer
	tok sqlToken
}

// Parse parses one SQL statement (a trailing semicolon is allowed).
func Parse(src string) (Statement, error) {
	p := &sqlParser{lx: &sqlLexer{src: src}}
	if err := p.advance(); err != nil {
		return nil, err
	}
	stmt, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	if p.isSym(";") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind != sqlEOF {
		return nil, p.errf("unexpected %q after statement", p.tok.value)
	}
	return stmt, nil
}

// statementHeads maps each keyword that starts a statement
// parseStatement accepts to whether caching the statement's plan pays
// off: reads repeat, writes and DDL are one-shot and would only occupy
// a plan-cache slot.
var statementHeads = map[string]bool{
	"select": true, "values": true, "explain": true,
	"create": false, "drop": false, "insert": false, "delete": false,
}

// Sniff classifies a statement by its first keyword, which any
// whitespace ends: whether it is SQL/XML (callers that sniff the
// language treat anything else as XQuery), and whether its plan is
// worth caching.
func Sniff(src string) (isSQL, preparable bool) {
	head := strings.TrimLeftFunc(src, unicode.IsSpace)
	if i := strings.IndexFunc(head, unicode.IsSpace); i >= 0 {
		head = head[:i]
	}
	preparable, isSQL = statementHeads[strings.ToLower(head)]
	return isSQL, preparable
}

func (p *sqlParser) errf(format string, args ...any) error {
	return sqlErr(p.lx.src, p.tok.pos, format, args...)
}

func (p *sqlParser) advance() error {
	t, err := p.lx.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

// isKw matches an unquoted identifier case-insensitively.
func (p *sqlParser) isKw(kw string) bool {
	return p.tok.kind == sqlIdent && strings.EqualFold(p.tok.value, kw)
}

func (p *sqlParser) isSym(s string) bool { return p.tok.kind == sqlSym && p.tok.value == s }

func (p *sqlParser) expectKw(kw string) error {
	if !p.isKw(kw) {
		return p.errf("expected %s, found %q", strings.ToUpper(kw), p.tok.value)
	}
	return p.advance()
}

func (p *sqlParser) expectSym(s string) error {
	if !p.isSym(s) {
		return p.errf("expected %q, found %q", s, p.tok.value)
	}
	return p.advance()
}

// ident consumes an identifier (regular or delimited) and returns its
// name (regular identifiers fold to lower case).
func (p *sqlParser) ident() (string, error) {
	switch p.tok.kind {
	case sqlIdent:
		v := strings.ToLower(p.tok.value)
		return v, p.advance()
	case sqlQuotedIdent:
		v := p.tok.value
		return v, p.advance()
	}
	return "", p.errf("expected identifier, found %q", p.tok.value)
}

func (p *sqlParser) stringLit() (string, error) {
	if p.tok.kind != sqlString {
		return "", p.errf("expected string literal, found %q", p.tok.value)
	}
	v := p.tok.value
	return v, p.advance()
}

func (p *sqlParser) parseStatement() (Statement, error) {
	switch {
	case p.isKw("explain"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		if _, ok := inner.(*Explain); ok {
			return nil, p.errf("EXPLAIN cannot be nested")
		}
		return &Explain{Stmt: inner}, nil
	case p.isKw("create"):
		return p.parseCreate()
	case p.isKw("insert"):
		return p.parseInsert()
	case p.isKw("select"):
		return p.parseSelect()
	case p.isKw("delete"):
		return p.parseDelete()
	case p.isKw("drop"):
		return p.parseDrop()
	case p.isKw("values"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var exprs []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			exprs = append(exprs, e)
			if !p.isSym(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return &Values{Exprs: exprs}, nil
	}
	return nil, p.errf("expected a statement, found %q", p.tok.value)
}

func (p *sqlParser) parseCreate() (Statement, error) {
	if err := p.advance(); err != nil { // CREATE
		return nil, err
	}
	switch {
	case p.isKw("table"):
		return p.parseCreateTable()
	case p.isKw("index") || p.isKw("unique"):
		return p.parseCreateIndex()
	}
	return nil, p.errf("expected TABLE or INDEX after CREATE")
}

func (p *sqlParser) parseCreateTable() (Statement, error) {
	if err := p.advance(); err != nil { // TABLE
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	ct := &CreateTable{Name: name}
	for {
		colName, err := p.ident()
		if err != nil {
			return nil, err
		}
		col, err := p.parseColumnType(colName)
		if err != nil {
			return nil, err
		}
		ct.Columns = append(ct.Columns, col)
		if !p.isSym(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *sqlParser) parseColumnType(colName string) (storage.Column, error) {
	var col storage.Column
	col.Name = colName
	tn, err := p.ident()
	if err != nil {
		return col, err
	}
	switch tn {
	case "int":
		tn = "integer"
	case "dec", "numeric":
		tn = "decimal"
	}
	t, ok := storage.ColumnTypeByName(tn)
	if !ok {
		return col, p.errf("unknown column type %q", tn)
	}
	col.Type = t
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return col, err
		}
		if p.tok.kind != sqlNumber {
			return col, p.errf("expected length, found %q", p.tok.value)
		}
		n, err := strconv.Atoi(p.tok.value)
		if err != nil {
			return col, p.errf("bad length %q", p.tok.value)
		}
		col.Size = n
		if err := p.advance(); err != nil {
			return col, err
		}
		if p.isSym(",") { // DECIMAL(6,3): scale parsed and ignored
			if err := p.advance(); err != nil {
				return col, err
			}
			if p.tok.kind != sqlNumber {
				return col, p.errf("expected scale")
			}
			if err := p.advance(); err != nil {
				return col, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return col, err
		}
	}
	return col, nil
}

func (p *sqlParser) parseCreateIndex() (Statement, error) {
	if p.isKw("unique") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("index"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("on"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ci := &CreateIndex{Name: name, Table: table}
	// Accept both orders(orddoc) and the paper's orders.orddoc form.
	switch {
	case p.isSym("("):
		if err := p.advance(); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Column = col
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	case p.isSym("."):
		if err := p.advance(); err != nil {
			return nil, err
		}
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Column = col
	default:
		return nil, p.errf("expected (column) after table name")
	}
	if p.isKw("using") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("xmlpattern"); err != nil {
			return nil, err
		}
		pat, err := p.stringLit()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		tn, err := p.ident()
		if err != nil {
			return nil, err
		}
		t, ok := xmlindex.TypeByName(tn)
		if !ok {
			return nil, p.errf("unknown XML index type %q (want varchar, double, date, or timestamp)", tn)
		}
		// An optional varchar length is accepted and ignored.
		if p.isSym("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != sqlNumber {
				return nil, p.errf("expected length")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		}
		ci.IsXML = true
		ci.Pattern = pat
		ci.XMLType = t
	}
	return ci, nil
}

func (p *sqlParser) parseInsert() (Statement, error) {
	if err := p.advance(); err != nil { // INSERT
		return nil, err
	}
	if err := p.expectKw("into"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &Insert{Table: table}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.isSym(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("values"); err != nil {
		return nil, err
	}
	for {
		if err := p.expectSym("("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.isSym(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.isSym(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	return ins, nil
}

func (p *sqlParser) parseSelect() (Statement, error) {
	if err := p.advance(); err != nil { // SELECT
		return nil, err
	}
	sel := &Select{}
	for {
		if p.isSym("*") {
			sel.Items = append(sel.Items, SelectItem{Star: true})
			if err := p.advance(); err != nil {
				return nil, err
			}
		} else {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := SelectItem{Expr: e}
			if p.isKw("as") {
				if err := p.advance(); err != nil {
					return nil, err
				}
				a, err := p.ident()
				if err != nil {
					return nil, err
				}
				item.Alias = a
			}
			sel.Items = append(sel.Items, item)
		}
		if !p.isSym(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	for {
		fi, err := p.parseFromItem()
		if err != nil {
			return nil, err
		}
		sel.From = append(sel.From, fi)
		if !p.isSym(",") {
			break
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.isKw("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	sel.Limit = -1
	if p.isKw("order") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("by"); err != nil {
			return nil, err
		}
		for {
			item := OrderItem{}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item.Expr = e
			switch {
			case p.isKw("desc") || p.isKw("descending"):
				item.Desc = true
				if err := p.advance(); err != nil {
					return nil, err
				}
			case p.isKw("asc") || p.isKw("ascending"):
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.isSym(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	// LIMIT n, or the standard FETCH FIRST n ROWS ONLY.
	switch {
	case p.isKw("limit"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
	case p.isKw("fetch"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		if err := p.expectKw("first"); err != nil {
			return nil, err
		}
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		sel.Limit = n
		if p.isKw("rows") || p.isKw("row") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if p.isKw("only") {
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	return sel, nil
}

func (p *sqlParser) intLit() (int, error) {
	if p.tok.kind != sqlNumber {
		return 0, p.errf("expected a number, found %q", p.tok.value)
	}
	n, err := strconv.Atoi(p.tok.value)
	if err != nil {
		return 0, p.errf("bad number %q", p.tok.value)
	}
	return n, p.advance()
}

func (p *sqlParser) parseDelete() (Statement, error) {
	if err := p.advance(); err != nil { // DELETE
		return nil, err
	}
	if err := p.expectKw("from"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	d := &Delete{Table: table}
	if p.isKw("where") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		d.Where = w
	}
	return d, nil
}

func (p *sqlParser) parseDrop() (Statement, error) {
	if err := p.advance(); err != nil { // DROP
		return nil, err
	}
	switch {
	case p.isKw("table"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropTable{Name: name}, nil
	case p.isKw("index"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &DropIndex{Name: name}, nil
	}
	return nil, p.errf("expected TABLE or INDEX after DROP")
}

func (p *sqlParser) parseFromItem() (FromItem, error) {
	if p.isKw("xmltable") {
		return p.parseXMLTable()
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ft := &FromTable{Table: name, Alias: name}
	if p.isKw("as") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind == sqlIdent && !p.isFromTerminator() {
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		ft.Alias = alias
	}
	return ft, nil
}

// isFromTerminator reports whether the current identifier is a clause
// keyword rather than a table alias.
func (p *sqlParser) isFromTerminator() bool {
	for _, kw := range []string{"where", "group", "order", "having", "union", "limit"} {
		if p.isKw(kw) {
			return true
		}
	}
	return false
}

func (p *sqlParser) parseXMLTable() (FromItem, error) {
	if err := p.advance(); err != nil { // XMLTABLE
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	rowQuery, err := p.stringLit()
	if err != nil {
		return nil, err
	}
	xt := &FromXMLTable{RowQuery: rowQuery}
	xt.RowModule, err = xquery.Parse(rowQuery)
	if err != nil {
		return nil, p.errf("XMLTable row expression: %v", err)
	}
	if p.isKw("passing") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		xt.Passing, err = p.parsePassing()
		if err != nil {
			return nil, err
		}
	}
	if p.isKw("columns") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		for {
			col, err := p.parseXMLTableColumn()
			if err != nil {
				return nil, err
			}
			xt.Columns = append(xt.Columns, col)
			if !p.isSym(",") {
				break
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if p.isKw("as") {
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
	if p.tok.kind == sqlIdent || p.tok.kind == sqlQuotedIdent {
		alias, err := p.ident()
		if err != nil {
			return nil, err
		}
		xt.Alias = alias
		if p.isSym("(") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			for {
				cn, err := p.ident()
				if err != nil {
					return nil, err
				}
				xt.ColNames = append(xt.ColNames, cn)
				if !p.isSym(",") {
					break
				}
				if err := p.advance(); err != nil {
					return nil, err
				}
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
		}
	}
	return xt, nil
}

func (p *sqlParser) parseXMLTableColumn() (XMLTableColumn, error) {
	var col XMLTableColumn
	name, err := p.ident()
	if err != nil {
		return col, err
	}
	col.Name = name
	if p.isKw("for") {
		if err := p.advance(); err != nil {
			return col, err
		}
		if err := p.expectKw("ordinality"); err != nil {
			return col, err
		}
		col.Ordinality = true
		col.Type = storage.Integer
		return col, nil
	}
	if p.isKw("xml") {
		if err := p.advance(); err != nil {
			return col, err
		}
		col.Type = storage.XML
		if p.isKw("by") {
			if err := p.advance(); err != nil {
				return col, err
			}
			switch {
			case p.isKw("ref"):
				col.ByRef = true
			case p.isKw("value"):
			default:
				return col, p.errf("expected REF or VALUE after BY")
			}
			if err := p.advance(); err != nil {
				return col, err
			}
		}
	} else {
		c, err := p.parseColumnType(name)
		if err != nil {
			return col, err
		}
		col.Type = c.Type
		col.Size = c.Size
	}
	if err := p.expectKw("path"); err != nil {
		return col, err
	}
	path, err := p.stringLit()
	if err != nil {
		return col, err
	}
	col.Path = path
	col.PathModule, err = xquery.Parse(path)
	if err != nil {
		return col, p.errf("XMLTable column %s path: %v", name, err)
	}
	return col, nil
}

func (p *sqlParser) parsePassing() ([]PassItem, error) {
	var items []PassItem
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectKw("as"); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		items = append(items, PassItem{Expr: e, As: name})
		if !p.isSym(",") {
			return items, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

// parseExpr parses OR-expressions.
func (p *sqlParser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.isKw("or") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &Logical{Op: "or", Left: left, Right: right}
	}
	return left, nil
}

func (p *sqlParser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.isKw("and") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &Logical{Op: "and", Left: left, Right: right}
	}
	return left, nil
}

func (p *sqlParser) parseNot() (Expr, error) {
	if p.isKw("not") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &Not{Operand: e}, nil
	}
	return p.parseComparison()
}

var sqlCompareOps = map[string]xdm.CompareOp{
	"=": xdm.OpEq, "<>": xdm.OpNe, "!=": xdm.OpNe,
	"<": xdm.OpLt, "<=": xdm.OpLe, ">": xdm.OpGt, ">=": xdm.OpGe,
}

func (p *sqlParser) parseComparison() (Expr, error) {
	left, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	if p.tok.kind == sqlSym {
		if op, ok := sqlCompareOps[p.tok.value]; ok {
			if err := p.advance(); err != nil {
				return nil, err
			}
			right, err := p.parsePrimary()
			if err != nil {
				return nil, err
			}
			return &Compare{Op: op, Left: left, Right: right}, nil
		}
	}
	if p.isKw("is") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		neg := false
		if p.isKw("not") {
			neg = true
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectKw("null"); err != nil {
			return nil, err
		}
		return &IsNull{Operand: left, Negate: neg}, nil
	}
	return left, nil
}

func (p *sqlParser) parsePrimary() (Expr, error) {
	switch p.tok.kind {
	case sqlNumber:
		v := p.tok.value
		if err := p.advance(); err != nil {
			return nil, err
		}
		if !strings.ContainsAny(v, ".eE") {
			i, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return nil, p.errf("bad integer %q", v)
			}
			return &Literal{V: xdm.NewInteger(i)}, nil
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, p.errf("bad number %q", v)
		}
		return &Literal{V: xdm.NewDouble(f)}, nil
	case sqlString:
		v := p.tok.value
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Literal{V: xdm.NewString(v)}, nil
	}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	switch {
	case p.isKw("null"):
		if err := p.advance(); err != nil {
			return nil, err
		}
		return &Null{}, nil
	case p.isKw("xmlquery"):
		return p.parseXMLFunc(false)
	case p.isKw("xmlexists"):
		return p.parseXMLFunc(true)
	case p.isKw("xmlcast"):
		return p.parseXMLCast()
	case p.isKw("xmlparse"):
		return p.parseXMLParse()
	case p.isKw("xmlserialize"):
		return p.parseXMLSerialize()
	}
	if p.tok.kind == sqlIdent || p.tok.kind == sqlQuotedIdent {
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		cr := &ColRef{Column: name}
		if p.isSym(".") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			cr.Table = name
			cr.Column = col
		}
		return cr, nil
	}
	return nil, p.errf("unexpected token %q in expression", p.tok.value)
}

func (p *sqlParser) parseXMLFunc(exists bool) (Expr, error) {
	if err := p.advance(); err != nil { // XMLQUERY / XMLEXISTS
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	query, err := p.stringLit()
	if err != nil {
		return nil, err
	}
	mod, err := xquery.Parse(query)
	if err != nil {
		return nil, p.errf("embedded XQuery: %v", err)
	}
	var passing []PassItem
	if p.isKw("passing") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		passing, err = p.parsePassing()
		if err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	if exists {
		return &XMLExistsExpr{Query: query, Module: mod, Passing: passing}, nil
	}
	return &XMLQueryExpr{Query: query, Module: mod, Passing: passing}, nil
}

func (p *sqlParser) parseXMLParse() (Expr, error) {
	if err := p.advance(); err != nil { // XMLPARSE
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	if err := p.expectKw("document"); err != nil {
		return nil, err
	}
	operand, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return &XMLParseExpr{Operand: operand}, nil
}

func (p *sqlParser) parseXMLSerialize() (Expr, error) {
	if err := p.advance(); err != nil { // XMLSERIALIZE
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	operand, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	tn, err := p.ident()
	if err != nil {
		return nil, err
	}
	if tn != "varchar" && tn != "clob" {
		return nil, p.errf("XMLSERIALIZE target must be varchar, got %q", tn)
	}
	xs := &XMLSerializeExpr{}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		n, err := p.intLit()
		if err != nil {
			return nil, err
		}
		xs.Size = n
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	xs.Operand = operand
	return xs, nil
}

func (p *sqlParser) parseXMLCast() (Expr, error) {
	if err := p.advance(); err != nil { // XMLCAST
		return nil, err
	}
	if err := p.expectSym("("); err != nil {
		return nil, err
	}
	operand, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expectKw("as"); err != nil {
		return nil, err
	}
	tn, err := p.ident()
	if err != nil {
		return nil, err
	}
	switch tn {
	case "int":
		tn = "integer"
	case "dec", "numeric":
		tn = "decimal"
	}
	t, ok := storage.ColumnTypeByName(tn)
	if !ok {
		return nil, p.errf("unknown SQL type %q in XMLCAST", tn)
	}
	xc := &XMLCastExpr{Operand: operand, Type: t}
	if p.isSym("(") {
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.tok.kind != sqlNumber {
			return nil, p.errf("expected length")
		}
		n, _ := strconv.Atoi(p.tok.value)
		xc.Size = n
		if err := p.advance(); err != nil {
			return nil, err
		}
		if p.isSym(",") {
			if err := p.advance(); err != nil {
				return nil, err
			}
			if p.tok.kind != sqlNumber {
				return nil, p.errf("expected scale")
			}
			if err := p.advance(); err != nil {
				return nil, err
			}
		}
		if err := p.expectSym(")"); err != nil {
			return nil, err
		}
	}
	if err := p.expectSym(")"); err != nil {
		return nil, err
	}
	return xc, nil
}
