// Package parser implements a recursive-descent parser for the SQL2
// subset of the paper: query specifications, query expressions with
// INTERSECT/EXCEPT [ALL], positive existential subqueries, host
// variables, and CREATE TABLE statements with PRIMARY KEY, UNIQUE, and
// CHECK table constraints.
package parser

import (
	"fmt"
	"strconv"

	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/lexer"
	"uniqopt/internal/sql/token"
)

// Error is a syntax error with source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("parse error at %s: %s", e.Pos, e.Msg) }

type parser struct {
	toks []token.Token
	pos  int
}

// ParseStatement parses a single SQL statement (query or CREATE TABLE),
// allowing a trailing semicolon.
func ParseStatement(src string) (ast.Statement, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return parseStatement(toks)
}

// ParseLifted parses a query or INSERT with every literal operand
// lifted (lexer.TokenizeLifted): the AST carries the reserved host
// variable $n where the n-th literal stood, so it describes the
// statement's shape rather than one text. A syntax error is reported
// against the statement as written — the unlifted tokens are re-parsed
// on that cold path, so a message that names a literal token shows the
// user's literal, not its placeholder.
func ParseLifted(src string) (ast.Statement, error) {
	toks, err := lexer.TokenizeLifted(src)
	if err != nil {
		return nil, err
	}
	st, err := parseStatement(toks)
	if err != nil {
		if _, werr := ParseStatement(src); werr != nil {
			return nil, werr
		}
	}
	return st, err
}

func parseStatement(toks []token.Token) (ast.Statement, error) {
	p := &parser{toks: toks}
	st, err := p.statement()
	if err != nil {
		return nil, err
	}
	p.accept(token.Semicolon)
	if err := p.expect(token.EOF); err != nil {
		return nil, err
	}
	return st, nil
}

// ParseQuery parses a query specification or query expression.
func ParseQuery(src string) (ast.Query, error) {
	st, err := ParseStatement(src)
	if err != nil {
		return nil, err
	}
	q, ok := st.(ast.Query)
	if !ok {
		return nil, fmt.Errorf("parser: statement is %T, not a query", st)
	}
	return q, nil
}

// ParseSelect parses a single query specification (no set operators).
func ParseSelect(src string) (*ast.Select, error) {
	q, err := ParseQuery(src)
	if err != nil {
		return nil, err
	}
	s, ok := q.(*ast.Select)
	if !ok {
		return nil, fmt.Errorf("parser: query is a set operation, not a query specification")
	}
	return s, nil
}

// ParseExpr parses a standalone boolean expression (used by tests and
// by the CHECK-constraint loader).
func ParseExpr(src string) (ast.Expr, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(token.EOF); err != nil {
		return nil, err
	}
	return e, nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(src string) ([]ast.Statement, error) {
	p, err := newParser(src)
	if err != nil {
		return nil, err
	}
	var out []ast.Statement
	for {
		for p.accept(token.Semicolon) {
		}
		if p.at(token.EOF) {
			return out, nil
		}
		st, err := p.statement()
		if err != nil {
			return nil, err
		}
		out = append(out, st)
		if !p.accept(token.Semicolon) && !p.at(token.EOF) {
			return nil, p.errorf("expected ';' or end of input, found %s", p.cur())
		}
	}
}

func newParser(src string) (*parser, error) {
	toks, err := lexer.Tokenize(src)
	if err != nil {
		return nil, err
	}
	return &parser{toks: toks}, nil
}

func (p *parser) cur() token.Token     { return p.toks[p.pos] }
func (p *parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(k token.Kind) error {
	if !p.accept(k) {
		return p.errorf("expected %s, found %s", k, p.cur())
	}
	return nil
}

func (p *parser) errorf(format string, args ...any) error {
	return &Error{Pos: p.cur().Pos, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) ident() (string, error) {
	if !p.at(token.Ident) {
		return "", p.errorf("expected identifier, found %s", p.cur())
	}
	t := p.cur()
	p.pos++
	return t.Text, nil
}

// statement parses a query, CREATE TABLE, or INSERT.
func (p *parser) statement() (ast.Statement, error) {
	switch p.cur().Kind {
	case token.KwCreate:
		return p.createTable()
	case token.KwInsert:
		return p.insertStmt()
	case token.KwSelect:
		q, err := p.queryExpr()
		if err != nil {
			return nil, err
		}
		return q.(ast.Statement), nil
	default:
		return nil, p.errorf("expected SELECT, CREATE, or INSERT, found %s", p.cur())
	}
}

// insertStmt parses INSERT INTO table VALUES (v, …) [, (v, …)]….
// Values are literals or host variables; general expressions are not
// part of the subset.
func (p *parser) insertStmt() (*ast.Insert, error) {
	if err := p.expect(token.KwInsert); err != nil {
		return nil, err
	}
	if err := p.expect(token.KwInto); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expect(token.KwValues); err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name}
	for {
		if err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		var row []ast.Expr
		for {
			v, err := p.insertValue()
			if err != nil {
				return nil, err
			}
			row = append(row, v)
			if !p.accept(token.Comma) {
				break
			}
		}
		if err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		ins.Rows = append(ins.Rows, row)
		if !p.accept(token.Comma) {
			break
		}
	}
	return ins, nil
}

// insertValue parses one VALUES element: an integer, string, or
// boolean literal, NULL, or a host variable.
func (p *parser) insertValue() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Number:
		p.pos++
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: "integer literal out of range"}
		}
		return &ast.IntLit{V: v}, nil
	case token.String:
		p.pos++
		return &ast.StringLit{V: t.Text}, nil
	case token.KwTrue:
		p.pos++
		return &ast.BoolLit{V: true}, nil
	case token.KwFalse:
		p.pos++
		return &ast.BoolLit{V: false}, nil
	case token.KwNull:
		p.pos++
		return &ast.NullLit{}, nil
	case token.HostVar:
		p.pos++
		return &ast.HostVar{Name: t.Text, Pos: t.Pos}, nil
	default:
		return nil, p.errorf("expected a literal, NULL, or host variable, found %s", t)
	}
}

// queryExpr parses selectSpec [INTERSECT|EXCEPT [ALL] selectSpec].
func (p *parser) queryExpr() (ast.Query, error) {
	left, err := p.selectSpec()
	if err != nil {
		return nil, err
	}
	var op ast.SetOpKind
	switch {
	case p.accept(token.KwIntersect):
		op = ast.Intersect
	case p.accept(token.KwExcept):
		op = ast.Except
	default:
		return left, nil
	}
	all := p.accept(token.KwAll)
	right, err := p.selectSpec()
	if err != nil {
		return nil, err
	}
	if p.at(token.KwIntersect) || p.at(token.KwExcept) {
		return nil, p.errorf("at most one set operator is supported")
	}
	return &ast.SetOp{Op: op, All: all, Left: left, Right: right}, nil
}

func (p *parser) selectSpec() (*ast.Select, error) {
	if err := p.expect(token.KwSelect); err != nil {
		return nil, err
	}
	s := &ast.Select{Quant: ast.QuantDefault}
	switch {
	case p.accept(token.KwAll):
		s.Quant = ast.QuantAll
	case p.accept(token.KwDistinct):
		s.Quant = ast.QuantDistinct
	}
	items, err := p.selectItems()
	if err != nil {
		return nil, err
	}
	s.Items = items
	if err := p.expect(token.KwFrom); err != nil {
		return nil, err
	}
	for {
		tr, err := p.tableRef()
		if err != nil {
			return nil, err
		}
		s.From = append(s.From, tr)
		if !p.accept(token.Comma) {
			break
		}
	}
	if p.accept(token.KwWhere) {
		w, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		s.Where = w
	}
	return s, nil
}

func (p *parser) selectItems() ([]ast.SelectItem, error) {
	var items []ast.SelectItem
	for {
		it, err := p.selectItem()
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		if !p.accept(token.Comma) {
			return items, nil
		}
	}
}

func (p *parser) selectItem() (ast.SelectItem, error) {
	if p.accept(token.Star) {
		return ast.SelectItem{Star: true}, nil
	}
	if !p.at(token.Ident) {
		return ast.SelectItem{}, p.errorf("expected column reference or *, found %s", p.cur())
	}
	name := p.cur().Text
	pos := p.cur().Pos
	p.pos++
	if p.accept(token.Dot) {
		if p.accept(token.Star) {
			return ast.SelectItem{Star: true, StarQualifier: name}, nil
		}
		col, err := p.ident()
		if err != nil {
			return ast.SelectItem{}, err
		}
		return ast.SelectItem{Expr: &ast.ColumnRef{Qualifier: name, Column: col, Pos: pos}}, nil
	}
	return ast.SelectItem{Expr: &ast.ColumnRef{Column: name, Pos: pos}}, nil
}

func (p *parser) tableRef() (ast.TableRef, error) {
	name, err := p.ident()
	if err != nil {
		return ast.TableRef{}, err
	}
	tr := ast.TableRef{Table: name}
	if p.accept(token.KwAs) {
		alias, err := p.ident()
		if err != nil {
			return ast.TableRef{}, err
		}
		tr.Alias = alias
	} else if p.at(token.Ident) {
		tr.Alias = p.cur().Text
		p.pos++
	}
	return tr, nil
}

// orExpr := andExpr { OR andExpr }
func (p *parser) orExpr() (ast.Expr, error) {
	left, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(token.KwOr) {
		right, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.Or{L: left, R: right}
	}
	return left, nil
}

// andExpr := notExpr { AND notExpr }
func (p *parser) andExpr() (ast.Expr, error) {
	left, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(token.KwAnd) {
		right, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		left = &ast.And{L: left, R: right}
	}
	return left, nil
}

// notExpr := NOT notExpr | predicate
func (p *parser) notExpr() (ast.Expr, error) {
	if p.accept(token.KwNot) {
		// NOT EXISTS is folded into the Exists node.
		if p.at(token.KwExists) {
			e, err := p.exists()
			if err != nil {
				return nil, err
			}
			e.(*ast.Exists).Negated = true
			return e, nil
		}
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return &ast.Not{X: x}, nil
	}
	return p.predicate()
}

// predicate parses EXISTS, a parenthesized boolean expression, or an
// atomic comparison/BETWEEN/IN/IS NULL predicate.
func (p *parser) predicate() (ast.Expr, error) {
	if p.at(token.KwExists) {
		return p.exists()
	}
	if p.accept(token.LParen) {
		e, err := p.orExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return e, nil
	}
	x, err := p.operand()
	if err != nil {
		return nil, err
	}
	return p.predicateTail(x)
}

func (p *parser) exists() (ast.Expr, error) {
	if err := p.expect(token.KwExists); err != nil {
		return nil, err
	}
	if err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	sub, err := p.selectSpec()
	if err != nil {
		return nil, err
	}
	if err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return &ast.Exists{Query: sub}, nil
}

func (p *parser) predicateTail(x ast.Expr) (ast.Expr, error) {
	// A bare TRUE/FALSE literal is itself a predicate.
	if _, isBool := x.(*ast.BoolLit); isBool {
		switch p.cur().Kind {
		case token.Eq, token.NotEq, token.Lt, token.LtEq, token.Gt, token.GtEq:
		default:
			return x, nil
		}
	}
	negated := false
	if p.at(token.KwNot) {
		// X NOT BETWEEN / X NOT IN
		next := p.toks[p.pos+1].Kind
		if next == token.KwBetween || next == token.KwIn {
			p.pos++
			negated = true
		}
	}
	switch {
	case p.accept(token.KwBetween):
		lo, err := p.operand()
		if err != nil {
			return nil, err
		}
		if err := p.expect(token.KwAnd); err != nil {
			return nil, err
		}
		hi, err := p.operand()
		if err != nil {
			return nil, err
		}
		return &ast.Between{X: x, Lo: lo, Hi: hi, Negated: negated}, nil
	case p.accept(token.KwIn):
		if err := p.expect(token.LParen); err != nil {
			return nil, err
		}
		if p.at(token.KwSelect) {
			sub, err := p.selectSpec()
			if err != nil {
				return nil, err
			}
			if err := p.expect(token.RParen); err != nil {
				return nil, err
			}
			return &ast.InSubquery{X: x, Query: sub, Negated: negated}, nil
		}
		var list []ast.Expr
		for {
			it, err := p.operand()
			if err != nil {
				return nil, err
			}
			list = append(list, it)
			if !p.accept(token.Comma) {
				break
			}
		}
		if err := p.expect(token.RParen); err != nil {
			return nil, err
		}
		return &ast.InList{X: x, List: list, Negated: negated}, nil
	case p.accept(token.KwIs):
		neg := p.accept(token.KwNot)
		if err := p.expect(token.KwNull); err != nil {
			return nil, err
		}
		return &ast.IsNull{X: x, Negated: neg}, nil
	}
	var op ast.CompareOp
	switch {
	case p.accept(token.Eq):
		op = ast.EqOp
	case p.accept(token.NotEq):
		op = ast.NeOp
	case p.accept(token.Lt):
		op = ast.LtOp
	case p.accept(token.LtEq):
		op = ast.LeOp
	case p.accept(token.Gt):
		op = ast.GtOp
	case p.accept(token.GtEq):
		op = ast.GeOp
	default:
		return nil, p.errorf("expected comparison operator, BETWEEN, IN, or IS, found %s", p.cur())
	}
	y, err := p.operand()
	if err != nil {
		return nil, err
	}
	return &ast.Compare{Op: op, L: x, R: y}, nil
}

// operand := columnRef | literal | hostvar
func (p *parser) operand() (ast.Expr, error) {
	t := p.cur()
	switch t.Kind {
	case token.Ident:
		p.pos++
		if p.accept(token.Dot) {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			return &ast.ColumnRef{Qualifier: t.Text, Column: col, Pos: t.Pos}, nil
		}
		return &ast.ColumnRef{Column: t.Text, Pos: t.Pos}, nil
	case token.Number:
		p.pos++
		v, err := strconv.ParseInt(t.Text, 10, 64)
		if err != nil {
			return nil, &Error{Pos: t.Pos, Msg: "integer literal out of range"}
		}
		return &ast.IntLit{V: v}, nil
	case token.String:
		p.pos++
		return &ast.StringLit{V: t.Text}, nil
	case token.KwTrue:
		p.pos++
		return &ast.BoolLit{V: true}, nil
	case token.KwFalse:
		p.pos++
		return &ast.BoolLit{V: false}, nil
	case token.KwNull:
		p.pos++
		return &ast.NullLit{}, nil
	case token.HostVar:
		p.pos++
		return &ast.HostVar{Name: t.Text, Pos: t.Pos}, nil
	default:
		return nil, p.errorf("expected operand, found %s", t)
	}
}

// createTable parses CREATE TABLE name (elements...).
func (p *parser) createTable() (*ast.CreateTable, error) {
	if err := p.expect(token.KwCreate); err != nil {
		return nil, err
	}
	if err := p.expect(token.KwTable); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct := &ast.CreateTable{Name: name}
	if err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	for {
		if err := p.tableElement(ct); err != nil {
			return nil, err
		}
		if !p.accept(token.Comma) {
			break
		}
	}
	if err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) tableElement(ct *ast.CreateTable) error {
	switch p.cur().Kind {
	case token.KwPrimary:
		p.pos++
		if err := p.expect(token.KwKey); err != nil {
			return err
		}
		cols, err := p.identList()
		if err != nil {
			return err
		}
		ct.Keys = append(ct.Keys, ast.KeyDef{Columns: cols, Primary: true})
		return nil
	case token.KwUnique:
		p.pos++
		cols, err := p.identList()
		if err != nil {
			return err
		}
		ct.Keys = append(ct.Keys, ast.KeyDef{Columns: cols})
		return nil
	case token.KwForeign:
		p.pos++
		if err := p.expect(token.KwKey); err != nil {
			return err
		}
		cols, err := p.identList()
		if err != nil {
			return err
		}
		if err := p.expect(token.KwReferences); err != nil {
			return err
		}
		refTable, err := p.ident()
		if err != nil {
			return err
		}
		refCols, err := p.identList()
		if err != nil {
			return err
		}
		ct.ForeignKeys = append(ct.ForeignKeys, ast.ForeignKeyDef{
			Columns: cols, RefTable: refTable, RefColumns: refCols})
		return nil
	case token.KwCheck:
		p.pos++
		if err := p.expect(token.LParen); err != nil {
			return err
		}
		e, err := p.orExpr()
		if err != nil {
			return err
		}
		if err := p.expect(token.RParen); err != nil {
			return err
		}
		ct.Checks = append(ct.Checks, e)
		return nil
	case token.Ident:
		return p.columnDef(ct)
	default:
		return p.errorf("expected column definition or table constraint, found %s", p.cur())
	}
}

func (p *parser) columnDef(ct *ast.CreateTable) error {
	name, err := p.ident()
	if err != nil {
		return err
	}
	var typ ast.TypeName
	switch {
	case p.accept(token.KwInteger):
		typ = ast.TypeInteger
	case p.accept(token.KwVarchar):
		typ = ast.TypeVarchar
		// Optional length: VARCHAR(30). The length is accepted and
		// ignored — the engine does not enforce string lengths.
		if p.accept(token.LParen) {
			if err := p.expect(token.Number); err != nil {
				return err
			}
			if err := p.expect(token.RParen); err != nil {
				return err
			}
		}
	case p.accept(token.KwBoolean):
		typ = ast.TypeBoolean
	default:
		return p.errorf("expected column type, found %s", p.cur())
	}
	col := ast.ColumnDef{Name: name, Type: typ}
	if p.at(token.KwNot) && p.toks[p.pos+1].Kind == token.KwNull {
		p.pos += 2
		col.NotNull = true
	}
	ct.Columns = append(ct.Columns, col)
	return nil
}

func (p *parser) identList() ([]string, error) {
	if err := p.expect(token.LParen); err != nil {
		return nil, err
	}
	var cols []string
	for {
		c, err := p.ident()
		if err != nil {
			return nil, err
		}
		cols = append(cols, c)
		if !p.accept(token.Comma) {
			break
		}
	}
	if err := p.expect(token.RParen); err != nil {
		return nil, err
	}
	return cols, nil
}
