package lexer

import (
	"fmt"
	"strings"

	"uniqopt/internal/sql/token"
)

// The reference lexer: the byte-at-a-time scanner the span scanner
// replaced, kept as the specification FuzzShape holds Tokenize and Shape
// to — token kinds, texts and positions, shape strings, literal vectors
// and error texts. It updates the position per byte and looks keywords up
// in a map of its own.

var refKeywords = map[string]token.Kind{
	"SELECT": token.KwSelect, "DISTINCT": token.KwDistinct, "ALL": token.KwAll,
	"FROM": token.KwFrom, "WHERE": token.KwWhere, "AND": token.KwAnd, "OR": token.KwOr,
	"NOT": token.KwNot, "EXISTS": token.KwExists, "BETWEEN": token.KwBetween, "IN": token.KwIn,
	"IS": token.KwIs, "NULL": token.KwNull, "TRUE": token.KwTrue, "FALSE": token.KwFalse,
	"INTERSECT": token.KwIntersect, "EXCEPT": token.KwExcept,
	"CREATE": token.KwCreate, "TABLE": token.KwTable, "PRIMARY": token.KwPrimary,
	"KEY": token.KwKey, "UNIQUE": token.KwUnique, "CHECK": token.KwCheck,
	"CONSTRAINT": token.KwConstraint,
	"FOREIGN":    token.KwForeign, "REFERENCES": token.KwReferences,
	"INTEGER": token.KwInteger, "INT": token.KwInteger, "VARCHAR": token.KwVarchar,
	"CHAR": token.KwVarchar, "BOOLEAN": token.KwBoolean, "AS": token.KwAs,
	"INSERT": token.KwInsert, "INTO": token.KwInto, "VALUES": token.KwValues,
}

type refLexer struct {
	src       string
	off       int
	line, col int
}

func refTokenize(src string) ([]token.Token, error) {
	lx := &refLexer{src: src, line: 1, col: 1}
	var out []token.Token
	for {
		t, err := lx.next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, nil
		}
	}
}

func (l *refLexer) peek() byte {
	if l.off >= len(l.src) {
		return 0
	}
	return l.src[l.off]
}

func (l *refLexer) peek2() byte {
	if l.off+1 >= len(l.src) {
		return 0
	}
	return l.src[l.off+1]
}

func (l *refLexer) advance() byte {
	c := l.src[l.off]
	l.off++
	if c == '\n' {
		l.line++
		l.col = 1
	} else {
		l.col++
	}
	return c
}

func (l *refLexer) pos() token.Pos { return token.Pos{Line: l.line, Col: l.col} }

func (l *refLexer) skipSpaceAndComments() {
	for l.off < len(l.src) {
		switch {
		case isSpace(l.peek()):
			l.advance()
		case l.peek() == '-' && l.peek2() == '-':
			for l.off < len(l.src) && l.peek() != '\n' {
				l.advance()
			}
		default:
			return
		}
	}
}

func (l *refLexer) next() (token.Token, error) {
	l.skipSpaceAndComments()
	pos := l.pos()
	if l.off >= len(l.src) {
		return token.Token{Kind: token.EOF, Pos: pos}, nil
	}
	c := l.peek()
	switch {
	case isIdentStart(c):
		return l.scanIdent(pos), nil
	case isDigit(c):
		return l.scanNumber(pos), nil
	case c == '\'':
		return l.scanString(pos)
	case c == ':':
		return l.scanHostVar(pos)
	}
	l.advance()
	simple := func(k token.Kind, text string) (token.Token, error) {
		return token.Token{Kind: k, Text: text, Pos: pos}, nil
	}
	switch c {
	case '(':
		return simple(token.LParen, "(")
	case ')':
		return simple(token.RParen, ")")
	case ',':
		return simple(token.Comma, ",")
	case ';':
		return simple(token.Semicolon, ";")
	case '*':
		return simple(token.Star, "*")
	case '.':
		return simple(token.Dot, ".")
	case '=':
		return simple(token.Eq, "=")
	case '<':
		if l.peek() == '=' {
			l.advance()
			return simple(token.LtEq, "<=")
		}
		if l.peek() == '>' {
			l.advance()
			return simple(token.NotEq, "<>")
		}
		return simple(token.Lt, "<")
	case '>':
		if l.peek() == '=' {
			l.advance()
			return simple(token.GtEq, ">=")
		}
		return simple(token.Gt, ">")
	case '!':
		if l.peek() == '=' {
			l.advance()
			return simple(token.NotEq, "!=")
		}
	}
	return token.Token{}, &Error{Pos: pos, Msg: fmt.Sprintf("unexpected character %q", c)}
}

func (l *refLexer) scanIdent(pos token.Pos) token.Token {
	start := l.off
	l.advance()
	for l.off < len(l.src) {
		c := l.peek()
		if c == '-' {
			if isIdentCont(l.peek2()) && l.peek2() != '-' {
				l.advance()
				continue
			}
			break
		}
		if !isIdentCont(c) {
			break
		}
		l.advance()
	}
	text := strings.ToUpper(l.src[start:l.off])
	if k, ok := refKeywords[text]; ok {
		return token.Token{Kind: k, Text: text, Pos: pos}
	}
	return token.Token{Kind: token.Ident, Text: text, Pos: pos}
}

func (l *refLexer) scanNumber(pos token.Pos) token.Token {
	start := l.off
	for l.off < len(l.src) && isDigit(l.peek()) {
		l.advance()
	}
	return token.Token{Kind: token.Number, Text: l.src[start:l.off], Pos: pos}
}

func (l *refLexer) scanString(pos token.Pos) (token.Token, error) {
	l.advance() // opening quote
	var sb strings.Builder
	for {
		if l.off >= len(l.src) {
			return token.Token{}, &Error{Pos: pos, Msg: "unterminated string literal"}
		}
		c := l.advance()
		if c == '\'' {
			if l.peek() == '\'' { // escaped quote
				l.advance()
				sb.WriteByte('\'')
				continue
			}
			return token.Token{Kind: token.String, Text: sb.String(), Pos: pos}, nil
		}
		sb.WriteByte(c)
	}
}

func (l *refLexer) scanHostVar(pos token.Pos) (token.Token, error) {
	l.advance() // ':'
	if l.off >= len(l.src) || !isIdentStart(l.peek()) {
		return token.Token{}, &Error{Pos: pos, Msg: "expected identifier after ':'"}
	}
	t := l.scanIdent(l.pos())
	return token.Token{Kind: token.HostVar, Text: t.Text, Pos: pos}, nil
}

// refShape is the shape as it was computed from whole tokens.
func refShape(src string) (shape string, lits []token.Token, err error) {
	lx := &refLexer{src: src, line: 1, col: 1}
	buf := make([]byte, 0, len(src)+16)
	prev := token.EOF
	for {
		t, err := lx.next()
		if err != nil {
			return "", nil, err
		}
		if t.Kind == token.EOF {
			return string(buf), lits, nil
		}
		if prev == token.EOF && t.Kind == token.KwCreate {
			return "", nil, nil
		}
		switch t.Kind {
		case token.RParen, token.Comma, token.Dot, token.Semicolon:
		default:
			if prev != token.EOF && prev != token.LParen && prev != token.Dot {
				buf = append(buf, ' ')
			}
		}
		switch t.Kind {
		case token.Number:
			buf = append(buf, "?int"...)
			lits = append(lits, t)
		case token.String:
			buf = append(buf, "?str"...)
			lits = append(lits, t)
		case token.HostVar:
			buf = append(append(buf, ':'), t.Text...)
		case token.NotEq:
			buf = append(buf, "<>"...)
		default:
			buf = append(buf, t.Text...)
		}
		prev = t.Kind
	}
}
