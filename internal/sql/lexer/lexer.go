// Package lexer tokenizes the SQL2 subset accepted by the parser.
//
// Identifiers and keywords are case-insensitive and are canonicalized
// to upper case, matching the paper's presentation. Identifiers may
// contain '-' after the first character (the paper writes host
// variables and columns like :SUPPLIER-NO and OEM-PNO), which is
// unusual for SQL but faithful to the source. String literals use
// single quotes with ” as the escape.
//
// There is one scanning step, scan, which finds a token's kind and its
// byte span in the source and nothing else. Next wraps a span into a
// token.Token — upper-cased text, keyword kind, decoded string, source
// position — and Shape appends it straight into a shape text, so the
// parser and the statement cache read the same scanner.
package lexer

import (
	"fmt"
	"strings"

	"uniqopt/internal/sql/token"
)

// Error is a lexical error with its source position.
type Error struct {
	Pos token.Pos
	Msg string
}

// Error implements the error interface.
func (e *Error) Error() string { return fmt.Sprintf("lex error at %s: %s", e.Pos, e.Msg) }

// Lexer scans an input string into tokens.
type Lexer struct {
	src string
	off int // where the next scan starts
	// lower reports that the word the last scan found (an identifier,
	// keyword or host-variable name) has a lower-case letter.
	lower bool
	// The position bookkeeping of pos: the line holding the byte at
	// offset at, and the offset that line starts at.
	line, lineStart, at int
}

// New returns a Lexer over src.
func New(src string) *Lexer {
	return &Lexer{src: src, line: 1}
}

// Tokenize scans the entire input and returns all tokens, ending with
// an EOF token.
func Tokenize(src string) ([]token.Token, error) {
	lx := New(src)
	var out []token.Token
	for {
		t, err := lx.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == token.EOF {
			return out, nil
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}
func isIdentCont(c byte) bool { return isIdentStart(c) || isDigit(c) || c == '-' }

// pos returns the source position of the byte at off, counting only the
// newlines between the offset it was last asked about and off. Offsets
// must not decrease from one call to the next, which holds for token
// starts taken in scanning order.
func (l *Lexer) pos(off int) token.Pos {
	seg := l.src[l.at:off]
	if i := strings.LastIndexByte(seg, '\n'); i >= 0 {
		l.line += strings.Count(seg[:i], "\n") + 1
		l.lineStart = l.at + i + 1
	}
	l.at = off
	return token.Pos{Line: l.line, Col: off - l.lineStart + 1}
}

func (l *Lexer) errorAt(off int, msg string) error {
	return &Error{Pos: l.pos(off), Msg: msg}
}

// scan skips whitespace and "--" line comments and finds the next
// token: its kind and its span src[start:end]. Every word, keyword or
// not, is an Ident here; a string's span includes its quotes, a host
// variable's its colon. At the end of the input the kind is EOF and the
// span is empty.
func (l *Lexer) scan() (k token.Kind, start, end int, err error) {
	src, i := l.src, l.off
	for i < len(src) {
		if c := src[i]; isSpace(c) {
			i++
		} else if c == '-' && i+1 < len(src) && src[i+1] == '-' {
			if j := strings.IndexByte(src[i:], '\n'); j >= 0 {
				i += j
			} else {
				i = len(src)
			}
		} else {
			break
		}
	}
	start = i
	if i == len(src) {
		l.off = i
		return token.EOF, i, i, nil
	}
	switch c := src[i]; {
	case isIdentStart(c):
		k, end = token.Ident, l.word(i)
	case isDigit(c):
		end = i + 1
		for end < len(src) && isDigit(src[end]) {
			end++
		}
		k = token.Number
	case c == '\'':
		// The literal ends at the first quote not doubled.
		end = i + 1
		for {
			q := strings.IndexByte(src[end:], '\'')
			if q < 0 {
				return 0, 0, 0, l.errorAt(start, "unterminated string literal")
			}
			end += q + 1
			if end == len(src) || src[end] != '\'' {
				break
			}
			end++
		}
		k = token.String
	case c == ':':
		if i+1 == len(src) || !isIdentStart(src[i+1]) {
			return 0, 0, 0, l.errorAt(start, "expected identifier after ':'")
		}
		k, end = token.HostVar, l.word(i+1)
	default:
		var next byte
		if i+1 < len(src) {
			next = src[i+1]
		}
		k, end = punctuation(c, next), i+1
		switch k {
		case token.LtEq, token.GtEq, token.NotEq:
			end++
		case token.EOF:
			return 0, 0, 0, l.errorAt(start, fmt.Sprintf("unexpected character %q", c))
		}
	}
	l.off = end
	return k, start, end, nil
}

// punctuation is the operator or punctuation token starting with c,
// followed by next; EOF when there is none.
func punctuation(c, next byte) token.Kind {
	switch c {
	case '(':
		return token.LParen
	case ')':
		return token.RParen
	case ',':
		return token.Comma
	case ';':
		return token.Semicolon
	case '*':
		return token.Star
	case '.':
		return token.Dot
	case '=':
		return token.Eq
	case '<':
		switch next {
		case '=':
			return token.LtEq
		case '>':
			return token.NotEq
		}
		return token.Lt
	case '>':
		if next == '=' {
			return token.GtEq
		}
		return token.Gt
	case '!':
		if next == '=' {
			return token.NotEq
		}
	}
	return token.EOF
}

// word returns the end of the identifier starting at i, which is an
// identifier's first character, and notes whether it has a lower-case
// letter. A '-' belongs to the identifier only when another identifier
// character other than '-' follows it, so "A-B" is one identifier but
// "A - B" and "A -- comment" are not.
func (l *Lexer) word(i int) int {
	src, lower := l.src, false
	for ; i < len(src); i++ {
		switch c := src[i]; {
		case c >= 'a' && c <= 'z':
			lower = true
		case c >= 'A' && c <= 'Z', isDigit(c), c == '_':
		case c == '-' && i+1 < len(src) && src[i+1] != '-' && isIdentCont(src[i+1]):
		default:
			l.lower = lower
			return i
		}
	}
	l.lower = lower
	return i
}

// upper is the canonical spelling of the word the last scan found.
func (l *Lexer) upper(word string) string {
	if l.lower {
		return strings.ToUpper(word)
	}
	return word
}

// unquote decodes a string literal's span: the text between the quotes,
// each doubled quote read as one. Without a doubled quote it is a slice
// of the source.
func unquote(span string) string {
	s := span[1 : len(span)-1]
	if strings.IndexByte(s, '\'') < 0 {
		return s
	}
	return strings.ReplaceAll(s, "''", "'")
}

// Next returns the next token.
func (l *Lexer) Next() (token.Token, error) {
	k, start, end, err := l.scan()
	if err != nil {
		return token.Token{}, err
	}
	t := token.Token{Kind: k, Pos: l.pos(start)}
	switch span := l.src[start:end]; k {
	case token.Ident:
		t.Text = l.upper(span)
		if kw, ok := token.Lookup(t.Text); ok {
			t.Kind = kw
		}
	case token.HostVar:
		t.Text = l.upper(span[1:])
	case token.String:
		t.Text = unquote(span)
	default:
		t.Text = span
	}
	return t, nil
}
