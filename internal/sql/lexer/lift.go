package lexer

import (
	"errors"
	"strconv"
	"strings"

	"uniqopt/internal/sql/token"
	"uniqopt/internal/value"
)

// Literal lifting. A statement's shape is its token stream with every
// Number and String token replaced by a placeholder tagged with the
// literal's kind; two texts that differ only in literal values,
// letter case, whitespace or comments share a shape. Everything the
// optimizer decides at compile time depends on the shape alone, so the
// shape is what a compiled statement is cached under, and the literals
// travel beside it as a per-call vector bound through the
// host-variable machinery under names no source text can spell.
//
// NULL, TRUE and FALSE are keywords, not literal tokens, and stay in
// the shape. DDL is never lifted: Shape reports it with an empty shape.

// liftedNames holds the reserved names of the first literals, so naming
// them allocates no strings for ordinary statements.
var liftedNames = func() (names [32]string) {
	for i := range names {
		names[i] = "$" + strconv.Itoa(i+1)
	}
	return names
}()

// LiftedName returns the host-variable name standing for a statement's
// n-th literal, counting from 1 in source order. The lexer accepts no
// '$', so a user's :NAME can never collide with it.
func LiftedName(n int) string {
	if n <= len(liftedNames) {
		return liftedNames[n-1]
	}
	return "$" + strconv.Itoa(n)
}

// LiftedOrdinal is LiftedName's inverse: n for the name $n.
func LiftedOrdinal(name string) (int, bool) {
	n, err := strconv.Atoi(strings.TrimPrefix(name, "$"))
	return n, err == nil && n > 0 && strings.HasPrefix(name, "$")
}

// ErrRange is what Shape reports, once the rest of the text has
// scanned, for an integer literal int64 cannot hold: the parser words
// that error against the token, so the caller re-parses the text for it.
var ErrRange = errors.New("lexer: integer literal out of range")

// Shape scans src once, appends its shape text to dst — tokens in
// canonical spelling, single-spaced except around punctuation, literals
// as ?int / ?str — and appends its literals to lits as values in source
// order: a Number as its INTEGER, a String as its decoded VARCHAR. A
// statement that begins with CREATE appends no shape and no literal:
// schema definitions keep their constants.
//
// It reads the scanner's spans, not tokens: a word is written into the
// shape upper-cased as it stands, and no token is made. Nothing is
// allocated but what dst and lits grow by: lits grows through grow,
// which returns it with room for n more (nil: append's growth), so a
// caller can carve the vector from memory of its own.
func Shape(dst []byte, lits []value.Value, src string, grow func(lits []value.Value, n int) []value.Value) ([]byte, []value.Value, error) {
	lx := Lexer{src: src, line: 1}
	prev, outOfRange := token.EOF, false
	for {
		k, start, end, err := lx.scan()
		if err != nil {
			return dst, lits, err
		}
		span := src[start:end]
		switch k {
		case token.EOF:
			if outOfRange {
				return dst, lits, ErrRange
			}
			return dst, lits, nil
		case token.Ident:
			if prev == token.EOF && strings.EqualFold(span, token.KwCreate.String()) {
				return dst, lits, nil
			}
		}
		switch k {
		case token.RParen, token.Comma, token.Dot, token.Semicolon:
		default:
			if prev != token.EOF && prev != token.LParen && prev != token.Dot {
				dst = append(dst, ' ')
			}
		}
		switch k {
		case token.Number, token.String:
			if len(lits) == cap(lits) && grow != nil {
				lits = grow(lits, max(len(lits), 8))
			}
			if k == token.Number {
				dst = append(dst, "?int"...)
				n, err := strconv.ParseInt(span, 10, 64)
				outOfRange = outOfRange || err != nil
				lits = append(lits, value.Int(n))
			} else {
				dst = append(dst, "?str"...)
				lits = append(lits, value.String_(unquote(span)))
			}
		case token.Ident, token.HostVar:
			dst = appendUpper(dst, span, lx.lower)
		case token.NotEq: // <> and != are one operator
			dst = append(dst, "<>"...)
		default:
			dst = append(dst, span...)
		}
		prev = k
	}
}

// appendUpper appends a word's span upper-cased; lower says whether it
// has a lower-case letter at all.
func appendUpper(dst []byte, span string, lower bool) []byte {
	if !lower {
		return append(dst, span...)
	}
	for i := 0; i < len(span); i++ {
		c := span[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		dst = append(dst, c)
	}
	return dst
}

// TokenizeLifted is Tokenize with every Number and String token
// replaced by the HostVar token LiftedName assigns it, numbered exactly
// as Shape orders its literal vector.
func TokenizeLifted(src string) ([]token.Token, error) {
	toks, err := Tokenize(src)
	if err != nil {
		return nil, err
	}
	n := 0
	for i, t := range toks {
		if t.Kind == token.Number || t.Kind == token.String {
			n++
			toks[i].Kind, toks[i].Text = token.HostVar, LiftedName(n)
		}
	}
	return toks, nil
}
