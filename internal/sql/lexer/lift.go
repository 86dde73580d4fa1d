package lexer

import (
	"strconv"
	"strings"

	"uniqopt/internal/sql/token"
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

// Shape scans src once and returns its shape text — tokens in
// canonical spelling, single-spaced except around punctuation, literals
// as ?int / ?str — together with the literal tokens in source order.
// A statement that begins with CREATE yields the empty shape and no
// literals: schema definitions keep their constants.
//
// It reads the scanner's spans, not tokens: a word is written into the
// shape upper-cased as it stands, and only a literal is made a token.
// The shape is built in one buffer and the literal vector is allocated
// at its exact length.
func Shape(src string) (shape string, lits []token.Token, err error) {
	lx := New(src)
	var sb strings.Builder
	sb.Grow(len(src) + 16)
	var first [8]token.Token
	found := first[:0]
	prev := token.EOF
	for {
		k, start, end, err := lx.scan()
		if err != nil {
			return "", nil, err
		}
		span := src[start:end]
		switch k {
		case token.EOF:
			if len(found) > 0 {
				lits = make([]token.Token, len(found))
				copy(lits, found)
			}
			return sb.String(), lits, nil
		case token.Ident:
			if prev == token.EOF && strings.EqualFold(span, token.KwCreate.String()) {
				return "", nil, nil
			}
		}
		switch k {
		case token.RParen, token.Comma, token.Dot, token.Semicolon:
		default:
			if prev != token.EOF && prev != token.LParen && prev != token.Dot {
				sb.WriteByte(' ')
			}
		}
		switch k {
		case token.Number:
			sb.WriteString("?int")
			found = append(found, token.Token{Kind: k, Text: span, Pos: lx.pos(start)})
		case token.String:
			sb.WriteString("?str")
			found = append(found, token.Token{Kind: k, Text: unquote(span), Pos: lx.pos(start)})
		case token.Ident, token.HostVar:
			writeUpper(&sb, span, lx.lower)
		case token.NotEq: // <> and != are one operator
			sb.WriteString("<>")
		default:
			sb.WriteString(span)
		}
		prev = k
	}
}

// writeUpper writes a word's span upper-cased; lower says whether it has
// a lower-case letter at all.
func writeUpper(sb *strings.Builder, span string, lower bool) {
	if !lower {
		sb.WriteString(span)
		return
	}
	for i := 0; i < len(span); i++ {
		c := span[i]
		if c >= 'a' && c <= 'z' {
			c -= 'a' - 'A'
		}
		sb.WriteByte(c)
	}
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
