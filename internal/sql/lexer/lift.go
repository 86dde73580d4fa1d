package lexer

import (
	"strconv"

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

// liftedNames holds the reserved names of the first literals, so the
// per-call binding allocates no name strings for ordinary statements.
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

// Shape scans src once and returns its shape text — tokens in
// canonical spelling, single-spaced except around punctuation, literals
// as ?int / ?str — together with the literal tokens in source order.
// A statement that begins with CREATE yields the empty shape and no
// literals: schema definitions keep their constants.
func Shape(src string) (shape string, lits []token.Token, err error) {
	lx := New(src)
	buf := make([]byte, 0, len(src)+16)
	prev := token.EOF
	for {
		t, err := lx.Next()
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
		case token.NotEq: // <> and != are one operator
			buf = append(buf, "<>"...)
		default:
			buf = append(buf, t.Text...)
		}
		prev = t.Kind
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
