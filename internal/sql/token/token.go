// Package token defines the lexical tokens of the SQL2 subset used by
// the uniqueness optimizer: query specifications (SELECT/FROM/WHERE),
// query expressions (INTERSECT/EXCEPT [ALL]), EXISTS subqueries,
// CREATE TABLE with PRIMARY KEY / UNIQUE / CHECK constraints, and
// host variables of the form :NAME.
package token

import "fmt"

// Kind identifies a class of token.
type Kind uint8

// Token kinds. Keyword kinds follow the operator and literal kinds.
const (
	EOF Kind = iota
	Ident
	Number
	String
	HostVar // :IDENT

	// Punctuation and operators.
	LParen
	RParen
	Comma
	Semicolon
	Star
	Dot
	Eq    // =
	NotEq // <> or !=
	Lt    // <
	LtEq  // <=
	Gt    // >
	GtEq  // >=

	// Keywords.
	KwSelect
	KwDistinct
	KwAll
	KwFrom
	KwWhere
	KwAnd
	KwOr
	KwNot
	KwExists
	KwBetween
	KwIn
	KwIs
	KwNull
	KwTrue
	KwFalse
	KwIntersect
	KwExcept
	KwCreate
	KwTable
	KwPrimary
	KwKey
	KwUnique
	KwCheck
	KwConstraint
	KwForeign
	KwReferences
	KwInteger
	KwVarchar
	KwBoolean
	KwAs
	KwInsert
	KwInto
	KwValues
)

var kindNames = map[Kind]string{
	EOF: "EOF", Ident: "identifier", Number: "number", String: "string",
	HostVar: "host variable",
	LParen:  "(", RParen: ")", Comma: ",", Semicolon: ";", Star: "*",
	Dot: ".", Eq: "=", NotEq: "<>", Lt: "<", LtEq: "<=", Gt: ">", GtEq: ">=",
	KwSelect: "SELECT", KwDistinct: "DISTINCT", KwAll: "ALL", KwFrom: "FROM",
	KwWhere: "WHERE", KwAnd: "AND", KwOr: "OR", KwNot: "NOT",
	KwExists: "EXISTS", KwBetween: "BETWEEN", KwIn: "IN", KwIs: "IS",
	KwNull: "NULL", KwTrue: "TRUE", KwFalse: "FALSE",
	KwIntersect: "INTERSECT", KwExcept: "EXCEPT",
	KwCreate: "CREATE", KwTable: "TABLE", KwPrimary: "PRIMARY", KwKey: "KEY",
	KwUnique: "UNIQUE", KwCheck: "CHECK", KwConstraint: "CONSTRAINT",
	KwForeign: "FOREIGN", KwReferences: "REFERENCES",
	KwInteger: "INTEGER", KwVarchar: "VARCHAR", KwBoolean: "BOOLEAN",
	KwAs: "AS", KwInsert: "INSERT", KwInto: "INTO", KwValues: "VALUES",
}

// String returns a human-readable name for k.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Lookup returns the keyword kind an upper-cased word spells, or Ident
// and false when it spells none. It is the one keyword table.
func Lookup(word string) (Kind, bool) {
	switch word {
	case "SELECT":
		return KwSelect, true
	case "DISTINCT":
		return KwDistinct, true
	case "ALL":
		return KwAll, true
	case "FROM":
		return KwFrom, true
	case "WHERE":
		return KwWhere, true
	case "AND":
		return KwAnd, true
	case "OR":
		return KwOr, true
	case "NOT":
		return KwNot, true
	case "EXISTS":
		return KwExists, true
	case "BETWEEN":
		return KwBetween, true
	case "IN":
		return KwIn, true
	case "IS":
		return KwIs, true
	case "NULL":
		return KwNull, true
	case "TRUE":
		return KwTrue, true
	case "FALSE":
		return KwFalse, true
	case "INTERSECT":
		return KwIntersect, true
	case "EXCEPT":
		return KwExcept, true
	case "CREATE":
		return KwCreate, true
	case "TABLE":
		return KwTable, true
	case "PRIMARY":
		return KwPrimary, true
	case "KEY":
		return KwKey, true
	case "UNIQUE":
		return KwUnique, true
	case "CHECK":
		return KwCheck, true
	case "CONSTRAINT":
		return KwConstraint, true
	case "FOREIGN":
		return KwForeign, true
	case "REFERENCES":
		return KwReferences, true
	case "INTEGER", "INT":
		return KwInteger, true
	case "VARCHAR", "CHAR":
		return KwVarchar, true
	case "BOOLEAN":
		return KwBoolean, true
	case "AS":
		return KwAs, true
	case "INSERT":
		return KwInsert, true
	case "INTO":
		return KwInto, true
	case "VALUES":
		return KwValues, true
	}
	return Ident, false
}

// Pos is a 1-based source position.
type Pos struct {
	Line, Col int
}

// String renders the position as "line:col".
func (p Pos) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Token is a single lexical token with its source text and position.
type Token struct {
	Kind Kind
	Text string // original text (identifiers upper-cased by the lexer)
	Pos  Pos
}

// String renders the token for diagnostics.
func (t Token) String() string {
	switch t.Kind {
	case Ident, Number, String, HostVar:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
