package token

import "testing"

func TestKindStrings(t *testing.T) {
	cases := map[Kind]string{
		EOF:       "EOF",
		Ident:     "identifier",
		Number:    "number",
		String:    "string",
		HostVar:   "host variable",
		LParen:    "(",
		Eq:        "=",
		NotEq:     "<>",
		LtEq:      "<=",
		GtEq:      ">=",
		KwSelect:  "SELECT",
		KwBetween: "BETWEEN",
		KwCheck:   "CHECK",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if Kind(200).String() == "" {
		t.Error("unknown kind must still render")
	}
}

func TestKeywordsTable(t *testing.T) {
	// Aliases, and every keyword kind spelled by its own name.
	if k, ok := Lookup("INT"); !ok || k != KwInteger {
		t.Error("INT alias missing")
	}
	if k, ok := Lookup("CHAR"); !ok || k != KwVarchar {
		t.Error("CHAR alias missing")
	}
	for k := KwSelect; k <= KwValues; k++ {
		if got, ok := Lookup(k.String()); !ok || got != k {
			t.Errorf("Lookup(%q) = %v, %v; want %v", k.String(), got, ok, k)
		}
	}
	for _, word := range []string{"", "SNO", "select", "SELECTS", "INTO2"} {
		if k, ok := Lookup(word); ok || k != Ident {
			t.Errorf("Lookup(%q) = %v, %v; want an identifier", word, k, ok)
		}
	}
}

func TestPosAndTokenString(t *testing.T) {
	p := Pos{Line: 3, Col: 14}
	if p.String() != "3:14" {
		t.Errorf("Pos.String() = %q", p.String())
	}
	tok := Token{Kind: Ident, Text: "SNO", Pos: p}
	if tok.String() != `identifier "SNO"` {
		t.Errorf("Token.String() = %q", tok.String())
	}
	kw := Token{Kind: KwSelect, Text: "SELECT"}
	if kw.String() != "SELECT" {
		t.Errorf("keyword Token.String() = %q", kw.String())
	}
}
