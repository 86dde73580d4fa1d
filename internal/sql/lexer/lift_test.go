package lexer

import (
	"errors"
	"reflect"
	"testing"

	"uniqopt/internal/sql/token"
	"uniqopt/internal/value"
)

// shapeCases are TestShape's statements with their shapes and literal
// texts; FuzzShape starts from them too.
var shapeCases = []struct {
	src, shape string
	lits       []string
}{
	{`SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = 7 AND S.SNAME <> 'O''Neil'`,
		`SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = ?int AND S.SNAME <> ?str`,
		[]string{"7", "O'Neil"}},
	{"select  distinct s . sno\n from supplier s -- comment 12 'x'\n where s.sno=8 and s.sname!='y';",
		`SELECT DISTINCT S.SNO FROM SUPPLIER S WHERE S.SNO = ?int AND S.SNAME <> ?str;`,
		[]string{"8", "y"}},
	{`SELECT * FROM T WHERE A IN (1, 'b', :H, NULL) AND B BETWEEN 2 AND 3 OR NOT (C = TRUE)`,
		`SELECT * FROM T WHERE A IN (?int, ?str, :H, NULL) AND B BETWEEN ?int AND ?int OR NOT (C = TRUE)`,
		[]string{"1", "b", "2", "3"}},
	{`INSERT INTO T VALUES (1, 'a', NULL, FALSE, :V), (2, '', NULL, TRUE, :W)`,
		`INSERT INTO T VALUES (?int, ?str, NULL, FALSE, :V), (?int, ?str, NULL, TRUE, :W)`,
		[]string{"1", "a", "2", ""}},
	// A string that looks like a number, a placeholder or a lifted
	// name is still one ?str.
	{`SELECT A FROM T WHERE B = '7' AND C = '?int' AND D = ':$1'`,
		`SELECT A FROM T WHERE B = ?str AND C = ?str AND D = ?str`,
		[]string{"7", "?int", ":$1"}},
	// DDL is never lifted.
	{`CREATE TABLE T (A INTEGER, B VARCHAR(30), CHECK (A > 5))`, ``, nil},
	{`  create table T (A INT)`, ``, nil},
}

// shape is Shape into fresh buffers, its shape as a string.
func shape(src string) (string, []value.Value, error) {
	dst, lits, err := Shape(nil, nil, src, nil)
	return string(dst), lits, err
}

func TestShape(t *testing.T) {
	for _, c := range shapeCases {
		got, lits, err := shape(c.src)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		var texts []string
		for _, l := range lits {
			text := l.String()
			if l.Kind() == value.KindString {
				text = l.AsString()
			}
			texts = append(texts, text)
		}
		if got != c.shape || !reflect.DeepEqual(texts, c.lits) {
			t.Errorf("Shape(%q)\n got %q %q\nwant %q %q", c.src, got, texts, c.shape, c.lits)
		}
	}
	if _, _, err := shape(`SELECT A FROM T WHERE A = :$1`); err == nil {
		t.Error("a lifted name was accepted in source text")
	}
	if _, _, err := shape(`SELECT 'open`); err == nil {
		t.Error("unterminated string was accepted")
	}
	// An integer int64 cannot hold is reported once the text has scanned:
	// a lexical error after it wins.
	if _, _, err := shape(`SELECT A FROM T WHERE A = 99999999999999999999 AND B = 1`); !errors.Is(err, ErrRange) {
		t.Errorf("out-of-range integer: %v, want ErrRange", err)
	}
	if _, _, err := shape(`SELECT A FROM T WHERE A = 99999999999999999999 AND B = 'open`); err == nil || errors.Is(err, ErrRange) {
		t.Errorf("out-of-range integer before an unterminated string: %v, want the lexical error", err)
	}
}

// TestShapeAppends: Shape appends to the buffers it is handed, growing
// the literal vector only through grow, and leaves what they held before.
func TestShapeAppends(t *testing.T) {
	const src = `SELECT A FROM T WHERE A IN (1, 2, 3, 4, 5, 6, 7, 8, 9, 10) AND B = 'x'`
	grown := 0
	grow := func(lits []value.Value, n int) []value.Value {
		grown++
		return append(make([]value.Value, 0, len(lits)+n), lits...)
	}
	dst, lits, err := Shape([]byte("kept|"), []value.Value{value.Int(-1)}, src, grow)
	if err != nil {
		t.Fatal(err)
	}
	want, wantLits, _ := shape(src)
	if string(dst) != "kept|"+want || len(lits) != 1+len(wantLits) || lits[0] != value.Int(-1) {
		t.Errorf("Shape appended %q and %d literals after what it was handed", dst, len(lits))
	}
	if grown != 2 {
		t.Errorf("the vector grew %d times through grow, want 2 (1 → 9 → 17 cells)", grown)
	}
	if got := testing.AllocsPerRun(50, func() { dst, lits, _ = Shape(dst[:0], lits[:0], src, nil) }); got != 0 {
		t.Errorf("Shape into buffers with room: %v allocations, want 0", got)
	}
}

// TokenizeLifted numbers literals exactly as Shape orders them, keeps
// positions, and leaves every other token alone.
func TestTokenizeLiftedMatchesShape(t *testing.T) {
	const src = `SELECT A FROM T WHERE A = 10 AND B = 'x' AND C IN (:H, 3) AND D = NULL`
	plain, err := Tokenize(src)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := TokenizeLifted(src)
	if err != nil {
		t.Fatal(err)
	}
	_, lits, err := shape(src)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for i, p := range plain {
		l := lifted[i]
		if p.Kind == token.Number || p.Kind == token.String {
			if l.Kind != token.HostVar || l.Text != LiftedName(n+1) || l.Pos != p.Pos || lits[n].String() != literalValue(p).String() {
				t.Errorf("token %d %v lifted to %v (literal %d is %v)", i, p, l, n, lits[n])
			}
			n++
		} else if l != p {
			t.Errorf("token %d changed: %v -> %v", i, p, l)
		}
	}
	if n != len(lits) || n != 3 {
		t.Errorf("lifted %d literals, Shape reported %d, want 3", n, len(lits))
	}
	if LiftedName(1) != "$1" || LiftedName(32) != "$32" || LiftedName(33) != "$33" || LiftedName(1000) != "$1000" {
		t.Error("LiftedName is not $n")
	}
}

// BenchmarkShape prices the lexer pass a statement-cache hit makes: one
// disj_lit text, about 180 bytes with three literals, into its shape and
// literal vector, both kept from one statement to the next as an
// execution's frame keeps them.
func BenchmarkShape(b *testing.B) {
	const src = `SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
				WHERE S.SNO = P.SNO AND (P.COLOR = 'RED' AND P.OEM-PNO < 1200 OR P.PNO = 2 AND P.OEM-PNO > 1900)`
	var dst []byte
	var lits []value.Value
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, lits, err = Shape(dst[:0], lits[:0], src, nil); err != nil {
			b.Fatal(err)
		}
	}
}
