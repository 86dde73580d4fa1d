package lexer

import (
	"reflect"
	"strconv"
	"testing"

	"uniqopt/internal/sql/token"
	"uniqopt/internal/value"
)

// goldenTexts are the statements of the row goldens: the paper's
// examples (workload.PaperQueries, which this package cannot import) and
// the benchmark's statements with their literals fixed — the shapes the
// statement cache serves hottest.
var goldenTexts = []string{
	`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`,
	`SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`,
	`SELECT ALL S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO`,
	`SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO`,
	`SELECT DISTINCT S.SNO, PNO, PNAME, P.COLOR FROM SUPPLIER S, PARTS P
		WHERE S.SNAME = :SUPPLIER-NAME AND S.SNO = P.SNO`,
	`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE S.SNAME = :SUPPLIER-NAME AND
		EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)`,
	`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`,
	`SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'
		INTERSECT
		SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'`,
	`SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS
		FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN 10 AND 20 AND S.SNO = P.SNO AND P.PNO = :PARTNO`,
	`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < 1500`,
	`SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < 1500`,
	`SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
		WHERE P.SNO = 7 AND S.SNO = P.SNO AND P.OEM-PNO > 1063`,
	`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
		WHERE S.SNAME = 'Smith' AND S.BUDGET < 800 AND
		EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)`,
	`SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' AND S.BUDGET > 100
		INTERSECT
		SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'`,
	`SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND (P.COLOR = 'RED' AND P.OEM-PNO < 1200 OR P.PNO = 2 AND P.OEM-PNO > 1900)`,
	`SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
		WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = 7 AND P.OEM-PNO <> 1063`,
	`SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S, PARTS P
		WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`,
}

// FuzzShape holds the span scanner to the reference lexer it replaced:
// on every input Tokenize must return the same tokens — kinds, texts,
// positions — or the same error, and Shape the same shape string and
// the reference's literal tokens as values, or the same error.
func FuzzShape(f *testing.F) {
	for _, c := range shapeCases {
		f.Add(c.src)
	}
	for _, src := range goldenTexts {
		f.Add(src)
	}
	for _, src := range []string{
		"select distinct s.sno, p.pname from supplier s, parts p where s.sno = p.sno and p.color = 'red'",
		"SeLeCt A fRoM t WhErE a != 3 AnD b <> 'x' aNd :hOsT-vAr = c",
		"SELECT A FROM T WHERE NAME = 'O''Neil' AND B = ''''",
		"SELECT A FROM T WHERE S = 'two\nlines' AND\nB = 1",
		"SELECT A -- a comment with 'quotes' and 12\n FROM T -- last line, no newline",
		"SELECT A FROM T WHERE S = 'caf\xc3\xa9' AND B = 1",
		"SELECT \xc3\xa9 FROM T",
		"SELECT A FROM T WHERE A = :$1",
		"SELECT A FROM T WHERE A = 'unterminated",
		"SELECT A FROM T WHERE A = 1 AND B = 'x'''",
		// Hyphens, one input each: only the first error is compared.
		"SELECT OEM-PNO, A-B-C, :X-1, :x-y FROM T",
		"SELECT A--B\n FROM T",
		"SELECT A-\nB",
		"SELECT A - B",
		"SELECT 1-2",
		"\r\n\t  ;;((..)),**<=>=<><!=!",
		"",
		":",
		"!",
		"CREATE TABLE T (A INT)",
		"INSERT INTO T VALUES (1, 'a', NULL, :V)",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		toks, err := Tokenize(src)
		want, wantErr := refTokenize(src)
		if errText(err) != errText(wantErr) || !reflect.DeepEqual(toks, want) {
			t.Fatalf("Tokenize(%q)\n got %v, %v\nwant %v, %v", src, toks, err, want, wantErr)
		}
		got, lits, err := shape(src)
		wantShape, wantToks, wantErr := refShape(src)
		var wantLits []value.Value
		for _, tok := range wantToks {
			v := literalValue(tok)
			if v.IsNull() && wantErr == nil {
				wantErr = ErrRange
			}
			wantLits = append(wantLits, v)
		}
		if wantErr != nil {
			if errText(err) != errText(wantErr) {
				t.Fatalf("Shape(%q): error %v, want %v", src, err, wantErr)
			}
			return
		}
		if err != nil || got != wantShape || !sameValues(lits, wantLits) {
			t.Fatalf("Shape(%q)\n got %q %v, %v\nwant %q %v", src, got, lits, err, wantShape, wantLits)
		}
	})
}

// literalValue is a Number or String token's value; NULL for an integer
// int64 cannot hold.
func literalValue(t token.Token) value.Value {
	if t.Kind == token.String {
		return value.String_(t.Text)
	}
	n, err := strconv.ParseInt(t.Text, 10, 64)
	if err != nil {
		return value.Null
	}
	return value.Int(n)
}

// sameValues compares two literal vectors cell by cell: kind and value,
// never where a string lies.
func sameValues(a, b []value.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || a[i].String() != b[i].String() {
			return false
		}
	}
	return true
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
