package parser

import (
	"strings"
	"testing"

	"uniqopt/internal/sql/ast"
)

func mustQuery(t *testing.T, src string) ast.Query {
	t.Helper()
	q, err := ParseQuery(src)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", src, err)
	}
	return q
}

func TestPaperExample1Query(t *testing.T) {
	q := mustQuery(t, `SELECT DISTINCT S.SNO, P.PNO, P.PNAME
		FROM SUPPLIER S, PARTS P
		WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`)
	s, ok := q.(*ast.Select)
	if !ok {
		t.Fatalf("got %T, want *ast.Select", q)
	}
	if s.Quant != ast.QuantDistinct {
		t.Error("DISTINCT not recognized")
	}
	if len(s.Items) != 3 {
		t.Fatalf("got %d items, want 3", len(s.Items))
	}
	c := s.Items[0].Expr.(*ast.ColumnRef)
	if c.Qualifier != "S" || c.Column != "SNO" {
		t.Errorf("item 0 = %v", c)
	}
	if len(s.From) != 2 || s.From[0].Table != "SUPPLIER" || s.From[0].Alias != "S" ||
		s.From[1].Table != "PARTS" || s.From[1].Alias != "P" {
		t.Errorf("FROM = %v", s.From)
	}
	and, ok := s.Where.(*ast.And)
	if !ok {
		t.Fatalf("WHERE is %T, want *ast.And", s.Where)
	}
	join := and.L.(*ast.Compare)
	if join.Op != ast.EqOp {
		t.Error("join predicate should be equality")
	}
	sel := and.R.(*ast.Compare)
	if sel.R.(*ast.StringLit).V != "RED" {
		t.Error("selection literal wrong")
	}
}

func TestHostVariableQuery(t *testing.T) {
	q := mustQuery(t, `SELECT ALL S.SNO, SNAME, P.PNO, PNAME
		FROM SUPPLIER S, PARTS P
		WHERE P.SNO = :SUPPLIER-NO AND S.SNO = P.SNO`)
	s := q.(*ast.Select)
	if s.Quant != ast.QuantAll {
		t.Error("ALL not recognized")
	}
	hv := ast.HostVars(s.Where)
	if len(hv) != 1 || hv[0].Name != "SUPPLIER-NO" {
		t.Errorf("host vars = %v", hv)
	}
	// Unqualified column reference.
	if s.Items[1].Expr.(*ast.ColumnRef).Column != "SNAME" {
		t.Error("unqualified column wrong")
	}
}

func TestExistsSubquery(t *testing.T) {
	q := mustQuery(t, `SELECT ALL S.SNO, S.SNAME
		FROM SUPPLIER S
		WHERE S.SNAME = :SUPPLIER-NAME AND
		      EXISTS (SELECT * FROM PARTS P
		              WHERE S.SNO = P.SNO AND P.PNO = :PART-NO)`)
	s := q.(*ast.Select)
	and := s.Where.(*ast.And)
	ex, ok := and.R.(*ast.Exists)
	if !ok {
		t.Fatalf("got %T, want *ast.Exists", and.R)
	}
	if ex.Negated {
		t.Error("EXISTS should not be negated")
	}
	if !ex.Query.Items[0].Star {
		t.Error("subquery should project *")
	}
	if ex.Query.From[0].Table != "PARTS" {
		t.Error("subquery FROM wrong")
	}
}

func TestNotExists(t *testing.T) {
	q := mustQuery(t, `SELECT S.SNO FROM SUPPLIER S
		WHERE NOT EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO)`)
	ex := q.(*ast.Select).Where.(*ast.Exists)
	if !ex.Negated {
		t.Error("NOT EXISTS should set Negated")
	}
}

func TestIntersect(t *testing.T) {
	q := mustQuery(t, `SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto'
		INTERSECT
		SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'`)
	so, ok := q.(*ast.SetOp)
	if !ok {
		t.Fatalf("got %T, want *ast.SetOp", q)
	}
	if so.Op != ast.Intersect || so.All {
		t.Errorf("op = %v all=%v", so.Op, so.All)
	}
	or, ok := so.Right.Where.(*ast.Or)
	if !ok {
		t.Fatalf("right WHERE is %T", so.Right.Where)
	}
	if or.L.(*ast.Compare).R.(*ast.StringLit).V != "Ottawa" {
		t.Error("OR left operand wrong")
	}
}

func TestExceptAll(t *testing.T) {
	q := mustQuery(t, `SELECT SNO FROM SUPPLIER EXCEPT ALL SELECT SNO FROM AGENTS`)
	so := q.(*ast.SetOp)
	if so.Op != ast.Except || !so.All {
		t.Errorf("op = %v all = %v", so.Op, so.All)
	}
}

func TestBetweenInIsNull(t *testing.T) {
	q := mustQuery(t, `SELECT * FROM SUPPLIER
		WHERE SNO BETWEEN 1 AND 499
		  AND SCITY IN ('Chicago', 'New York', 'Toronto')
		  AND BUDGET IS NOT NULL
		  AND STATUS NOT IN ('X')
		  AND SNO NOT BETWEEN 600 AND 700
		  AND SNAME IS NULL`)
	conj := ast.Conjuncts(q.(*ast.Select).Where)
	if len(conj) != 6 {
		t.Fatalf("got %d conjuncts, want 6", len(conj))
	}
	if b := conj[0].(*ast.Between); b.Negated || b.Lo.(*ast.IntLit).V != 1 || b.Hi.(*ast.IntLit).V != 499 {
		t.Error("BETWEEN wrong")
	}
	if in := conj[1].(*ast.InList); in.Negated || len(in.List) != 3 {
		t.Error("IN wrong")
	}
	if n := conj[2].(*ast.IsNull); !n.Negated {
		t.Error("IS NOT NULL wrong")
	}
	if in := conj[3].(*ast.InList); !in.Negated {
		t.Error("NOT IN wrong")
	}
	if b := conj[4].(*ast.Between); !b.Negated {
		t.Error("NOT BETWEEN wrong")
	}
	if n := conj[5].(*ast.IsNull); n.Negated {
		t.Error("IS NULL wrong")
	}
}

func TestOperatorPrecedence(t *testing.T) {
	// AND binds tighter than OR; NOT tighter than AND.
	q := mustQuery(t, `SELECT * FROM T WHERE A = 1 OR B = 2 AND C = 3`)
	or, ok := q.(*ast.Select).Where.(*ast.Or)
	if !ok {
		t.Fatal("top must be OR")
	}
	if _, ok := or.R.(*ast.And); !ok {
		t.Fatal("right of OR must be AND")
	}

	q2 := mustQuery(t, `SELECT * FROM T WHERE NOT A = 1 AND B = 2`)
	and, ok := q2.(*ast.Select).Where.(*ast.And)
	if !ok {
		t.Fatal("top must be AND")
	}
	if _, ok := and.L.(*ast.Not); !ok {
		t.Fatal("left of AND must be NOT")
	}
}

func TestParenthesizedNullCorrelation(t *testing.T) {
	// The paper's Example 9 rewritten correlation predicate.
	q := mustQuery(t, `SELECT ALL S.SNO FROM SUPPLIER S
		WHERE S.SCITY = 'Toronto' AND
		EXISTS (SELECT * FROM AGENTS A
		        WHERE (A.ACITY = 'Ottawa' OR A.ACITY = 'Hull')
		          AND ((A.SNO IS NULL AND S.SNO IS NULL) OR A.SNO = S.SNO))`)
	ex := q.(*ast.Select).Where.(*ast.And).R.(*ast.Exists)
	conj := ast.Conjuncts(ex.Query.Where)
	if len(conj) != 2 {
		t.Fatalf("got %d subquery conjuncts, want 2", len(conj))
	}
	if _, ok := conj[0].(*ast.Or); !ok {
		t.Error("first conjunct should be OR")
	}
	if _, ok := conj[1].(*ast.Or); !ok {
		t.Error("second conjunct should be OR (NULL-aware equality)")
	}
}

func TestCreateTableSupplier(t *testing.T) {
	st, err := ParseStatement(`CREATE TABLE SUPPLIER (
		SNO INTEGER NOT NULL,
		SNAME VARCHAR(30),
		SCITY VARCHAR(20),
		BUDGET INTEGER,
		STATUS VARCHAR(10),
		PRIMARY KEY (SNO),
		CHECK (SNO BETWEEN 1 AND 499),
		CHECK (SCITY IN ('Chicago', 'New York', 'Toronto')),
		CHECK (BUDGET <> 0 OR STATUS = 'Inactive'))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*ast.CreateTable)
	if ct.Name != "SUPPLIER" || len(ct.Columns) != 5 {
		t.Fatalf("table = %s, %d cols", ct.Name, len(ct.Columns))
	}
	if !ct.Columns[0].NotNull || ct.Columns[1].NotNull {
		t.Error("NOT NULL flags wrong")
	}
	if len(ct.Keys) != 1 || !ct.Keys[0].Primary || ct.Keys[0].Columns[0] != "SNO" {
		t.Errorf("keys = %v", ct.Keys)
	}
	if len(ct.Checks) != 3 {
		t.Fatalf("got %d checks, want 3", len(ct.Checks))
	}
}

func TestCreateTableParts(t *testing.T) {
	st, err := ParseStatement(`CREATE TABLE PARTS (
		SNO INTEGER NOT NULL, PNO INTEGER NOT NULL,
		PNAME VARCHAR(30), OEM-PNO INTEGER, COLOR VARCHAR(10),
		PRIMARY KEY (SNO, PNO),
		UNIQUE (OEM-PNO),
		CHECK (SNO BETWEEN 1 AND 499))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := st.(*ast.CreateTable)
	if len(ct.Keys) != 2 {
		t.Fatalf("got %d keys, want 2", len(ct.Keys))
	}
	if !ct.Keys[0].Primary || len(ct.Keys[0].Columns) != 2 {
		t.Error("composite primary key wrong")
	}
	if ct.Keys[1].Primary || ct.Keys[1].Columns[0] != "OEM-PNO" {
		t.Error("UNIQUE candidate key wrong")
	}
}

func TestParseScript(t *testing.T) {
	sts, err := ParseScript(`
		CREATE TABLE A (X INTEGER, PRIMARY KEY (X));
		SELECT X FROM A;
		SELECT X FROM A
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 {
		t.Fatalf("got %d statements, want 3", len(sts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT FROM T",
		"SELECT * FROM",
		"SELECT * FROM T WHERE",
		"SELECT * FROM T WHERE A =",
		"SELECT * FROM T WHERE A",
		"SELECT * FROM T WHERE A BETWEEN 1",
		"SELECT * FROM T WHERE A IN ()",
		"SELECT * FROM T WHERE A IS 5",
		"SELECT * FROM T alias1 alias2", // two aliases
		"CREATE TABLE",
		"CREATE TABLE T",
		"CREATE TABLE T (X FLOAT)",
		"CREATE TABLE T (PRIMARY (X))",
		"SELECT * FROM A INTERSECT SELECT * FROM B INTERSECT SELECT * FROM C",
		"UPDATE T SET X = 1",
		"SELECT 99999999999999999999 FROM T", // literal overflow happens in operands only
	}
	for _, src := range bad {
		if _, err := ParseStatement(src); err == nil {
			t.Errorf("ParseStatement(%q): expected error", src)
		}
	}
}

func TestParseSelectRejectsSetOp(t *testing.T) {
	if _, err := ParseSelect("SELECT X FROM A INTERSECT SELECT X FROM B"); err == nil {
		t.Error("ParseSelect should reject set operations")
	}
}

func TestParseExpr(t *testing.T) {
	e, err := ParseExpr("BUDGET <> 0 OR STATUS = 'Inactive'")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := e.(*ast.Or); !ok {
		t.Fatalf("got %T, want *ast.Or", e)
	}
	if _, err := ParseExpr("A = 1 extra"); err == nil {
		t.Error("trailing tokens should fail")
	}
}

// Round-trip: printing a parsed statement and re-parsing yields the
// same printed form (a fixed point after one iteration).
func TestRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`,
		`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED')`,
		`SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' INTERSECT SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'`,
		`SELECT * FROM SUPPLIER WHERE SNO BETWEEN 1 AND 499 AND SCITY IN ('Chicago', 'New York', 'Toronto') AND (BUDGET <> 0 OR STATUS = 'Inactive')`,
		`SELECT SNO FROM SUPPLIER EXCEPT ALL SELECT SNO FROM AGENTS`,
		`CREATE TABLE PARTS (SNO INTEGER NOT NULL, PNO INTEGER NOT NULL, PNAME VARCHAR, OEM-PNO INTEGER, COLOR VARCHAR, PRIMARY KEY (SNO, PNO), UNIQUE (OEM-PNO), CHECK (SNO BETWEEN 1 AND 499))`,
		`SELECT * FROM T WHERE NOT (A = 1) AND B IS NOT NULL`,
	}
	for _, src := range srcs {
		st1, err := ParseStatement(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		printed := st1.SQL()
		st2, err := ParseStatement(printed)
		if err != nil {
			t.Fatalf("reparse %q: %v", printed, err)
		}
		if st2.SQL() != printed {
			t.Errorf("round trip not stable:\n 1: %s\n 2: %s", printed, st2.SQL())
		}
	}
}

func TestErrorMessagesCarryPosition(t *testing.T) {
	_, err := ParseStatement("SELECT *\nFROM T WHERE ^")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "2:") {
		t.Errorf("error %q should mention line 2", err)
	}
}

func TestInSubqueryParse(t *testing.T) {
	q := mustQuery(t, `SELECT S.SNO FROM SUPPLIER S
		WHERE S.SNO IN (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')`)
	in, ok := q.(*ast.Select).Where.(*ast.InSubquery)
	if !ok {
		t.Fatalf("WHERE is %T, want *ast.InSubquery", q.(*ast.Select).Where)
	}
	if in.Negated {
		t.Error("positive IN parsed as negated")
	}
	if in.Query.From[0].Table != "PARTS" {
		t.Errorf("subquery FROM = %v", in.Query.From)
	}

	q = mustQuery(t, `SELECT S.SNO FROM SUPPLIER S
		WHERE S.SNO NOT IN (SELECT P.SNO FROM PARTS P)`)
	in = q.(*ast.Select).Where.(*ast.InSubquery)
	if !in.Negated {
		t.Error("NOT IN should set Negated")
	}
}

func TestInSubqueryRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO IN (SELECT P.SNO FROM PARTS P)`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO NOT IN (SELECT P.SNO FROM PARTS P WHERE P.COLOR = 'RED')`,
	}
	for _, src := range srcs {
		st, err := ParseStatement(src)
		if err != nil {
			t.Fatal(err)
		}
		if st.SQL() != src {
			t.Errorf("round trip:\n in:  %s\n out: %s", src, st.SQL())
		}
	}
}

// ParseLifted yields the statement's shape — literals replaced by the
// reserved host variables $1, $2, … in source order, NULL/TRUE/FALSE
// kept — and reports syntax errors exactly as ParseStatement does,
// naming the user's literal rather than its placeholder.
func TestParseLifted(t *testing.T) {
	st, err := ParseLifted(`SELECT S.SNO FROM SUPPLIER S
		WHERE S.SNO = 7 AND S.SNAME IN ('a', :H, 'b') AND S.BUDGET BETWEEN 1 AND 2 AND S.STATUS = NULL AND TRUE`)
	if err != nil {
		t.Fatal(err)
	}
	const want = `SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :$1 AND S.SNAME IN (:$2, :H, :$3) ` +
		`AND S.BUDGET BETWEEN :$4 AND :$5 AND S.STATUS = NULL AND TRUE`
	if got := st.(ast.Query).SQL(); got != want {
		t.Errorf("lifted statement renders\n%s\nwant\n%s", got, want)
	}
	ins, err := ParseLifted(`INSERT INTO T VALUES (1, 'x', NULL, :V)`)
	if err != nil {
		t.Fatal(err)
	}
	row := ins.(*ast.Insert).Rows[0]
	if h, ok := row[1].(*ast.HostVar); !ok || h.Name != "$2" {
		t.Errorf("second VALUES element = %#v, want host variable $2", row[1])
	}
	if _, ok := row[2].(*ast.NullLit); !ok {
		t.Errorf("NULL was lifted: %#v", row[2])
	}
	for _, bad := range []string{
		`SELECT 5 FROM T`,
		`SELECT A FROM T WHERE A = 1 2`,
		`SELECT A FROM T WHERE 'x'`,
		`INSERT INTO T VALUES (1, 'a' 'b')`,
		`SELECT A FROM T WHERE A = 'open`,
	} {
		_, lerr := ParseLifted(bad)
		_, werr := ParseStatement(bad)
		if lerr == nil || werr == nil || lerr.Error() != werr.Error() {
			t.Errorf("%s:\n lifted:  %v\n written: %v", bad, lerr, werr)
		}
	}
}
