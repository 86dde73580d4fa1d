package uniqopt_test

import (
	"reflect"
	"testing"

	"uniqopt"
	"uniqopt/internal/workload"
)

// FuzzCompileTwice: whatever the text, the statement cache is not
// observable. As a query, the text gives the same outcome (rows,
// rewrites or error text) the first time, the second time — when a text
// or shape entry may serve it — and on a database that has never seen
// it. As a write, where a repeat legitimately differs (the rows are
// there now), two executions give the same pair of outcomes on a caching
// database and on an identically built one that compiles every call
// (execWarmCold).
func FuzzCompileTwice(f *testing.F) {
	for _, name := range paperQueryNames() {
		for _, sql := range spellings(workload.PaperQueries[name]) {
			f.Add(sql)
		}
	}
	for _, sql := range []string{
		`INSERT INTO AGENTS VALUES (:S, :A, :NAME, :CITY)`,
		`insert into AGENTS values (:S, 901, 'lit', :CITY) -- one literal row`,
		`INSERT INTO AGENTS VALUES (:S, 902, NULL, NULL), (:S, 903, :NAME, 'Hull'), (:S, 902, 'dup', NULL)`,
		`INSERT INTO SUPPLIER VALUES (400, 'New', 'Toronto', 0, 'Inactive')`,
		`INSERT INTO AGENTS VALUES (:S, :A, :NAME)`,
		`INSERT INTO AGENTS VALUES (:S, :MISSING, TRUE, FALSE)`,
		`INSERT INTO AGENTS VALUES (:S, 99999999999999999999, 'big', NULL)`,
		`INSERT INTO AGENTS VALUES (:S, ?int, ?str, NULL)`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = ?int`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :N`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = 7`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNAME = 7`,
		// Literals the splice must quote byte for byte, in rewrite texts
		// and in an error text: a doubled quote, a lifted name's spelling,
		// the empty string.
		`SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = 'O''Neil' AND
			EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)`,
		`SELECT DISTINCT S.SNO, S.SNAME FROM SUPPLIER S WHERE S.SNAME = ':$2' OR S.SCITY = ''`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = ':$2' AND S.SNAME = 'O''Neil'`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = '' AND S.BUDGET > 1`,
		`SELECT S.NOPE FROM SUPPLIER S`,
		`SELECT S.SNO FROM SUPPLIER S WHERE S.SNO = :UNBOUND`,
		`CREATE TABLE X (A INTEGER, B VARCHAR(9), PRIMARY KEY (A), CHECK (A > 5))`,
		`CREATE TABLE (`,
		`SELECT 'unterminated`,
		`-- nothing`,
		``,
	} {
		f.Add(sql)
	}
	hosts := map[string]any{"NAME": "host", "CITY": "Ottawa"}
	for k, v := range goldenHosts {
		hosts[k] = v
	}
	f.Fuzz(func(t *testing.T, sql string) {
		warm, fresh := shapeDB(t, uniqopt.Options{}), shapeDB(t, uniqopt.Options{})
		first, second := queryOutcome(warm, sql, hosts), queryOutcome(warm, sql, hosts)
		if third := queryOutcome(fresh, sql, hosts); !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, third) {
			t.Fatalf("Query(%q)\n--- first\n%+v\n--- second\n%+v\n--- fresh database\n%+v", sql, first, second, third)
		}
		cold := shapeDB(t, uniqopt.Options{})
		for call := 1; call <= 2; call++ {
			if w, c := execWarmCold(t, warm, cold, sql, hosts); !reflect.DeepEqual(w, c) {
				t.Fatalf("Exec(%q), call %d\n--- caching handle\n%+v\n--- compiling every time\n%+v", sql, call, w, c)
			}
		}
	})
}
