package uniqopt_test

import (
	"context"
	"strings"
	"testing"
)

// benchStmt is one read statement of the repository benchmark with the
// plan tree plain EXPLAIN renders for it over goldenIndexedDB (the
// golden data with the benchmark's three indexes) under goldenHosts.
type benchStmt struct {
	name, workload, sql string
	// sameAsParent marks a plan byte-identical to the one commit 4110d2f
	// (before the index-probe rules) renders: the rules do not reach the
	// statement, so its join order, operators and notes are the parent's.
	sameAsParent bool
	plan         string
}

// benchStatements are the seven embedded_analytic statements, the wire_oltp
// reads (its chain3 is embedded_analytic's), durable_ingest's readback and
// the seven embedded_adhoc shapes with their literals fixed as in
// fixedAdhoc.
var benchStatements = []benchStmt{
	{
		name: "filter_scan", workload: "embedded_analytic", sameAsParent: true,
		sql: `SELECT ALL P.SNO, P.PNO, P.OEM-PNO FROM PARTS P
			WHERE P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M`,
		plan: `Project(P.SNO, P.PNO, P.OEM-PNO)
  Filter(P.COLOR <> 'RED' AND P.PNO > :K AND P.OEM-PNO < :M)
    Scan(PARTS as P)
`,
	},
	{
		name: "ex1_elim", workload: "embedded_analytic", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`,
		plan: `Project(S.SNO, P.PNO, P.PNAME)
-- join order: P, S (written: S, P)
-- start P: constant-bound COLOR
  HashJoin(P.SNO = S.SNO)
  -- unique probe of S: key (SNO) bound by S.SNO = P.SNO ⇒ at most 1 row per outer row
    Filter(P.COLOR = 'RED' AND P.PNO >= :K)
      Scan(PARTS as P)
    Scan(SUPPLIER as S)
`,
	},
	{
		name: "ex2_keep", workload: "embedded_analytic", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.PNO >= :K`,
		plan: `DistinctHash
-- join order: P, S (written: S, P)
-- start P: constant-bound COLOR
  Project(S.SNAME, P.PNO, P.PNAME)
    HashJoin(P.SNO = S.SNO)
    -- unique probe of S: key (SNO) bound by S.SNO = P.SNO ⇒ at most 1 row per outer row
      Filter(P.COLOR = 'RED' AND P.PNO >= :K)
        Scan(PARTS as P)
      Scan(SUPPLIER as S)
`,
	},
	{
		name: "ex8_exists", workload: "embedded_analytic", sameAsParent: false,
		sql: `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE EXISTS (SELECT * FROM PARTS P WHERE P.SNO = S.SNO AND P.COLOR = 'RED' AND P.PNO >= :K)`,
		plan: `Project(S.SNO, S.SNAME)
-- join order: S, P (as written)
  IndexJoin(P via PARTS_SNO_PNO = (S.SNO), first match where P.COLOR = 'RED' AND P.PNO >= :K)
  -- existence-only P: first match; without it DISTINCT is redundant: key of S (S.SNO) is bound
    Scan(SUPPLIER as S)
`,
	},
	{
		name: "ex9_intersect", workload: "embedded_analytic", sameAsParent: false,
		sql: `SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = :C AND S.BUDGET > :B
			INTERSECT
			SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = :C1 OR A.ACITY = :C2`,
		plan: `Project(S.SNO)
-- join order: S, A (as written)
  IndexJoin(A via AGENTS_SNO_ANO = (S.SNO), first match where A.ACITY = :C1 OR A.ACITY = :C2)
  -- existence-only A: first match; without it DISTINCT is redundant: key of S (S.SNO) is bound
    Filter(S.SCITY = :C AND S.BUDGET > :B)
      Scan(SUPPLIER as S)
`,
	},
	{
		name: "range_join", workload: "embedded_analytic", sameAsParent: false,
		sql: `SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S, PARTS P
			WHERE S.SNO BETWEEN :L AND :H AND S.SNO = P.SNO AND P.PNO = :PARTNO`,
		plan: `Project(S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS)
-- join order: S, P (as written)
-- start S: range-bound, read through SUPPLIER_SNO
  IndexJoin(P via PARTS_SNO_PNO = (S.SNO, :PARTNO))
  -- unique probe of P: key (SNO, PNO) bound by S.SNO = P.SNO, P.PNO = :PARTNO ⇒ at most 1 row per outer row
    IndexScan(S via SUPPLIER_SNO BETWEEN 10 AND 30)
`,
	},
	{
		name: "chain3", workload: "embedded_analytic", sameAsParent: true,
		sql: `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = :N`,
		plan: `Project(A.SNO, A.ANO, P.PNO, S.SNAME)
-- join order: S, P, A (written: A, P, S)
-- start S: key (SNO) bound by S.SNO = :N — at most one row
  HashJoin(P.SNO = A.SNO)
  -- equi-join on SNO, constant-bound SNO; no key of A fully bound
    HashJoin(P.SNO = S.SNO)
    -- builds the bounded join prefix (≤1 row) as the hash side
    -- equi-join on SNO, constant-bound SNO; no key of P fully bound
      IndexScan(P via PARTS_SNO_PNO = 7)
      IndexScan(S via SUPPLIER_SNO = 7)
    IndexScan(A via AGENTS_SNO_ANO = 7)
`,
	},
	{
		name: "point", workload: "wire_oltp", sameAsParent: true,
		sql: `SELECT ALL S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS FROM SUPPLIER S WHERE S.SNO = :N`,
		plan: `Project(S.SNO, S.SNAME, S.SCITY, S.BUDGET, S.STATUS)
  IndexScan(S via SUPPLIER_SNO = 7)
`,
	},
	{
		name: "parts_of", workload: "wire_oltp", sameAsParent: true,
		sql: `SELECT ALL S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
			WHERE P.SNO = :N AND S.SNO = P.SNO`,
		plan: `Project(S.SNO, S.SNAME, P.PNO, P.PNAME)
-- join order: S, P (as written)
-- start S: key (SNO) bound by S.SNO = :N — at most one row
  HashJoin(P.SNO = S.SNO)
  -- builds the bounded join prefix (≤1 row) as the hash side
  -- equi-join on SNO, constant-bound SNO; no key of P fully bound
    IndexScan(P via PARTS_SNO_PNO = 7)
    IndexScan(S via SUPPLIER_SNO = 7)
`,
	},
	{
		name: "distinct_elim", workload: "wire_oltp", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
			WHERE P.SNO = :N AND S.SNO = P.SNO`,
		plan: `Project(S.SNO, S.SNAME, P.PNO, P.PNAME)
-- join order: S, P (as written)
-- start S: key (SNO) bound by S.SNO = :N — at most one row
  HashJoin(P.SNO = S.SNO)
  -- builds the bounded join prefix (≤1 row) as the hash side
  -- equi-join on SNO, constant-bound SNO; no key of P fully bound
    IndexScan(P via PARTS_SNO_PNO = 7)
    IndexScan(S via SUPPLIER_SNO = 7)
`,
	},
	{
		name: "exists_probe", workload: "wire_oltp", sameAsParent: false,
		sql: `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE S.SNO = :N AND EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = :K)`,
		plan: `Project(S.SNO, S.SNAME)
-- join order: S, P (as written)
-- start S: key (SNO) bound by S.SNO = :N — at most one row
  HashJoin(P.SNO = S.SNO)
  -- builds the bounded join prefix (≤1 row) as the hash side
  -- unique probe of P: key (SNO, PNO) bound by S.SNO = P.SNO, P.PNO = :K ⇒ at most 1 row per outer row
    IndexScan(P via PARTS_SNO_PNO = (7, 3))
    IndexScan(S via SUPPLIER_SNO = 7)
`,
	},
	{
		name: "agent_read", workload: "wire_oltp", sameAsParent: false,
		sql: `SELECT ALL A.SNO, A.ANO, A.ANAME, A.ACITY FROM AGENTS A WHERE A.SNO = :S AND A.ANO = :A`,
		plan: `Project(A.SNO, A.ANO, A.ANAME, A.ACITY)
  IndexScan(A via AGENTS_SNO_ANO = (7, 1))
`,
	},
	{
		name: "readback", workload: "durable_ingest", sameAsParent: false,
		sql: `SELECT ALL S.SNO, S.SNAME, P.PNO, P.OEM-PNO FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.SNO = :S AND P.PNO = :P`,
		plan: `Project(S.SNO, S.SNAME, P.PNO, P.OEM-PNO)
-- join order: S, P (as written)
-- start S: key (SNO) bound by S.SNO = :S — at most one row
  HashJoin(P.SNO = S.SNO)
  -- builds the bounded join prefix (≤1 row) as the hash side
  -- unique probe of P: key (SNO, PNO) bound by S.SNO = P.SNO, P.PNO = :P ⇒ at most 1 row per outer row
    IndexScan(P via PARTS_SNO_PNO = (7, 3))
    IndexScan(S via SUPPLIER_SNO = 7)
`,
	},
	{
		name: "ex1_lit", workload: "embedded_adhoc", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNO, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < 1500`,
		plan: `Project(S.SNO, P.PNO, P.PNAME)
-- join order: P, S (written: S, P)
-- start P: constant-bound COLOR
  HashJoin(P.SNO = S.SNO)
  -- unique probe of S: key (SNO) bound by S.SNO = P.SNO ⇒ at most 1 row per outer row
    Filter(P.COLOR = 'RED' AND P.OEM-PNO < 1500)
      Scan(PARTS as P)
    Scan(SUPPLIER as S)
`,
	},
	{
		name: "ex2_lit", workload: "embedded_adhoc", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNAME, P.PNO, P.PNAME FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND P.COLOR = 'RED' AND P.OEM-PNO < 1500`,
		plan: `DistinctHash
-- join order: P, S (written: S, P)
-- start P: constant-bound COLOR
  Project(S.SNAME, P.PNO, P.PNAME)
    HashJoin(P.SNO = S.SNO)
    -- unique probe of S: key (SNO) bound by S.SNO = P.SNO ⇒ at most 1 row per outer row
      Filter(P.COLOR = 'RED' AND P.OEM-PNO < 1500)
        Scan(PARTS as P)
      Scan(SUPPLIER as S)
`,
	},
	{
		name: "ex4_lit", workload: "embedded_adhoc", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNO, SNAME, P.PNO, PNAME FROM SUPPLIER S, PARTS P
			WHERE P.SNO = 7 AND S.SNO = P.SNO AND P.OEM-PNO > 1063`,
		plan: `Project(S.SNO, S.SNAME, P.PNO, P.PNAME)
-- join order: S, P (as written)
-- start S: key (SNO) bound by S.SNO = 7 — at most one row
  HashJoin(P.SNO = S.SNO)
  -- builds the bounded join prefix (≤1 row) as the hash side
  -- equi-join on SNO, constant-bound SNO; no key of P fully bound
    Filter(P.OEM-PNO > 1063)
      IndexScan(P via PARTS_SNO_PNO = 7)
    IndexScan(S via SUPPLIER_SNO = 7)
`,
	},
	{
		name: "ex7_lit", workload: "embedded_adhoc", sameAsParent: true,
		sql: `SELECT ALL S.SNO, S.SNAME FROM SUPPLIER S
			WHERE S.SNAME = 'Smith' AND S.BUDGET < 800 AND
			EXISTS (SELECT * FROM PARTS P WHERE S.SNO = P.SNO AND P.PNO = 3)`,
		plan: `Project(S.SNO, S.SNAME)
-- join order: S, P (as written)
-- start S: constant-bound SNAME
  HashJoin(S.SNO = P.SNO)
  -- unique probe of P: key (SNO, PNO) bound by S.SNO = P.SNO, P.PNO = 3 ⇒ at most 1 row per outer row
    Filter(S.SNAME = 'Smith' AND S.BUDGET < 800)
      Scan(SUPPLIER as S)
    Filter(P.PNO = 3)
      Scan(PARTS as P)
`,
	},
	{
		name: "ex9_lit", workload: "embedded_adhoc", sameAsParent: false,
		sql: `SELECT ALL S.SNO FROM SUPPLIER S WHERE S.SCITY = 'Toronto' AND S.BUDGET > 100
			INTERSECT
			SELECT ALL A.SNO FROM AGENTS A WHERE A.ACITY = 'Ottawa' OR A.ACITY = 'Hull'`,
		plan: `Project(S.SNO)
-- join order: S, A (as written)
  IndexJoin(A via AGENTS_SNO_ANO = (S.SNO), first match where A.ACITY = 'Ottawa' OR A.ACITY = 'Hull')
  -- existence-only A: first match; without it DISTINCT is redundant: key of S (S.SNO) is bound
    Filter(S.SCITY = 'Toronto' AND S.BUDGET > 100)
      Scan(SUPPLIER as S)
`,
	},
	{
		name: "disj_lit", workload: "embedded_adhoc", sameAsParent: true,
		sql: `SELECT DISTINCT S.SNO, P.PNO FROM SUPPLIER S, PARTS P
			WHERE S.SNO = P.SNO AND (P.COLOR = 'RED' AND P.OEM-PNO < 1300 OR P.PNO = 2 AND P.OEM-PNO > 1700)`,
		plan: `Project(S.SNO, P.PNO)
-- join order: P, S (written: S, P)
-- start P: filtered
  HashJoin(P.SNO = S.SNO)
  -- unique probe of S: key (SNO) bound by S.SNO = P.SNO ⇒ at most 1 row per outer row
    Filter((P.COLOR = 'RED' AND P.OEM-PNO < 1300) OR (P.PNO = 2 AND P.OEM-PNO > 1700))
      Scan(PARTS as P)
    Scan(SUPPLIER as S)
`,
	},
	{
		name: "chain3_lit", workload: "embedded_adhoc", sameAsParent: true,
		sql: `SELECT ALL A.SNO, A.ANO, P.PNO, S.SNAME FROM AGENTS A, PARTS P, SUPPLIER S
			WHERE A.SNO = P.SNO AND P.SNO = S.SNO AND S.SNO = 7 AND P.OEM-PNO <> 1065`,
		plan: `Project(A.SNO, A.ANO, P.PNO, S.SNAME)
-- join order: S, P, A (written: A, P, S)
-- start S: key (SNO) bound by S.SNO = 7 — at most one row
  HashJoin(P.SNO = A.SNO)
  -- equi-join on SNO, constant-bound SNO; no key of A fully bound
    HashJoin(P.SNO = S.SNO)
    -- builds the bounded join prefix (≤1 row) as the hash side
    -- equi-join on SNO, constant-bound SNO; no key of P fully bound
      Filter(P.OEM-PNO <> 1065)
        IndexScan(P via PARTS_SNO_PNO = 7)
      IndexScan(S via SUPPLIER_SNO = 7)
    IndexScan(A via AGENTS_SNO_ANO = 7)
`,
	},
}

func benchStatement(name string) benchStmt {
	for _, s := range benchStatements {
		if s.name == name {
			return s
		}
	}
	panic("no benchmark statement " + name)
}

// TestBenchmarkPlanShapes pins, for every read statement of the
// benchmark, the whole plan plain EXPLAIN renders — join order, access
// paths, operators, notes — and that EXPLAIN ANALYZE renders the same
// tree. Three statements plan as index probes (range_join by rule A;
// ex8_exists and ex9_intersect, and ex9_lit with them, by rule B); three
// more bind a second index column in their point access path; the rest
// are the parent's plans to the byte.
func TestBenchmarkPlanShapes(t *testing.T) {
	db := goldenIndexedDB(t)
	probed := map[string]string{"range_join": "IndexJoin(P via PARTS_SNO_PNO = (S.SNO, :PARTNO))",
		"ex8_exists": "first match", "ex9_intersect": "first match", "ex9_lit": "first match"}
	for _, s := range benchStatements {
		e, err := db.ExplainWith(context.Background(), s.sql, goldenHosts, true, false)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		got := e.Root.Format(false)
		if got != s.plan {
			t.Errorf("%s (%s): plan changed\n--- want\n%s--- got\n%s", s.name, s.workload, s.plan, got)
		}
		if want, ok := probed[s.name]; ok != strings.Contains(got, "IndexJoin") || !strings.Contains(got, want) {
			t.Errorf("%s: index probe expected=%v (%q), plan:\n%s", s.name, ok, want, got)
		}
		if s.sameAsParent && probed[s.name] != "" {
			t.Errorf("%s: marked as the parent's plan and as probed", s.name)
		}
		a, err := db.ExplainWith(context.Background(), s.sql, goldenHosts, true, true)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if analyzed := a.Root.Format(false); analyzed != got {
			t.Errorf("%s: EXPLAIN ANALYZE renders another tree\n--- plain\n%s--- analyzed\n%s", s.name, got, analyzed)
		}
	}
}

// TestIndexProbeCounts pins what the probed statements touch — the
// counts are deterministic — against what the statement as written
// touches: an index join reads its outer rows and at most one row per
// seek, a first-match probe sorts nothing and fetches no more rows than
// it scans, and each seeks once per probing row.
func TestIndexProbeCounts(t *testing.T) {
	db := goldenIndexedDB(t)
	for _, c := range []struct {
		name string
		// outer rows enter the probe, having cost outerScanned rows and
		// outerSeeks seeks to produce.
		outer, outerScanned, outerSeeks int64
		out, scanned, baseScanned       int64
	}{
		// 21 suppliers in [10, 30] through the index, each with a part 1;
		// the statement has no rewrite, so as written it is the same plan.
		{name: "range_join", outer: 21, outerScanned: 21, outerSeeks: 1, out: 21, scanned: 42, baseScanned: 42},
		// 100 suppliers; the probe of one stops at its first RED part
		// numbered 3 or more.
		{name: "ex8_exists", outer: 100, outerScanned: 100, out: 93, scanned: 591, baseScanned: 100100},
		// 8 of 100 suppliers pass the filter, 3 of them have such an agent.
		{name: "ex9_intersect", outer: 8, outerScanned: 100, out: 3, scanned: 115, baseScanned: 300},
	} {
		sql := benchStatement(c.name).sql
		rows, err := db.QueryWith(sql, goldenHosts, true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		st := rows.Stats
		if st.RowsOutput != c.out || st.RowsScanned != c.scanned {
			t.Errorf("%s: out=%d scanned=%d, want %d %d", c.name, st.RowsOutput, st.RowsScanned, c.out, c.scanned)
		}
		if st.IndexSeeks != c.outerSeeks+c.outer {
			t.Errorf("%s: %d seeks, want one per probing row (%d) and %d below it", c.name, st.IndexSeeks, c.outer, c.outerSeeks)
		}
		if st.JoinPairs != st.RowsScanned-c.outerScanned {
			t.Errorf("%s: %d join pairs, want one per fetched row (%d)", c.name, st.JoinPairs, st.RowsScanned-c.outerScanned)
		}
		if st.RowsSorted != 0 || st.SortRuns != 0 || st.HashInserts != 0 || st.RowsMaterialized != st.RowsOutput {
			t.Errorf("%s: sorted=%d inserts=%d materialized=%d: a probe builds, sorts and holds nothing but the result",
				c.name, st.RowsSorted, st.HashInserts, st.RowsMaterialized)
		}
		base, err := db.QueryWith(sql, goldenHosts, false)
		if err != nil {
			t.Fatalf("%s as written: %v", c.name, err)
		}
		if base.Stats.RowsScanned != c.baseScanned || canonRows(rows.Data) != canonRows(base.Data) {
			t.Errorf("%s as written: scanned=%d (want %d), %d rows against %d optimized",
				c.name, base.Stats.RowsScanned, c.baseScanned, len(base.Data), len(rows.Data))
		}
		// Rule A's bound: an index join scans its outer rows and at most
		// one row per seek.
		if c.name == "range_join" && st.RowsScanned > 2*c.outer {
			t.Errorf("range_join scanned %d rows for %d outer rows", st.RowsScanned, c.outer)
		}
	}
}
