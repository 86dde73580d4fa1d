package plan

import (
	"context"
	"sync"
	"testing"

	"uniqopt/internal/engine"
	"uniqopt/internal/sql/ast"
	"uniqopt/internal/sql/parser"
	"uniqopt/internal/storage"
	"uniqopt/internal/value"
	"uniqopt/internal/valuetest"
	"uniqopt/internal/vcache"
)

// stmtCache is the cache the database keeps compiled statements in,
// at this package's level: vcache keyed on the statement text, the
// catalog version read before compiling, and the planner's compile
// bits.
type stmtCache = vcache.Cache[*Compiled]

// cachedRun is the lookup-or-compile step uniqopt.DB performs, then
// Execute: the key is built once, before compiling, so a plan derived
// under an older catalog can only ever be filed under the older
// version. The hit or miss lands on the run's Stats.
func cachedRun(db *storage.DB, sc *stmtCache, opts Options, src string, hosts map[string]value.Value) (*Result, error) {
	p := NewPlanner(db, opts)
	key := vcache.Key{Src: src, CatVer: db.Catalog().Version(), Opts: opts.CompileBits()}
	var st engine.Stats
	c, hit := sc.Get(key)
	if hit {
		st.AddPlanCache(1, 0)
	} else {
		st.AddPlanCache(0, 1)
		q, err := parser.ParseQuery(src)
		if err != nil {
			return nil, err
		}
		if c, err = p.Compile(q); err != nil {
			return nil, err
		}
		sc.Put(key, c)
	}
	vals, err := c.Bind(byName(hosts))
	if err != nil {
		return nil, err
	}
	res, err := p.Execute(context.Background(), NewFrame(), c, vals, false)
	if err != nil {
		return nil, err
	}
	res.Stats.Add(st)
	return res, nil
}

// planRun executes src through a planner sharing sc, failing the test
// on any error.
func planRun(t *testing.T, db *storage.DB, sc *stmtCache, src string, hosts map[string]value.Value) *Result {
	t.Helper()
	res, err := cachedRun(db, sc, Options{}, src, hosts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const cacheProbeSQL = `SELECT S.SNAME, P.PNO FROM SUPPLIER S, PARTS P
	WHERE S.SNO = P.SNO AND P.COLOR = 'RED'`

// The first run of a shape misses and populates; the second hits. Both
// outcomes surface on the per-run Stats and the cache's cumulative
// counters, and the cached run returns the identical plan and rows.
func TestPlanCacheHitMissCounters(t *testing.T) {
	db := smallDB(t)
	pc := vcache.New[*Compiled](0)

	r1 := planRun(t, db, pc, cacheProbeSQL, nil)
	if r1.Stats.PlanMisses != 1 || r1.Stats.PlanHits != 0 {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/1", r1.Stats.PlanHits, r1.Stats.PlanMisses)
	}
	if pc.Len() != 1 {
		t.Fatalf("cache holds %d plans, want 1", pc.Len())
	}

	r2 := planRun(t, db, pc, cacheProbeSQL, nil)
	if r2.Stats.PlanHits != 1 || r2.Stats.PlanMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want 1/0", r2.Stats.PlanHits, r2.Stats.PlanMisses)
	}
	if !valuetest.Same(r1.Rel.Cols, r1.Rel.Rows, r2.Rel.Cols, r2.Rel.Rows) {
		t.Fatal("cached plan changed the result")
	}
	if hits, misses := pc.Counters(); hits != 1 || misses != 1 {
		t.Fatalf("cumulative counters = %d/%d, want 1/1", hits, misses)
	}
}

// Every DDL kind that can change a planning decision must invalidate
// cached plans: the catalog-version key makes old entries unreachable,
// so the next run re-plans (a miss) instead of serving a plan derived
// under the old schema.
func TestPlanCacheInvalidationPerDDLKind(t *testing.T) {
	kinds := []struct {
		name  string
		setup func(t *testing.T, db *storage.DB)
		ddl   func(t *testing.T, db *storage.DB)
	}{
		{
			name: "AddKey",
			ddl: func(t *testing.T, db *storage.DB) {
				if err := db.MustTable("SUPPLIER").Schema.AddKey(false, "SNAME"); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "DropKey",
			setup: func(t *testing.T, db *storage.DB) {
				if err := db.MustTable("SUPPLIER").Schema.AddKey(false, "SNAME"); err != nil {
					t.Fatal(err)
				}
			},
			ddl: func(t *testing.T, db *storage.DB) {
				s := db.MustTable("SUPPLIER").Schema
				if err := s.DropKey(len(s.Keys) - 1); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "AddCheck",
			ddl: func(t *testing.T, db *storage.DB) {
				check := &ast.Compare{Op: ast.GeOp,
					L: &ast.ColumnRef{Column: "SNO"}, R: &ast.IntLit{V: 0}}
				if err := db.MustTable("SUPPLIER").Schema.AddCheck(check); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "AddForeignKey",
			ddl: func(t *testing.T, db *storage.DB) {
				err := db.Catalog().AddForeignKey(db.MustTable("PARTS").Schema,
					[]string{"SNO"}, "SUPPLIER", []string{"SNO"})
				if err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "CreateIndex",
			ddl: func(t *testing.T, db *storage.DB) {
				if _, err := db.MustTable("SUPPLIER").CreateOrderedIndex("PC_IX", "SCITY"); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "CreateTable",
			ddl: func(t *testing.T, db *storage.DB) {
				st, err := parser.ParseStatement(`CREATE TABLE PC_T (ID INTEGER NOT NULL, PRIMARY KEY (ID))`)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.ApplyDDL("", st.(*ast.CreateTable)); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			db := smallDB(t)
			if k.setup != nil {
				k.setup(t, db)
			}
			pc := vcache.New[*Compiled](0)
			planRun(t, db, pc, cacheProbeSQL, nil)
			warm := planRun(t, db, pc, cacheProbeSQL, nil)
			if warm.Stats.PlanHits != 1 {
				t.Fatalf("warm-up never hit: %s", warm.Stats.String())
			}
			v0 := db.Catalog().Version()
			k.ddl(t, db)
			if db.Catalog().Version() == v0 {
				t.Fatalf("%s did not bump the catalog version", k.name)
			}
			after := planRun(t, db, pc, cacheProbeSQL, nil)
			if after.Stats.PlanMisses != 1 || after.Stats.PlanHits != 0 {
				t.Fatalf("run after %s: hits=%d misses=%d, want a re-plan (0/1)",
					k.name, after.Stats.PlanHits, after.Stats.PlanMisses)
			}
		})
	}
}

// The key carries the source text itself, so a different source under
// an otherwise identical key is a miss by construction — there is no
// fingerprint to collide, and no plan built for another query to run.
func TestPlanCacheSourceCollisionIsMiss(t *testing.T) {
	pc := vcache.New[*Compiled](0)
	pc.Put(vcache.Key{Src: "SELECT A.X FROM A", CatVer: 1}, &Compiled{})
	if c, ok := pc.Get(vcache.Key{Src: "SELECT B.Y FROM B", CatVer: 1}); ok || c != nil {
		t.Fatal("a different source under the same version and options must miss")
	}
	if hits, misses := pc.Counters(); hits != 0 || misses != 1 {
		t.Fatalf("counters = %d/%d, want 0/1", hits, misses)
	}
}

// When the cache fills it is cleared wholesale, so it keeps admitting
// new shapes instead of pinning the first max entries forever.
func TestPlanCacheCapacityClearsWholesale(t *testing.T) {
	pc := vcache.New[*Compiled](2)
	pc.Put(vcache.Key{Src: "q1"}, &Compiled{})
	pc.Put(vcache.Key{Src: "q2"}, &Compiled{})
	if pc.Len() != 2 {
		t.Fatalf("len = %d, want 2", pc.Len())
	}
	pc.Put(vcache.Key{Src: "q3"}, &Compiled{})
	if pc.Len() != 1 {
		t.Fatalf("len after overflow = %d, want 1 (wholesale clear then insert)", pc.Len())
	}
	if c, ok := pc.Get(vcache.Key{Src: "q3"}); !ok || c == nil {
		t.Fatal("newest entry must survive the clear")
	}
}

// Reset returns the cache to cold: no entries, zero counters.
func TestPlanCacheReset(t *testing.T) {
	pc := vcache.New[*Compiled](0)
	pc.Put(vcache.Key{Src: "q"}, &Compiled{})
	pc.Get(vcache.Key{Src: "q"})
	pc.Reset()
	if pc.Len() != 0 {
		t.Fatalf("len after reset = %d", pc.Len())
	}
	if hits, misses := pc.Counters(); hits != 0 || misses != 0 {
		t.Fatalf("counters after reset = %d/%d", hits, misses)
	}
}

// Planner-option bits that change plan shape partition the cache: the
// sort-based and the hash DISTINCT plans of the same SQL never collide.
func TestPlanCacheOptionBitsPartition(t *testing.T) {
	const distinctSQL = `SELECT DISTINCT S.SCITY FROM SUPPLIER S`
	db := smallDB(t)
	pc := vcache.New[*Compiled](0)
	if _, err := cachedRun(db, pc, Options{}, distinctSQL, nil); err != nil {
		t.Fatal(err)
	}
	res, err := cachedRun(db, pc, Options{SortDistinct: true}, distinctSQL, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.PlanHits != 0 || res.Stats.PlanMisses != 1 || res.Stats.SortRuns != 1 {
		t.Fatalf("sort-DISTINCT run must not reuse the hash plan: %s", res.Stats.String())
	}
	if pc.Len() != 2 {
		t.Fatalf("len = %d, want 2 distinct entries", pc.Len())
	}
}

// Concurrent planners sharing one cache on one database: every run
// must return the correct rows, and -race must stay silent.
func TestPlanCacheConcurrentSharing(t *testing.T) {
	db := smallDB(t)
	pc := vcache.New[*Compiled](0)
	q, err := parser.ParseQuery(cacheProbeSQL)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewPlanner(db, Options{}).Run(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				res, err := cachedRun(db, pc, Options{}, cacheProbeSQL, nil)
				if err != nil {
					t.Error(err)
					return
				}
				if !engine.MultisetEqual(ref.Rel, res.Rel) {
					t.Error("shared cached plan changed the result")
					return
				}
			}
		}()
	}
	wg.Wait()
	hits, misses := pc.Counters()
	if hits+misses != workers*20 {
		t.Fatalf("hits+misses = %d, want %d", hits+misses, workers*20)
	}
	if hits == 0 {
		t.Fatal("concurrent sharing never hit the cache")
	}
}
