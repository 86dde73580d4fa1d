package lint

import (
	"strings"
	"testing"
)

func TestTvlBoolFixture(t *testing.T) {
	fs := checkFixture(t, "fix/tvlbool", TvlBool)
	if len(fs) != 5 {
		t.Errorf("tvlbool findings = %d, want 5", len(fs))
	}
}

func TestTvlBoolExemptInsideTvl(t *testing.T) {
	// The stand-in tvl package compares Truth values internally; the
	// analyzer must stay silent there.
	fs, _ := loadFixture(t, "uniqopt/internal/tvl", TvlBool)
	if len(fs) != 0 {
		t.Errorf("tvlbool flagged the tvl package itself: %v", fs)
	}
}

func TestRowAliasFixture(t *testing.T) {
	fs := checkFixture(t, "fix/rowalias", RowAlias)
	if len(fs) != 5 {
		t.Errorf("rowalias findings = %d, want 5", len(fs))
	}
}

func TestStatsAtomicConsumerFixture(t *testing.T) {
	fs := checkFixture(t, "fix/statsatomic", StatsAtomic)
	if len(fs) != 4 {
		t.Errorf("statsatomic findings = %d, want 4", len(fs))
	}
}

func TestEngineImplFixture(t *testing.T) {
	// The engine-side fixture carries both statsatomic centralization
	// violations and rowalias shared-storage writes.
	fs := checkFixture(t, "engfix/internal/engine", StatsAtomic, RowAlias)
	var atomics, shared int
	for _, f := range fs {
		switch f.Analyzer {
		case "statsatomic":
			atomics++
		case "rowalias":
			shared++
		}
	}
	if atomics != 2 || shared != 2 {
		t.Errorf("engine fixture findings: statsatomic=%d rowalias=%d, want 2 and 2", atomics, shared)
	}
}

func TestCatVerFixture(t *testing.T) {
	fs := checkFixture(t, "catfix/internal/catalog", CatVer)
	if len(fs) != 2 {
		t.Errorf("catver findings = %d, want 2", len(fs))
	}
}

func TestCatVerSkipsOtherPackages(t *testing.T) {
	fs, _ := loadFixture(t, "fix/tvlbool", CatVer)
	if len(fs) != 0 {
		t.Errorf("catver ran outside internal/catalog: %v", fs)
	}
}

func TestDetOrderFixture(t *testing.T) {
	fs := checkFixture(t, "fix/detorder", DetOrder)
	if len(fs) != 5 {
		t.Errorf("detorder findings = %d, want 5", len(fs))
	}
}

func TestFindingFormat(t *testing.T) {
	fs, _ := loadFixture(t, "fix/tvlbool", TvlBool)
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	s := fs[0].String()
	if !strings.Contains(s, "x.go:") || !strings.Contains(s, "[tvlbool]") {
		t.Errorf("finding format %q lacks file:line: [analyzer]", s)
	}
}

func TestByName(t *testing.T) {
	found, unknown := ByName("tvlbool,catver")
	if len(found) != 2 || len(unknown) != 0 {
		t.Fatalf("ByName: found=%v unknown=%v", found, unknown)
	}
	_, unknown = ByName("tvlbool,nosuch")
	if len(unknown) != 1 || unknown[0] != "nosuch" {
		t.Fatalf("ByName unknown = %v", unknown)
	}
}

func TestCtxFlowFixture(t *testing.T) {
	fs := checkFixture(t, "ctxfix/internal/engine", CtxFlow)
	if len(fs) != 5 {
		t.Errorf("ctxflow findings = %d, want 5", len(fs))
	}
}

func TestIterLifeFixture(t *testing.T) {
	// The iterator fixture exercises all three lifecycle rules at
	// once: iterlife's missing-Close and leaked-local rules, ctxflow
	// on Next methods, and rowalias batch-buffer reuse.
	fs := checkFixture(t, "iterfix/internal/engine", IterLife, RowAlias, CtxFlow)
	var life, ctx, alias int
	for _, f := range fs {
		switch f.Analyzer {
		case "iterlife":
			life++
		case "ctxflow":
			ctx++
		case "rowalias":
			alias++
		}
	}
	if life != 4 || ctx != 2 || alias != 2 {
		t.Errorf("iterator fixture findings: iterlife=%d ctxflow=%d rowalias=%d, want 4, 2, 2", life, ctx, alias)
	}
}

func TestIterLifeSkipsOtherPackages(t *testing.T) {
	fs, _ := loadFixture(t, "fix/tvlbool", IterLife)
	if len(fs) != 0 {
		t.Errorf("iterlife ran outside engine/plan: %v", fs)
	}
}

func TestGovPairFixture(t *testing.T) {
	fs := checkFixture(t, "govfix/internal/engine", GovPair)
	if len(fs) != 6 {
		t.Errorf("govpair findings = %d, want 6", len(fs))
	}
}

func TestIterStateFixture(t *testing.T) {
	fs := checkFixture(t, "statefix/internal/engine", IterState)
	if len(fs) != 6 {
		t.Errorf("iterstate findings = %d, want 6", len(fs))
	}
}

func TestBatchLifeFixture(t *testing.T) {
	fs := checkFixture(t, "batchfix/internal/engine", BatchLife)
	if len(fs) != 4 {
		t.Errorf("batchlife findings = %d, want 4", len(fs))
	}
}

func TestGovPairSkipsOtherPackages(t *testing.T) {
	fs, _ := loadFixture(t, "fix/tvlbool", GovPair, IterState, BatchLife)
	if len(fs) != 0 {
		t.Errorf("dataflow analyzers ran outside engine/plan: %v", fs)
	}
}

func TestCtxFlowSkipsOtherPackages(t *testing.T) {
	// The analyzer is scoped to internal/engine and internal/plan;
	// other packages may hold contexts however they like.
	fs, _ := loadFixture(t, "fix/tvlbool", CtxFlow)
	if len(fs) != 0 {
		t.Errorf("ctxflow ran outside engine/plan: %v", fs)
	}
}

func TestFileLifeFixture(t *testing.T) {
	fs := checkFixture(t, "filefix/internal/storage/wal", FileLife)
	if len(fs) != 4 {
		t.Errorf("filelife findings = %d, want 4", len(fs))
	}
}

func TestFileLifeSkipsOtherPackages(t *testing.T) {
	// The analyzer is scoped to internal/storage/...; file handling
	// elsewhere (test harnesses, benchmarks) is out of its remit.
	fs, _ := loadFixture(t, "fix/tvlbool", FileLife)
	if len(fs) != 0 {
		t.Errorf("filelife ran outside internal/storage: %v", fs)
	}
}
