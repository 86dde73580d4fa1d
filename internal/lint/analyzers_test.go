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
	fs := loadFixture(t, "uniqopt/internal/tvl", TvlBool)
	if len(fs) != 0 {
		t.Errorf("tvlbool flagged the tvl package itself: %v", fs)
	}
}

func TestStatsAtomicConsumerFixture(t *testing.T) {
	fs := checkFixture(t, "fix/statsatomic", StatsAtomic)
	if len(fs) != 4 {
		t.Errorf("statsatomic findings = %d, want 4", len(fs))
	}
}

func TestEngineImplFixture(t *testing.T) {
	// Inside the engine, the centralization rule still binds: counters
	// cross goroutines only through stats.go.
	fs := checkFixture(t, "engfix/internal/engine", StatsAtomic)
	if len(fs) != 2 {
		t.Errorf("engine fixture statsatomic findings = %d, want 2", len(fs))
	}
}

func TestFindingFormat(t *testing.T) {
	fs := loadFixture(t, "fix/tvlbool", TvlBool)
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	s := fs[0].String()
	if !strings.Contains(s, "x.go:") || !strings.Contains(s, "[tvlbool]") {
		t.Errorf("finding format %q lacks file:line: [analyzer]", s)
	}
}

func TestByName(t *testing.T) {
	found, unknown := ByName("tvlbool,ctxflow")
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
	if len(fs) != 7 {
		t.Errorf("ctxflow findings = %d, want 7", len(fs))
	}
}

func TestCtxFlowSkipsOtherPackages(t *testing.T) {
	// The analyzer is scoped to internal/engine and internal/plan;
	// other packages may hold contexts however they like.
	fs := loadFixture(t, "fix/tvlbool", CtxFlow)
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
	fs := loadFixture(t, "fix/tvlbool", FileLife)
	if len(fs) != 0 {
		t.Errorf("filelife ran outside internal/storage: %v", fs)
	}
}
