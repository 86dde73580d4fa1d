package core

import (
	"sync"
	"testing"

	"uniqopt/internal/sql/parser"
	"uniqopt/internal/workload"
)

// TestCacheConcurrentAnalyzers runs one analyzer from eight goroutines,
// as concurrent sessions share each planner's: every verdict must equal
// the one a single caller computes.
func TestCacheConcurrentAnalyzers(t *testing.T) {
	an := NewAnalyzer(workload.PaperCatalog())
	srcs := []string{
		`SELECT DISTINCT SNO FROM SUPPLIER`,
		`SELECT DISTINCT SNO, SNAME FROM SUPPLIER WHERE SCITY = 'Chicago'`,
		`SELECT DISTINCT PNO FROM PARTS WHERE COLOR = 'RED'`,
		`SELECT SNAME FROM SUPPLIER WHERE SNO = 7`,
	}
	want := make([]string, len(srcs))
	for i, src := range srcs {
		v, err := an.AnalyzeSelect(mustSelect(t, src), nil)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v.String()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				for i, src := range srcs {
					s, err := parser.ParseSelect(src)
					if err != nil {
						errs <- err
						return
					}
					v, err := an.AnalyzeSelect(s, nil)
					if err != nil {
						errs <- err
						return
					}
					if v.String() != want[i] {
						errs <- errVerdictDrift{src, want[i], v.String()}
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type errVerdictDrift struct{ src, want, got string }

func (e errVerdictDrift) Error() string {
	return "verdict drift for " + e.src + ": want " + e.want + " got " + e.got
}
