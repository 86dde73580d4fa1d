package lint

import (
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestNoProductPathReachesTheReferenceExecutor pins that every query the
// product runs is planned and runs on the engine's iterators: outside the
// engine package, no non-test file names engine.Executor or
// engine.NewExecutor. The reference executor is the tests' oracle.
func TestNoProductPathReachesTheReferenceExecutor(t *testing.T) {
	engineUses(t, func(mod, file string, pos token.Position, obj types.Object) {
		if obj.Pkg() == nil || obj.Pkg().Path() != mod+"/internal/engine" ||
			(obj.Name() != "Executor" && obj.Name() != "NewExecutor") {
			return
		}
		if !strings.HasPrefix(file, "internal/engine/") {
			t.Errorf("%s: %s names engine.%s; the reference executor is an oracle for tests, not a product path",
				pos, file, obj.Name())
		}
	})
}
