package lint

import (
	"go/token"
	"strings"
	"testing"
)

func sampleFindings() []Finding {
	return []Finding{
		{
			Pos:      token.Position{Filename: "internal/engine/stream.go", Line: 42, Column: 7},
			Analyzer: "ctxflow",
			Message:  "governor charge not released on this path; 50% of exits leak",
		},
		{
			Pos:        token.Position{Filename: "internal/engine/ops.go", Line: 7},
			Analyzer:   "tvlbool",
			Message:    "suppressed one",
			Suppressed: true,
		},
	}
}

func TestWriteGHA(t *testing.T) {
	var sb strings.Builder
	if err := WriteGHA(&sb, sampleFindings()); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("GHA output = %d lines, want 1 (suppressed omitted):\n%s", len(lines), out)
	}
	line := lines[0]
	if !strings.HasPrefix(line, "::error file=internal/engine/stream.go,line=42,title=uniqlint/ctxflow::") {
		t.Errorf("workflow command prefix wrong: %s", line)
	}
	// The % in the message must be escaped per runner rules.
	if !strings.Contains(line, "50%25 of exits") {
		t.Errorf("%% not escaped in message: %s", line)
	}
}

func TestGHAEscaping(t *testing.T) {
	var sb strings.Builder
	err := WriteGHA(&sb, []Finding{{
		Pos:      token.Position{Filename: "a,b:c.go", Line: 1},
		Analyzer: "x",
		Message:  "multi\nline %",
	}})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "\n") != 1 {
		t.Errorf("newline in message must be escaped, got:\n%q", out)
	}
	if !strings.Contains(out, "file=a%2Cb%3Ac.go") {
		t.Errorf("property delimiters not escaped: %q", out)
	}
	if !strings.Contains(out, "multi%0Aline %25") {
		t.Errorf("message escaping wrong: %q", out)
	}
}
